"""End-to-end CLI coverage with temp files; exit codes are contract."""

import json

import pytest

from cdckit.cli import main


def test_construct_writes_file_and_reports(tmp_path, capsys):
    out = tmp_path / "c.cdc"
    code = main(["construct", "--recipe", "8_4_4", "--q", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "expected_size=4797" in text and "generated=4797" in text
    assert out.read_text().count("\n") == 4797 + 10  # body + header lines


def test_construct_unknown_recipe_is_usage_error(capsys):
    assert main(["construct", "--recipe", "nope", "--q", "2"]) == 2


def test_removed_options_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "lm.cdc"
    from cdckit.cdc import lifted_mrd
    from cdckit.codefile import export
    export(lifted_mrd(2, 6, 3, 4), out)
    assert main(["verify", "--file", str(out), "--jobs", "2"]) == 2
    assert main(["construct", "--recipe", "8_4_4", "--q", "2", "--seed", "0"]) == 2
    assert main(["construct", "--recipe", "8_4_4", "--q", "2", "--materialize"]) == 2


def test_construct_missing_import_is_precondition(capsys):
    assert main(["construct", "--recipe", "9_4_3", "--q", "2"]) == 4


def test_construct_bound_only_recipe(capsys):
    assert main(["construct", "--recipe", "16_4_4", "--q", "2"]) == 0
    assert "closed-form size only" in capsys.readouterr().out



@pytest.mark.parametrize("recipe,q", [("8_4_4", "4294967311"), ("12_8_6", "1000003")])
def test_construct_at_a_huge_q_is_precondition(recipe, q, capsys):
    # a prime q is recognised without trial division, and the 12_8_6
    # spread (q^4 + q^2 + 1 words) is refused before it is listed
    import time
    start = time.monotonic()
    assert main(["construct", "--recipe", recipe, "--q", q]) == 4
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err.startswith("cdckit: ")


def test_oracle_enumerate_at_a_huge_prime_q(capsys):
    import time
    start = time.monotonic()
    assert main(["oracle", "--kind", "enumerate", "--q", "4294967311",
                 "--n", "1", "--k", "1"]) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("argv", [
    ["formula", "--name", "A_q(12,8;6)", "--q", str(3 ** 39)],
    ["formula", "--name", "A_q(12,8;6)", "--q", str(2 ** 62)],
    ["oracle", "--kind", "subspace-count", "--q", str(3 ** 39), "--n", "4", "--k", "2"],
    ["oracle", "--kind", "mrd-size", "--q", str(2 ** 62), "--n", "3", "--m", "3", "--dr", "2"],
    ["bound", "--q", str(3 ** 39), "--n", "6", "--d", "4", "--k", "3"],
])
def test_a_huge_prime_power_q_is_checked_without_its_field(argv, capsys, monkeypatch):
    # a count needs q to be a field order, not GF(q): building GF(3^39)
    # searches for a degree-39 modulus, which took seconds
    import time
    from cdckit import gf

    def build(p, e):
        raise AssertionError(f"built GF({p}^{e}) to check --q")

    monkeypatch.setattr(gf, "field_new", build)
    start = time.monotonic()
    assert main(argv) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out.strip()


def test_a_prime_power_q_past_2_62_is_refused_by_its_order(capsys):
    assert main(["formula", "--name", "A_q(12,8;6)", "--q", str(3 ** 40)]) == 4
    assert capsys.readouterr().err == \
        f"cdckit: field order {3 ** 40} exceeds the supported word size\n"


@pytest.mark.parametrize("kind", ["subspace-count", "enumerate", "rank-distribution", "mrd-size"])
@pytest.mark.parametrize("q", ["1", "0", "-2", "6"])
def test_oracle_refuses_a_q_that_is_no_field(kind, q, capsys):
    # every counting kind checks --q as construct, bound and formula do: q = 1
    # divides by zero in no count, and q = 6 prints none
    assert main(["oracle", "--kind", kind, "--q", q, "--n", "4", "--k", "2",
                 "--m", "4", "--dr", "2", "--r", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cdckit: ") and err.count("\n") == 1

def test_construct_parametric_requires_k(capsys):
    assert main(["construct", "--recipe", "4k_2k_2k", "--q", "2"]) == 2
    assert main(["construct", "--recipe", "4k_2k_2k", "--q", "2",
                 "--k", "4"]) == 0


def test_verify_sample_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "c.cdc"
    main(["construct", "--recipe", "8_4_4", "--q", "2", "--out", str(out)])
    capsys.readouterr()
    code = main(["verify", "--file", str(out), "--mode", "sample",
                 "--pairs", "5000", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [] and report["min_distance_found"] == 4


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_verify_sample_needs_a_pair(tmp_path, capsys, pairs):
    # a sample of no pairs would report "ok" without checking anything
    out = tmp_path / "lm.cdc"
    from cdckit.cdc import lifted_mrd
    from cdckit.codefile import export
    export(lifted_mrd(2, 6, 3, 4), out)
    capsys.readouterr()
    assert main(["verify", "--file", str(out), "--mode", "sample", "--pairs", pairs]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and pairs in captured.err
    assert main(["verify", "--file", str(out), "--mode", "sample", "--pairs", "1"]) == 0


@pytest.mark.parametrize("seed", ["18446744073709551617", "-1"])
def test_verify_sample_seed_is_64_bits(tmp_path, capsys, seed):
    # the sampler reduces its seed mod 2^64: 2^64 + 1 would draw the pairs
    # of seed 1 and -1 those of 2^64 - 1, under a report naming another seed
    out = tmp_path / "lm.cdc"
    from cdckit.cdc import lifted_mrd
    from cdckit.codefile import export
    export(lifted_mrd(2, 6, 3, 4), out)
    capsys.readouterr()
    assert main(["verify", "--file", str(out), "--mode", "sample", "--pairs", "10",
                 "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cdckit: ")
    assert captured.err.count("\n") == 1 and seed in captured.err
    top = str(2 ** 64 - 1)
    assert main(["verify", "--file", str(out), "--mode", "sample", "--pairs", "10",
                 "--seed", top]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2 ** 64 - 1


def test_verify_full_small(tmp_path, capsys):
    out = tmp_path / "lm.cdc"
    from cdckit.cdc import lifted_mrd
    from cdckit.codefile import export
    export(lifted_mrd(2, 6, 3, 4), out)
    assert main(["verify", "--file", str(out), "--mode", "full"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_distance_found"] == 4


def test_verify_detects_violation(tmp_path, capsys):
    from cdckit.cdc import Cdc, lifted_mrd
    from cdckit.codefile import export
    from cdckit.subspace import distance
    lm = lifted_mrd(2, 6, 3, 4)
    words = lm.words()
    close = next(w for w in words[1:] if distance(words[0], w) == 4)
    bad = Cdc(lm.field, 6, 3, 6, words=[words[0], close])
    out = tmp_path / "bad.cdc"
    export(bad, out)
    assert main(["verify", "--file", str(out), "--mode", "full"]) == 1


def test_verify_full_flags_distance_below_an_odd_claim(tmp_path, capsys):
    # "#D=5" with a pair at distance 4: 4 < 5 is a violation for the full
    # check as for the sampled one
    from cdckit.cdc import Cdc, lifted_mrd
    from cdckit.codefile import export
    from cdckit.subspace import distance
    lm = lifted_mrd(2, 6, 3, 4)
    words = lm.words()
    close = next(w for w in words[1:] if distance(words[0], w) == 4)
    out = tmp_path / "d5.cdc"
    export(Cdc(lm.field, 6, 3, 5, words=[words[0], close]), out)
    assert "#D=5" in out.read_text()
    assert main(["verify", "--file", str(out), "--mode", "full"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["min_distance_found"] == 4
    assert [v["distance"] for v in report["violations"]] == [4]
    assert main(["verify", "--file", str(out), "--mode", "sample", "--pairs", "10"]) == 1


def test_verify_full_refuses_from_the_header(tmp_path, capsys):
    # a COUNT past the memory budget exits 4 before the body is read, here
    # over a one-line body; one within it goes on to read the body, which is
    # short (exit 3); --cap refuses by word count, also from the header
    import time
    line = "|".join("".join(str(int(j == i)) for j in range(12)) for i in range(6))
    f = tmp_path / "h.cdc"
    f.write_text(f"#Q=2\n#P=2\n#E=1\n#MOD=0,1\n#N=12\n#K=6\n#D=6\n#COUNT=16865629\n"
                 f"#ORDER=generation\n#PROV=header\n{line}\n")
    start = time.monotonic()
    assert main(["verify", "--file", str(f), "--mode", "full"]) == 4
    assert time.monotonic() - start < 0.5
    assert "memory budget" in capsys.readouterr().err
    assert main(["verify", "--file", str(f), "--mode", "sample"]) == 3
    f.write_text(f.read_text().replace("#D=6", "#D=8"))  # the budget of (12,8;6) codes
    assert main(["verify", "--file", str(f), "--mode", "full"]) == 3
    assert "header count 16865629" in capsys.readouterr().err
    assert main(["verify", "--file", str(f), "--mode", "full", "--cap", "1000"]) == 4
    assert "full-check cap 1000" in capsys.readouterr().err


def test_verify_corrupted_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.cdc"
    bad.write_text("#Q=2\nnot a code file\n")
    assert main(["verify", "--file", str(bad), "--mode", "full"]) == 3
    assert main(["verify", "--file", str(tmp_path / "missing.cdc"),
                 "--mode", "full"]) == 3


def test_bound_table_output(capsys):
    assert main(["bound", "--q", "2", "--n", "6", "--d", "4", "--k", "3"]) == 0
    text = capsys.readouterr().out
    assert "77" in text and "81" in text and "93" in text
    assert main(["bound", "--q", "2", "--n", "6", "--d", "4", "--k", "3",
                 "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,kind,value,derivation"


def test_formula_values(capsys):
    assert main(["formula", "--name", "A_q(12,6;6)", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "16865629"
    assert main(["formula", "--name", "A_q(12,4;4)_cor", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "19673822"
    assert main(["formula", "--name", "A_q(nope)", "--q", "2"]) == 2
    assert main(["formula", "--name", "A_q(4k,2k;2k)", "--q", "2",
                 "--k", "4"]) == 0


def test_import_export_roundtrip(tmp_path, capsys):
    src = tmp_path / "c.cdc"
    dst = tmp_path / "d.cdc"
    main(["construct", "--recipe", "8_4_4", "--q", "2", "--out", str(src)])
    capsys.readouterr()
    assert main(["import", "--file", str(src)]) == 0
    assert "4797" in capsys.readouterr().out
    assert main(["export", "--file", str(src), "--out", str(dst)]) == 0


def test_import_with_subcode_cli(tmp_path, capsys):
    from cdckit.cdc import lifted_mrd, partial_spread_subcode
    from cdckit.codefile import export
    c = lifted_mrd(2, 8, 4, 4)
    sub = partial_spread_subcode(c, "lmrd_nested")
    p1, p2 = tmp_path / "c.cdc", tmp_path / "s.cdc"
    export(c, p1)
    export(sub, p2)
    assert main(["import", "--file", str(p1), "--subcode", str(p2)]) == 0


@pytest.mark.parametrize("mod", ["1,1", "3,1"])
def test_import_refuses_a_gf2_modulus_other_than_x(tmp_path, capsys, mod):
    # GF(2) has the one modulus x: MOD=1,1 once built a GF(2) unequal to
    # field_new(2, 1), so a file's own copy failed as its subcode (exit 1),
    # and MOD=3,1 read as 1,1; both are header errors now (exit 3)
    import pathlib
    data = pathlib.Path(__file__).parent / "data" / "lmrd_2_6_3_4.cdc"
    copy = tmp_path / "m.cdc"
    copy.write_text(data.read_text().replace("#MOD=0,1", f"#MOD={mod}"))
    assert main(["import", "--file", str(data), "--subcode", str(copy)]) == 3
    assert f"modulus {mod} " in capsys.readouterr().err
    assert main(["import", "--file", str(copy)]) == 3
    assert f"modulus {mod} " in capsys.readouterr().err


def test_oracle_kinds(tmp_path, capsys):
    assert main(["oracle", "--kind", "subspace-count", "--q", "2",
                 "--n", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "35"
    assert main(["oracle", "--kind", "enumerate", "--q", "2",
                 "--n", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "35"
    assert main(["oracle", "--kind", "rank-distribution", "--q", "2",
                 "--n", "3", "--m", "3", "--dr", "2", "--r", "3"]) == 0
    assert capsys.readouterr().out.strip() == "14"
    from cdckit.cdc import spread
    from cdckit.codefile import export
    p = tmp_path / "sp.cdc"
    export(spread(2, 8, 4), p)
    assert main(["oracle", "--kind", "coverage", "--file", str(p)]) == 0


@pytest.mark.parametrize("kind", ["enumerate", "subspace-count"])
def test_oracle_huge_count_is_precondition(kind, capsys):
    # [20000, 2]_2 has about 12,000 digits: refused with a short message,
    # never formed into a string
    import time
    start = time.monotonic()
    assert main(["oracle", "--kind", kind, "--q", "2", "--n", "20000", "--k", "2"]) == 4
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("cdckit: ") and len(err) < 100


def test_oracle_count_at_the_digit_cap(capsys):
    # 2^14284 - 1 has 4,300 digits and prints; 2^14285 - 1 has 4,301
    from cdckit.cli import COUNT_DIGITS_CAP
    assert main(["oracle", "--kind", "subspace-count", "--q", "2", "--n", "14284",
                 "--k", "1"]) == 0
    assert len(capsys.readouterr().out.strip()) == COUNT_DIGITS_CAP == 4300
    assert main(["oracle", "--kind", "subspace-count", "--q", "2", "--n", "14285",
                 "--k", "1"]) == 4


@pytest.mark.parametrize("args", [
    ["--kind", "enumerate", "--n", "3", "--k", "5"],
    ["--kind", "enumerate", "--n", "3", "--k", "-1"],
    ["--kind", "subspace-count", "--n", "3", "--k", "5"],
    ["--kind", "subspace-count", "--n", "3", "--k", "-1"],
    ["--kind", "mrd-size", "--m", "3", "--n", "3", "--dr", "4"],
    ["--kind", "rank-distribution", "--m", "3", "--n", "3", "--dr", "2", "--r", "7"],
])
def test_oracle_out_of_range_parameters_are_usage_errors(args, capsys):
    # k > n, k < 0, d_r > min(m, n): one line on stderr, no traceback
    assert main(["oracle", "--q", "2", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cdckit: ") and err.count("\n") == 1


def test_coverage_past_its_cap_is_precondition(tmp_path, capsys):
    # one valid word of F_2^40: counting 2^40 vectors is refused, not tried
    import time
    p = tmp_path / "wide.cdc"
    p.write_text("#Q=2\n#P=2\n#E=1\n#MOD=0,1\n#N=40\n#K=1\n#D=2\n#COUNT=1\n"
                 "#ORDER=canonical\n#PROV=wide\n" + "1" + "0" * 39 + "\n")
    start = time.monotonic()
    assert main(["oracle", "--kind", "coverage", "--file", str(p)]) == 4
    assert time.monotonic() - start < 1.0
    assert "coverage cap" in capsys.readouterr().err


def test_stdout_streaming(tmp_path, capsys):
    assert main(["construct", "--recipe", "8_4_4", "--q", "2", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("#Q=2")
    assert "expected_size=4797" in captured.err


def _fails_cleanly(argv, exit_code, capsys):
    # the documented exit code within a second, one "cdckit:" line on stderr
    import time
    start = time.monotonic()
    assert main(argv) == exit_code
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("cdckit: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("argv", [
    ["bound", "--q", "1", "--n", "6", "--d", "4", "--k", "3"],      # q not a prime power
    ["bound", "--q", "2", "--n", "6", "--d", "4", "--k", "7"],      # k > n
    ["bound", "--q", "2", "--n", "3000", "--d", "4", "--k", "1500"],
    ["bound", "--q", "3", "--n", "400", "--d", "4", "--k", "200"],
    ["formula", "--name", "A_q(6k,2k;2k)", "--q", "2", "--k", "400"],
    ["construct", "--recipe", "6k_2k_2k", "--q", "2", "--k", "400"],
    ["formula", "--name", "A_q(8,4;4)", "--q", "1"],
], ids=["bound-q1", "bound-k-past-n", "bound-recursion", "bound-digits",
        "formula-digits", "construct-digits", "formula-q1"])
def test_hostile_counts_and_fields_are_preconditions(argv, capsys):
    # counts of over 4,300 digits are refused (the larger ones from their
    # exponent, before they are formed), as are q = 1 and k > n
    _fails_cleanly(argv, 4, capsys)


@pytest.mark.parametrize("argv", [
    ["formula", "--name", "A_q(4k,2k;2k)", "--q", "2", "--k", "2000"],
    ["formula", "--name", "A_q(4k,2k;2k)", "--q", "2", "--k", "8000"],
    ["construct", "--recipe", "6k_2k_2k", "--q", "2", "--k", "1000"],
    ["oracle", "--kind", "mrd-size", "--q", "2", "--m", "40000", "--n", "40000", "--dr", "1"],
    ["oracle", "--kind", "rank-distribution", "--q", "2", "--m", "3000", "--n", "3000",
     "--dr", "1", "--r", "3000"],
], ids=["formula-4k", "formula-4k-larger", "construct-6k", "mrd-size", "rank-distribution"])
def test_huge_counts_are_refused_from_their_exponent(argv, capsys):
    # each count is past the digit cap by a lower bound on its exponent, so it
    # is never formed (each ran for seconds to minutes when formed first)
    _fails_cleanly(argv, 4, capsys)


@pytest.mark.parametrize("argv", [
    ["--recipe", "12_8_6", "--q", "2", "--import", "base=F"],
    ["--recipe", "8_4_4", "--q", "2", "--import", "parallelism=F"],
    ["--recipe", "8_4_4", "--q", "2", "--k", "7"],
    ["--recipe", "9_4_3", "--q", "2", "--import", "nope=F"],
    ["--recipe", "9_4_3", "--q", "2", "--import", "base"],
], ids=["slot-of-no-recipe", "parallelism-slot", "stray-k", "unknown-slot", "no-path"])
def test_construct_arguments_follow_the_recipe_signature(argv, capsys):
    _fails_cleanly(["construct", *argv], 2, capsys)


def test_wrong_slot_is_refused_before_any_file_is_read(tmp_path, capsys):
    # a missing file would exit 3; the slot check comes first
    missing = str(tmp_path / "missing.cdc")
    err = _fails_cleanly(["construct", "--recipe", "10_4_3", "--q", "2",
                          "--import", f"seq_base={missing}",
                          "--import", f"parallelism={missing}"], 2, capsys)
    assert "base, base_subcode, seq_base" in err
    _fails_cleanly(["construct", "--recipe", "10_4_3", "--q", "2",
                    "--import", f"seq_base={missing}"], 3, capsys)


def test_formula_takes_k_exactly_when_its_polynomial_does(capsys):
    _fails_cleanly(["formula", "--name", "A_q(6k,2k;2k)", "--q", "2"], 2, capsys)
    _fails_cleanly(["formula", "--name", "A_q(4k,2k;2k)", "--q", "2", "--k", "5"], 4, capsys)
    assert main(["formula", "--name", "A_q(4k,2k;2k)", "--q", "4", "--k", "4"]) == 0
    from cdckit.constructions import size_4k_2k_2k
    assert capsys.readouterr().out == f"{size_4k_2k_2k(4, 4)}\n"


def test_readme_lists_each_recipes_arguments():
    # the README's recipe table says what construct reads from the signatures
    import inspect
    import pathlib
    import re
    from cdckit.constructions import RECIPES
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    listed = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[1] in ("required", "—"):
            for name in re.findall(r"`([^`]+)`", cells[0]):
                listed[name] = (cells[1] == "required", re.findall(r"`([^`]+)`", cells[2]))
    signatures = {name: inspect.signature(recipe).parameters for name, recipe in RECIPES.items()}
    assert listed == {name: ("k" in params, [p for p, v in params.items()
                                             if p != "k" and v.default is not v.empty])
                      for name, params in signatures.items()}


def test_construct_refuses_a_large_coset_addon_before_listing_it(capsys):
    # at q = 7 the (12, 6; 6) coset addon has 7^9 words: its size comes from
    # the handle sizes, so no coset word is listed before the refusal
    import time
    start = time.monotonic()
    assert main(["construct", "--recipe", "12_6_6", "--q", "7"]) == 4
    assert time.monotonic() - start < 2.0
    err = capsys.readouterr().err
    assert err == "cdckit: the addon has 40353607 words, past MATERIALIZE_CAP\n"


@pytest.mark.parametrize("where", ["header", "body"])
def test_non_ascii_byte_in_a_code_file_is_a_parse_failure(tmp_path, capsys, where):
    # a byte 0xE9 exits 3 with one line, from verify and from construct --import
    good = tmp_path / "c.cdc"
    assert main(["construct", "--recipe", "8_4_4", "--q", "2", "--out", str(good)]) == 0
    capsys.readouterr()
    data = good.read_bytes()
    at = data.index(b"#PROV=") + 6 if where == "header" else data.index(b"\n0") + 30
    bad = tmp_path / "bad.cdc"
    bad.write_bytes(data[:at] + b"\xe9" + data[at + 1:])
    err = _fails_cleanly(["verify", "--file", str(bad), "--mode", "sample", "--pairs", "10"],
                         3, capsys)
    assert "parse failure" in err and "\\xe9" in err
    _fails_cleanly(["construct", "--recipe", "9_4_3", "--q", "2", "--import", f"base={bad}"],
                   3, capsys)


@pytest.mark.parametrize("recipe, args", [
    ("3k_4_k", ["--k", "5", "--import", "base={d}/lm10.cdc"]),
    ("9_4_3", ["--import", "base={d}/lm6.cdc"]),
    ("10_4_3", ["--import", "base={d}/lm7.cdc", "--import", "seq_base={d}/lm6.cdc"]),
], ids=["3k_4_k", "9_4_3", "10_4_3"])
def test_construct_refuses_imports_over_another_field(recipe, args, tmp_path, capsys):
    # GF(2) imports into a q = 3 recipe: a q = 3 formula or duplication
    # over a GF(2) code is refused, not computed
    from cdckit.cdc import lifted_mrd
    from cdckit.codefile import export
    for n, k, d in [(6, 3, 4), (7, 3, 4), (10, 5, 10)]:
        export(lifted_mrd(2, n, k, d), tmp_path / f"lm{n}.cdc")
    argv = ["construct", "--recipe", recipe, "--q", "3", *(a.format(d=tmp_path) for a in args)]
    err = _fails_cleanly(argv, 4, capsys)
    assert "imported code is over GF(2), not GF(3)" in err


def test_construct_duplication_over_gf3_fails_cleanly(tmp_path, capsys):
    # a (6, 754; 3) code over GF(3) passes the import checks; the
    # duplication, implemented for q = 2, refuses it before its words are read
    from itertools import islice
    from cdckit.cdc import Cdc
    from cdckit.codefile import export
    from cdckit.gf import field_new
    from cdckit.verify import enumerate_subspaces
    f = tmp_path / "b3.cdc"
    export(Cdc(field_new(3, 1), 6, 3, 4, words=islice(enumerate_subspaces(3, 6, 3), 754)), f)
    err = _fails_cleanly(["construct", "--recipe", "9_4_3", "--q", "3", "--import", f"base={f}"],
                         4, capsys)
    assert "implemented for q = 2" in err
