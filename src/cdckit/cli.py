"""Command-line surface: construct recipes, verify code files, print
bounds and closed-form sizes, and import/export code files.

Exit codes: 0 ok, 1 verification violation, 2 usage, 3 I/O or parse
failure, 4 precondition not met.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import sys
from functools import cache

from . import bounds, codefile, constructions, verify
from .cdc import CdcError
from .constructions import ConstructionError, MissingImportError
from .gf import factor_prime_power
from .linalg import gaussian_binomial
from .rankmetric import mrd_size, rank_distribution

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PRECONDITION = 4

COUNT_DIGITS_CAP = 4300  # longest count printed; Python's default int-to-str limit
# most words construct --out writes (a few GB of text): every shipped q = 2 recipe
# and the 543,142-word q = 3 8_4_4 code fit, and a larger code is refused before
# its file is opened
WRITE_CAP = 10 ** 8


class _CliError(Exception):
    def __init__(self, exit_code, message):
        super().__init__(message)
        self.exit_code = exit_code


def _fail(exit_code, message):
    raise _CliError(exit_code, message)


def _count(value, what):
    # every count the CLI prints passes here, and exits 4 past COUNT_DIGITS_CAP digits
    if value >= 10 ** COUNT_DIGITS_CAP:
        raise verify.CapExceeded(f"{what} has over {COUNT_DIGITS_CAP} digits")
    return value


def _count_floor(e, what):
    # a count known to be at least 2^e is refused from e, before it is formed
    _count(1 << min(max(e, 0), 4 * COUNT_DIGITS_CAP), what)


def _family_floor(name, q, k, what):
    # the k-family of this formula or recipe name has a size of at least q^floor(k)
    for c in constructions.REGISTRY:
        if name in (c.formula, c.recipe) and c.floor:
            _count_floor(c.floor(k) * (q.bit_length() - 1), what)


def _check_q(q):
    # a factorization, not GF(q): building the field searches for a modulus
    try:
        factor_prime_power(q)
    except ValueError as exc:  # not p^e, or an order past 2^62
        _fail(EXIT_PRECONDITION, str(exc))


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def _recipe_kwargs(args, recipe):
    """The recipe's keyword arguments from --k and --import, checked against
    its signature before any file is read: --k exactly when it has a k
    without a default, and one import slot per other keyword parameter."""
    params = inspect.signature(recipe).parameters
    takes_k = "k" in params and params["k"].default is inspect.Parameter.empty
    if takes_k != (args.k is not None):
        _fail(EXIT_USAGE, f"recipe {args.recipe} {'requires' if takes_k else 'takes no'} --k")
    slots = [name for name, p in params.items()
             if name != "k" and p.default is not inspect.Parameter.empty]
    specs = [spec.partition("=") for spec in args.import_specs or []]
    for slot, sep, path in specs:
        if not path or slot not in slots:
            _fail(EXIT_USAGE, f"bad --import {slot + sep + path!r}; recipe {args.recipe} "
                              f"takes {', '.join(slots) or 'no imports'}")
    kwargs = {"k": args.k} if takes_k else {}
    for slot, _, path in specs:
        try:
            kwargs[slot] = codefile.import_code(path)
        except OSError as exc:
            _fail(EXIT_IO, f"cannot read import {path}: {exc}")
        except codefile.CodeFileError as exc:
            _fail(EXIT_IO, f"bad import file {path}: {exc}")
    return kwargs


def _write_out(code, out, note):
    if out == "-":
        return codefile.write_code(code, sys.stdout, prov=note)
    return codefile.export(code, out, prov=note)


def cmd_construct(args):
    recipe = constructions.RECIPES.get(args.recipe)
    if recipe is None:
        _fail(EXIT_USAGE, f"unknown recipe {args.recipe!r}; "
                          f"known: {sorted(constructions.RECIPES)}")
    kwargs = _recipe_kwargs(args, recipe)
    _check_q(args.q)
    _family_floor(args.recipe, args.q, args.k, "expected_size")
    try:
        code, expected = recipe(args.q, **kwargs)
    except MissingImportError as exc:
        _fail(EXIT_PRECONDITION, f"missing import: {exc}")
    except (ConstructionError, CdcError, ValueError) as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    _count(expected, "expected_size")
    summary = sys.stderr if args.out == "-" else sys.stdout
    if code is None:
        print(f"recipe {args.recipe} q={args.q}: closed-form size only, "
              f"expected_size={expected}", file=summary)
        if args.out:
            _fail(EXIT_PRECONDITION,
                  f"recipe {args.recipe} does not realize codewords; no file written")
        return EXIT_OK
    generated = code.size
    if args.out and generated > WRITE_CAP:
        _fail(EXIT_PRECONDITION, f"the code has {generated} words, past the write cap "
                                 f"{WRITE_CAP}; no file written")
    if args.out:
        try:
            generated = _write_out(code, args.out, f"recipe_{args.recipe}")
        except OSError as exc:
            _fail(EXIT_IO, str(exc))
    status = "ok" if generated == expected else "MISMATCH"
    print(f"recipe {args.recipe} q={args.q}: expected_size={expected} "
          f"generated={generated} {status}", file=summary)
    return EXIT_OK if status == "ok" else EXIT_VIOLATION


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _import_or_fail(path, read=None):  # import_code is looked up per call
    try:
        return (read or codefile.import_code)(path)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    except codefile.CodeFileError as exc:
        _fail(EXIT_IO, f"parse failure: {exc}")


def cmd_verify(args):
    if args.mode == "sample" and args.pairs < 1:  # a sample of no pairs checks nothing
        _fail(EXIT_USAGE, f"--pairs must be at least 1, not {args.pairs}")
    if args.mode == "sample" and not 0 <= args.seed < 1 << 64:  # the sampler's state is 64 bits
        _fail(EXIT_USAGE, f"--seed must be in [0, 2^64), not {args.seed}")
    if args.mode == "full":  # refused from the header, before the body is read
        meta = _import_or_fail(args.file, codefile.read_header)
        verify.refuse_past_budget(meta["field"], meta["n"], meta["k"], meta["d"], meta["count"],
                                  args.cap)
    code = _import_or_fail(args.file)
    if args.mode == "full":
        report = verify.full_pairwise_check(code, cap=args.cap)
    else:
        report = verify.sampled_check(code, args.pairs, seed=args.seed)
    print(report.to_json())
    return EXIT_OK if report.ok else EXIT_VIOLATION


# ----------------------------------------------------------------------
# bound / formula
# ----------------------------------------------------------------------

def cmd_bound(args):
    q, n, d, k = args.q, args.n, args.d, args.k
    _check_q(q)
    # the Singleton-like row, there when d <= 2k for k <= n/2, is at least
    # q^(t(n - k)) >= 2^e with t = k - d/2 + 1
    k_low = min(k, n - k)
    e = max(k_low - d // 2 + 1, 0) * (n - k_low) * (q.bit_length() - 1)
    _count_floor(e, f"the Singleton-like bound on A_{q}({n},{d};{k})")
    try:
        rows = bounds.bound_table(q, n, d, k)
    except bounds.BoundError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    _count(max((b.value for _, b in rows), default=0), "a bound")  # guards every row
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "kind", "value", "derivation"])
        for name, b in rows:
            writer.writerow([name, b.kind, b.value, " -> ".join(b.derivation)])
    else:
        print(f"bounds for q={q} n={n} d={d} k={k}")
        for name, b in rows:
            print(f"  {name:<13} {b.kind:<6} {b.value}")
            for step in b.derivation:
                print(f"      {step}")
    return EXIT_OK


def cmd_formula(args):
    fn = constructions.FORMULAS.get(args.name)
    if fn is None:
        _fail(EXIT_USAGE, f"unknown formula {args.name!r}; "
                          f"known: {sorted(constructions.FORMULAS)}")
    takes_k = "k" in inspect.signature(fn).parameters
    if takes_k and args.k is None:
        _fail(EXIT_USAGE, f"formula {args.name} requires --k")
    _check_q(args.q)
    _family_floor(args.name, args.q, args.k, args.name)
    try:
        value = fn(args.q, args.k) if takes_k else fn(args.q)
    except ValueError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    print(_count(value, args.name))
    return EXIT_OK


# ----------------------------------------------------------------------
# import / export / oracle
# ----------------------------------------------------------------------

def cmd_import(args):
    if args.subcode:
        try:
            code, sub = codefile.import_with_subcode(args.file, args.subcode)
        except codefile.SubcodeError as exc:
            _fail(EXIT_VIOLATION, str(exc))
        except OSError as exc:
            _fail(EXIT_IO, str(exc))
        except codefile.CodeFileError as exc:
            _fail(EXIT_IO, f"parse failure: {exc}")
        print(f"{code!r} with verified subcode of size {sub.size}")
    else:
        code = _import_or_fail(args.file)
        print(repr(code))
    return EXIT_OK


def cmd_export(args):
    code = _import_or_fail(args.file)
    try:
        n = _write_out(code, args.out, code.provenance.get("kind", "unknown"))
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    summary = sys.stderr if args.out == "-" else sys.stdout
    print(f"wrote {n} codewords", file=summary)
    return EXIT_OK


def cmd_oracle(args):
    if args.kind == "coverage":
        if not args.file:
            _fail(EXIT_USAGE, "coverage needs --file")
        code = _import_or_fail(args.file)
        report = verify.coverage_check(code)
        print(report)
        return EXIT_OK if report["ok"] else EXIT_VIOLATION
    _check_q(args.q)
    bits = args.q.bit_length() - 1  # q >= 2^bits: q^e >= 2^(e bits)
    try:
        if args.kind == "subspace-count":
            what = f"[{args.n},{args.k}]_{args.q}"  # at least q^(k(n - k))
            _count_floor(args.k * (args.n - args.k) * bits, what)
            print(_count(gaussian_binomial(args.n, args.k, args.q), what))
        elif args.kind == "enumerate":
            print(_count(sum(1 for _ in verify.enumerate_subspaces(args.q, args.n, args.k)),
                         "the subspace count"))
        elif args.kind == "rank-distribution":
            if None in (args.m, args.dr, args.r):
                _fail(EXIT_USAGE, "rank-distribution needs --m --dr --r")
            lo, hi, r = min(args.m, args.n), max(args.m, args.n), args.r
            # A_r >= [lo, r]_q (q^(hi x) - 1) >= q^(r(lo - r) + hi x - 1), x = max(r - d_r, 1):
            # exact at r = d_r, and above it the alternating sum's terms decrease
            if 1 <= args.dr <= r <= lo:
                _count_floor((r * (lo - r) + hi * max(r - args.dr, 1) - 1) * bits,
                             "the rank distribution")
            print(_count(rank_distribution(args.q, args.m, args.n, args.dr, r),
                         "the rank distribution"))
        elif args.kind == "mrd-size":
            if None in (args.m, args.dr):
                _fail(EXIT_USAGE, "mrd-size needs --m --dr")
            lo, hi = min(args.m, args.n), max(args.m, args.n)
            if 1 <= args.dr <= lo:  # the size is q^(hi(lo - d_r + 1))
                _count_floor(hi * (lo - args.dr + 1) * bits, "the MRD size")
            print(_count(mrd_size(args.q, args.m, args.n, args.dr), "the MRD size"))
    except ValueError as exc:  # a count past its cap, or k > n, d_r > min(m, n), ...
        _fail(EXIT_PRECONDITION if isinstance(exc, verify.CapExceeded) else EXIT_USAGE, str(exc))
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

@cache  # argparse parsers are reusable, and building one costs about 2 ms
def build_parser():
    p = argparse.ArgumentParser(prog="cdckit",
                                description="constant-dimension subspace code toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named recipe")
    c.add_argument("--recipe", required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int)
    c.add_argument("--import", dest="import_specs", action="append",
                   metavar="SLOT=PATH")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="check a code file's minimum distance")
    v.add_argument("--file", required=True)
    v.add_argument("--mode", choices=("full", "sample"), default="full")
    v.add_argument("--pairs", type=int, default=10 ** 5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cap", type=int, help="refuse a full check past this many words, "
                   "as well as one past the check's memory budget")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bound", help="print all applicable bounds")
    for flag in ("--q", "--n", "--d", "--k"):
        b.add_argument(flag, type=int, required=True)
    b.add_argument("--csv", action="store_true")
    b.set_defaults(fn=cmd_bound)

    f = sub.add_parser("formula", help="evaluate a closed-form size")
    f.add_argument("--name", required=True)
    f.add_argument("--q", type=int, required=True)
    f.add_argument("--k", type=int)
    f.set_defaults(fn=cmd_formula)

    i = sub.add_parser("import", help="validate a code file")
    i.add_argument("--file", required=True)
    i.add_argument("--subcode")
    i.set_defaults(fn=cmd_import)

    e = sub.add_parser("export", help="rewrite a code file canonically")
    e.add_argument("--file", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)

    o = sub.add_parser("oracle", help="brute-force counting oracles")
    o.add_argument("--kind", required=True,
                   choices=("subspace-count", "enumerate", "rank-distribution",
                            "mrd-size", "coverage"))
    o.add_argument("--q", type=int, default=2)
    o.add_argument("--n", type=int, default=0)
    o.add_argument("--k", type=int, default=0)
    o.add_argument("--m", type=int)
    o.add_argument("--dr", type=int)
    o.add_argument("--r", type=int)
    o.add_argument("--file")
    o.set_defaults(fn=cmd_oracle)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except verify.CapExceeded as exc:  # a size past a verification cap, in any command
        print(f"cdckit: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _CliError as exc:
        print(f"cdckit: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
