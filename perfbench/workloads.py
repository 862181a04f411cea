"""The four workloads and the stages of one pass.

The main stages of a workload (see README.md) carry most of its time.
The control stages are small; they exist so that every end-to-end metric
is measured on every workload, and run `control_reps` times per pass so
that a one- or two-pass run still has several samples of them.  Timed
regions hold only calls into cdckit; the output checks and the speed
reference runs (speed.py) sit between them.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import speed
from gate import report_dict, without_wall_time

# metric name -> unit; the runner prints these, in this order
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "export_words_per_s": "words/s",
    "import_words_per_s": "words/s",
    "full_pairs_per_s": "pairs/s",
    "sample_pairs_per_s": "pairs/s",
    "stream_words_per_s": "words/s",
    "first_access_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    size: int               # published size of the code (size polynomial at q = 2)
    d: int                  # claimed minimum distance
    cli_verify: str | None  # CLI path: verify mode run on the constructed file
    cli_sample_pairs: int   # CLI path: pairs of the sampled verify
    controls: tuple         # control stages: "first_access", "stream", "full", "io"
    control_reps: int       # runs of each control stage per pass
    stream_words: int       # words streamed from iter_packed (0: the whole code)
    sample_pairs: int       # library path: pairs of sampled_check (0: stage skipped)
    full_words: int         # prefix exhaustively checked (0: stage skipped)
    io_words: int           # prefix exported and imported (0: stage skipped)
    file_sha256: str        # the exported code file (CLI) or prefix file (library)


ACCESSES = 4096  # random accesses timed on a code object nobody has read yet

WORKLOADS = {w.name: w for w in (
    Workload("certify_8_4_4", "8_4_4", 4797, 4, cli_verify="full",
             cli_sample_pairs=20000, controls=("first_access", "stream"),
             control_reps=2, stream_words=0, sample_pairs=0, full_words=0, io_words=0,
             file_sha256="28d1e6782f784fcb9a4b6934476dcecc21b20dc6545cafee980afdebe7060f09"),
    Workload("stream_12_4_4", "12_4_4_thm", 19660413, 4, cli_verify=None,
             cli_sample_pairs=0, controls=("full", "io"),
             control_reps=2, stream_words=300000, sample_pairs=30000,
             full_words=3000, io_words=16384,
             file_sha256="afa1e54f3172b4b01927da8ee2873fd878084212351e411aaad6c2a41718b003"),
    Workload("roundtrip_12_8_6", "12_8_6", 262165, 8, cli_verify="sample",
             cli_sample_pairs=10 ** 5, controls=("first_access", "stream", "full"),
             control_reps=3, stream_words=0, sample_pairs=0, full_words=3000, io_words=0,
             file_sha256="b28677b42943d971be0faa877e30a2579ba2e8b5d129c81299e86c59ce5873a1"),
    Workload("cold_10_4_5", "10_4_5", 1178312, 4, cli_verify=None,
             cli_sample_pairs=0, controls=("full", "io"), control_reps=3,
             stream_words=0, sample_pairs=30000, full_words=4000, io_words=16384,
             file_sha256="91db13714409e5572f758c28e7e95949c3d4a8bf0da82b5875fa739a58a7c111"),
)}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Bench:
    """One workload in one process: runs passes, collects samples, feeds
    the gate.  The tracer handed to run_pass holds at least the stage
    timers of tracing.install_stage_timers."""

    def __init__(self, cdckit, workload: Workload, seed: int, tmp, gate):
        self.ck = cdckit
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.gate = gate
        self.samples = defaultdict(list)  # metric -> values at the reference speed
        self.raw = defaultdict(list)      # metric -> values as timed
        self.tracer = None
        self.sample_speed = True  # speed.Meter samples inside stages
        self.pass_total = 0.0
        self.pass_raw = 0.0
        self.sample_reports = []

    # -- timing helpers ------------------------------------------------

    def timed(self, stage):
        """Times a stage with a speed.Meter: `seconds` is scaled to the
        reference speed, `raw_seconds` is as measured."""
        bench = self

        class _Timed(speed.Meter):
            def __enter__(self):
                self.span = bench.tracer.span(f"stage.{stage}")
                self.span.__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                super().__exit__(*exc)
                self.span.__exit__(*exc)
                bench.pass_total += self.seconds
                bench.pass_raw += self.raw_seconds
                return False

        return _Timed(sample_inside=self.sample_speed)

    def add_sample(self, metric, work, raw_seconds, factor):
        """One sample: a rate when work is given, else a time."""
        if work is None:
            self.samples[metric].append(raw_seconds * factor)
            self.raw[metric].append(raw_seconds)
        else:
            self.samples[metric].append(work / (raw_seconds * factor))
            self.raw[metric].append(work / raw_seconds)

    def cli(self, argv):
        """Run cdckit.cli.main in-process; returns (exit code, stdout, probe
        readings {name: (calls, raw seconds, items, factor)}) for the stage
        timers of tracing.install_stage_timers."""
        names = ("codefile.write", "codefile.read", "verify.full", "verify.sample")
        items_before = {n: self.tracer.totals(n)[3] for n in names}
        out, err = io.StringIO(), io.StringIO()
        with self.timed(f"cli.{argv[0]}") as t:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.ck.cli.main(argv)
        self.gate.exit_code(rc, argv)
        readings = {}
        for n in names:
            spans = [(a, b) for (_id, name, a, b, _p) in self.tracer.spans
                     if name == n and a >= t.t0]
            seconds = sum(b - a - t.reference_time_within(a, b) for a, b in spans)
            factor = t.factor_within(spans[0][0], spans[-1][1]) if spans else t.factor
            readings[n] = (len(spans), seconds, self.tracer.totals(n)[3] - items_before[n],
                           factor)
        return rc, out.getvalue(), readings

    # -- one pass ------------------------------------------------------

    def run_pass(self, tracer):
        """Runs every stage with `tracer` installed; returns the pass time
        (the sum of the timed stages)."""
        self.tracer = tracer
        self.pass_total = self.pass_raw = 0.0
        rng = random.Random(self.seed)  # every pass of a run uses the same inputs
        w = self.w
        if w.cli_verify:
            self._cli_stages()
        code = self._build()
        self._first_access(code, rng, self._reps("first_access"))
        self._stream(code, rng, self._reps("stream"))
        if w.sample_pairs:
            self._sample(code)
        if w.full_words or w.io_words:
            self._prefix_stages(code)
        self.add_sample("total_s", None, self.pass_raw, self.pass_total / self.pass_raw)
        return self.pass_total

    def _reps(self, stage):
        return self.w.control_reps if stage in self.w.controls else 1

    def _cli_stages(self):
        w, g = self.w, self.gate
        f = str(self.tmp / "code.cdc")
        rc, out, dl = self.cli(["construct", "--recipe", w.recipe, "--q", "2", "--out", f])
        g.check(f"generated={w.size} ok" in out and f"expected_size={w.size}" in out,
                f"construct summary: {out.strip()!r}")
        self._rate("export_words_per_s", w.size, dl["codefile.write"])
        file_sha = sha256_file(f)
        g.same(file_sha, w.file_sha256, f"sha256 of the {w.recipe} code file")

        rc, out, dl = self.cli(["verify", "--file", f, "--mode", w.cli_verify]
                               + (["--pairs", str(w.cli_sample_pairs), "--seed", str(self.seed)]
                                  if w.cli_verify == "sample" else []))
        self._rate("import_words_per_s", w.size, dl["codefile.read"])
        report = report_dict(out.strip().splitlines()[-1]) if rc in (0, 1) else None
        if w.cli_verify == "full":
            self._rate("full_pairs_per_s", dl["verify.full"][2], dl["verify.full"])
            g.check(report and report["pairs_checked"] == w.size * (w.size - 1) // 2,
                    "full check covered every pair")
            g.distance(report, w.d, exact=w.d)
            # a second file written by `export` must be the same bytes
            g2 = str(self.tmp / "export.cdc")
            rc, out, dl = self.cli(["export", "--file", f, "--out", g2])
            self._rate("import_words_per_s", w.size, dl["codefile.read"])
            self._rate("export_words_per_s", w.size, dl["codefile.write"])
            g.same(sha256_file(g2), file_sha, "canonical re-export is byte-identical")
            rc, out, dl = self.cli(["verify", "--file", f, "--mode", "sample", "--pairs",
                                    str(w.cli_sample_pairs), "--seed", str(self.seed)])
            self._rate("import_words_per_s", w.size, dl["codefile.read"])
            report = report_dict(out.strip().splitlines()[-1]) if rc in (0, 1) else None
        self._rate("sample_pairs_per_s", dl["verify.sample"][2], dl["verify.sample"])
        g.check(report and report["pairs_checked"] == w.cli_sample_pairs,
                "sampled pair count")
        g.distance(report, w.d)
        self.sample_reports.append(report)

    def _build(self):
        with self.timed("build"):
            code, expected = self.ck.constructions.RECIPES[self.w.recipe](2)
        self.gate.size(code, expected, self.w.size)
        return code

    def _first_access(self, code, rng, reps):
        """Random accesses on a code object nobody has read yet; the first
        one lands in the last sixteenth of the code, where linkage keeps
        its rank-filtered block.  Each repetition builds a fresh code."""
        n = code.size
        idx = [n - 1 - rng.randrange(max(1, n // 16))]
        idx += [rng.randrange(n) for _ in range(ACCESSES - 1)]
        for r in range(reps):
            if r:
                code, expected = self.ck.constructions.RECIPES[self.w.recipe](2)
                self.gate.size(code, expected, self.w.size)
            words = []
            with self.timed("first_access") as t:
                for i in idx:
                    words.append(code.packed_at(i))
            self.add_sample("first_access_s", None, t.raw_seconds, t.factor)
            self.gate.check(all(len(wd) == code.k for wd in words),
                            "random access returned k-row words")

    def _stream(self, code, rng, reps):
        n = self.w.stream_words or code.size
        spots = sorted(rng.sample(range(n), 16))
        for _ in range(reps):
            seen = {}
            nxt = spots[0]
            k = 0
            count = 0
            with self.timed("stream") as t:
                for i, word in enumerate(code.iter_packed()):
                    if i == nxt:
                        seen[i] = tuple(word)
                        k += 1
                        nxt = spots[k] if k < len(spots) else -1
                    count = i + 1
                    if count == n:
                        break
            self.add_sample("stream_words_per_s", count, t.raw_seconds, t.factor)
            self.gate.check(count == n, f"streamed {count} of {n} words")
            self.gate.check(all(seen.get(i) == tuple(code.packed_at(i)) for i in spots),
                            "streamed words at spot indices equal packed_at(i)")

    def _sample(self, code):
        w = self.w
        with self.timed("sample") as t:
            rep = self.ck.verify.sampled_check(code, w.sample_pairs, seed=self.seed)
        self.add_sample("sample_pairs_per_s", rep.pairs_checked, t.raw_seconds, t.factor)
        report = report_dict(rep)
        self.gate.check(report["pairs_checked"] == w.sample_pairs, "sampled pair count")
        self.gate.distance(report, w.d)
        self.sample_reports.append(report)

    def _prefix_stages(self, code):
        """Exhaustive check, export and import of a prefix sub-code (a
        subset of a code keeps its distance)."""
        ck, w, g = self.ck, self.w, self.gate
        m = max(w.full_words, w.io_words)
        words = [code.at(i) for i in range(m)]
        if w.full_words:
            sub = ck.cdc.Cdc(code.field, code.n, code.k, code.d_claim,
                             words=words[:w.full_words], provenance={"kind": "prefix"})
            for _ in range(self._reps("full")):
                with self.timed("full") as t:
                    rep = ck.verify.full_pairwise_check(sub)
                self.add_sample("full_pairs_per_s", rep.pairs_checked, t.raw_seconds, t.factor)
                report = report_dict(rep)
                g.check(report["pairs_checked"] == w.full_words * (w.full_words - 1) // 2,
                        "prefix full check covered every pair")
                g.distance(report, w.d)
        if w.io_words:
            sub = ck.cdc.Cdc(code.field, code.n, code.k, code.d_claim,
                             words=words[:w.io_words], provenance={"kind": "prefix"})
            exported = {x.gen.rows for x in words[:w.io_words]}
            f = self.tmp / "prefix.cdc"
            for _ in range(self._reps("io")):
                with self.timed("export") as t:
                    ck.codefile.export(sub, f)
                self.add_sample("export_words_per_s", w.io_words, t.raw_seconds, t.factor)
                g.same(sha256_file(f), w.file_sha256, "sha256 of the prefix code file")
                with self.timed("import") as t:
                    back = ck.codefile.import_code(f)
                self.add_sample("import_words_per_s", w.io_words, t.raw_seconds, t.factor)
                g.check(back.size == w.io_words
                        and {x.gen.rows for x in back.words()} == exported,
                        "imported prefix holds the exported words")

    def _rate(self, metric, work, delta):
        calls, seconds, _items, factor = delta
        if self.gate.check(calls == 1 and seconds > 0, f"{metric}: one timed call"):
            self.add_sample(metric, work, seconds, factor)

    # -- checks across passes --------------------------------------------

    def check_sampled_determinism(self):
        """The sampled report minus wall_time is the same for a fixed seed.
        With a single pass the latest sampled check runs once more."""
        reports = [without_wall_time(r) for r in self.sample_reports if r]
        if len(reports) < 2:
            args, kwargs = self.tracer.last_args.pop("verify.sample")
            reports.append(without_wall_time(report_dict(
                self.ck.verify.sampled_check(*args, **kwargs))))
        self.gate.check(all(r == reports[0] for r in reports[1:]),
                        "sampled report is identical for a fixed seed")

