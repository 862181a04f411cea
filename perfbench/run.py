"""cdckit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cdckit is imported from ./src.
With --trace 0 the runner measures passes of the workload for S seconds
(at least one pass) and prints every end-to-end metric; a metric's value
is the median of its samples in the run, with times scaled to the
reference speed of speed.py (the medians as timed are printed too).  With --trace 1 it runs
one pass with every layer wrapped and prints the per-layer metrics of
that pass; the tracing overhead is its time minus the time of one
untraced pass run in a fresh process.  The last line of
standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process generates the load: keep native libraries single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 120

# set-up in a fresh interpreter: the cdckit import plus the recipe call; the
# speed reference runs after it, so that its numpy import is not saved
# from the timed cdckit import
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cdckit.constructions import RECIPES
code, expected = RECIPES[sys.argv[2]](2)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import speed
factor = speed.REFERENCE_S / speed.reference_seconds()
print(repr(t1 - t0), repr(factor), code.size if code is not None else -1, expected)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cdckit():
    """cdckit from this checkout's src/, never from an installed copy."""
    init = SRC / "cdckit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no cdckit sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import cdckit
    import cdckit.cli  # the package does not import its command line
    if Path(cdckit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported cdckit from {cdckit.__file__}")
    return cdckit


def source_commit():
    """The checkout's git commit when it is a git work tree, read from
    .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "cdckit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": source_commit(),
            "src_sha256": source_digest(), "seed": seed,
            "platform": platform.platform()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv):
    """Run an interpreter to completion; a child past the timeout is killed
    and reported as failed (exit code None)."""
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(argv, None, exc.stdout or "", exc.stderr or "")


def measure_setup(bench, gate):
    """Set-up time in fresh interpreters, run one after another; adds one
    setup_s sample per interpreter."""
    for _ in range(SETUP_PROCESSES):
        proc = run_child([sys.executable, "-c", SETUP_CHILD, str(SRC), bench.w.recipe,
                          str(HERE)])
        ok = proc.returncode == 0
        if ok:
            secs, factor, size, expected = proc.stdout.split()
            bench.add_sample("setup_s", None, float(secs), float(factor))
            ok = int(size) == int(expected) == bench.w.size
        gate.check(ok, f"set-up process: exit {proc.returncode}, {proc.stdout.strip()!r} "
                       f"{proc.stderr.strip()[-200:]!r}")


def timed_run(cdckit, bench, seconds):
    import tracing
    # the stage timers keep every span: a few per pass
    tracer = tracing.Tracer(run_id=f"{bench.w.name}-{bench.seed}-{os.getpid()}",
                            span_cap=10 ** 6)
    tracing.install_stage_timers(tracer, cdckit)
    start = time.perf_counter()
    try:
        while True:
            bench.run_pass(tracer)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.restore()
    bench.check_sampled_determinism()
    return {name: statistics.median(vals) for name, vals in bench.samples.items()}


def untraced_pass_seconds(workload, seed, gate):
    """total_s of a single untraced pass in a fresh process, the baseline
    the traced pass (also the first of its process) is compared with."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
            "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    proc = run_child(argv)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds = result["metrics"]["total_s"]["value"]
        ok = proc.returncode == 0 and result["correct"]
    except (IndexError, KeyError, ValueError):
        seconds, ok = None, False
    gate.check(ok, f"untraced baseline run: exit {proc.returncode} "
                   f"{proc.stderr.strip()[-200:]!r}")
    return seconds


def traced_run(cdckit, bench, out_dir, env):
    import tracing
    untraced = untraced_pass_seconds(bench.w, bench.seed, bench.gate)
    tracer = tracing.Tracer(run_id=f"{bench.w.name}-{bench.seed}-{os.getpid()}")
    tracing.install_layer_tracing(tracer, cdckit)
    bench.sample_speed = False
    try:
        traced = bench.run_pass(tracer)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer, traced, untraced)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"trace-{bench.w.name}-seed{bench.seed}.json",
                {"workload": bench.w.name, "env": env, "metrics": metrics})
    bench.check_sampled_determinism()
    return metrics


def main(argv=None):
    args = parse_args(argv)
    cdckit = import_cdckit()
    from gate import Gate
    from workloads import END_TO_END, WORKLOADS, Bench
    import tracing
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    env = environment(args.seed)
    gate = Gate()
    tmp = ROOT / ".perfbench_tmp" / f"{workload.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    bench = Bench(cdckit, workload, args.seed, tmp, gate)
    try:
        raw = {}
        if args.trace:
            values = traced_run(cdckit, bench, ROOT / ".perfbench_out", env)
            units = tracing.PER_LAYER_UNITS
        else:
            measure_setup(bench, gate)
            values = timed_run(cdckit, bench, args.seconds)
            values["peak_rss_mb"] = peak_rss_mb()
            raw = {name: statistics.median(vals) for name, vals in bench.raw.items()}
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    missing = [name for name in units if values.get(name) is None]
    gate.check(not missing, f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if values.get(name) is not None}
    print(json.dumps({"workload": workload.name, "env": env,
                      "passes": len(bench.samples["total_s"]), "raw_medians": raw,
                      "samples": bench.samples}))
    for name, m in metrics.items():
        print(f"{workload.name:<18} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload.name:<18} {'fail_ratio':<40} {gate.fail_ratio:>16.6g} "
          f"ratio ({gate.failed}/{gate.attempted} checks)")
    for what in gate.failures:
        print(f"FAILED CHECK: {what}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
