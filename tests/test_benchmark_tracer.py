"""The benchmark's layer tracer (perfbench/tracing.py) wraps cdckit names
by attribute: a deleted or renamed function, method or class that it
patches fails here rather than in a traced benchmark run."""

import pathlib

import cdckit
import cdckit.cli  # noqa: F401  - the package does not import its command line

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_tracing_finds_every_name_it_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    tracer, raw = tracing.Tracer(run_id="tier1"), cdckit.linalg.rank_bits
    try:
        tracing.install_layer_tracing(tracer, cdckit)
        assert cdckit.linalg.rank_bits is not raw
    finally:
        tracer.restore()
    assert cdckit.linalg.rank_bits is raw
