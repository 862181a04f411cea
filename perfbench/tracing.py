"""Call tracing from outside the package: wrap public functions of cdckit's
modules, keep spans and counts in memory, write them when the run ends.

Each wrapped callable belongs to one layer (the cdckit module that defines
it) and carries a metric name such as ``linalg.rank_bits``.  A call that
re-enters the name it is already inside (``RankFilteredHandle.packed_at``
calling ``GabidulinHandle.packed_at``) is folded into the outer span, so
counts are calls into a name from outside it.  Generator functions are
timed per ``next()`` and count the items they yield.

Self time of a name is its time minus the time of the traced calls made
inside it.  Counts and times are aggregated per (name, parent name) pair;
individual spans are kept only up to ``span_cap`` per name, because hot
kernels are called millions of times.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("gf", "linalg", "subspace", "rankmetric", "cdc", "constructions",
          "verify", "codefile", "cli")

ROOT = "<root>"

# per-layer metric name -> unit, in print order
PER_LAYER_UNITS = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
PER_LAYER_UNITS.update({
    "rankmetric.enum.words": "count", "rankmetric.enum.self_s": "s",
    "rankmetric.packed_at.calls": "count", "rankmetric.packed_at.self_s": "s",
    "rankmetric.rows_at.calls": "count", "rankmetric.rows_at.self_s": "s",
    "rankmetric.rank_filter_scan.words": "count",
    "rankmetric.rank_filter_scan.self_s": "s",
    "rankmetric.rank_filter_scan.total_s": "s",
    "gf.ext_ops.calls": "count", "gf.ext_ops.self_s": "s",
    "linalg.rank_bits.calls": "count", "linalg.rank_bits.self_s": "s",
    "linalg.rref_bits.calls": "count", "linalg.rref_bits.self_s": "s",
    "subspace.parse.calls": "count", "subspace.parse.self_s": "s",
    "subspace.serialize.calls": "count", "subspace.serialize.self_s": "s",
    "cdc.init.calls": "count", "cdc.init.self_s": "s",
    "constructions.build.calls": "count", "constructions.build.self_s": "s",
    "constructions.stream.words": "count", "constructions.stream.self_s": "s",
    "constructions.packed_at.calls": "count", "constructions.packed_at.self_s": "s",
    "verify.full.pairs": "count", "verify.full.self_s": "s",
    "verify.sample.pairs": "count", "verify.sample.self_s": "s",
    "verify.sampler.self_s": "s", "verify.fetch_hit_ratio": "ratio",
    "codefile.write.bytes": "bytes", "codefile.write.self_s": "s",
    "codefile.read.bytes": "bytes", "codefile.read.self_s": "s",
    "trace.traced_total_s": "s", "trace.untraced_total_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    def __init__(self, run_id: str, span_cap: int = 256):
        self.run_id = run_id
        self.span_cap = span_cap
        # frame: [name, child_seconds, span_id or None]
        self.stack = [[ROOT, 0.0, 0]]
        self.stats = {}  # (name, parent) -> [calls, seconds, child_seconds, items]
        self.spans = []  # (id, name, start, end, parent_id)
        self._span_counts = {}
        self._next_id = 1
        self._patches = []
        self.last_args = {}  # name -> (args, kwargs) of its latest call

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1]
        span_id = None
        if parent[2] is not None:
            n = self._span_counts.get(name, 0)
            if n < self.span_cap:
                self._span_counts[name] = n + 1
                span_id = self._next_id
                self._next_id += 1
        frame = [name, 0.0, span_id]
        self.stack.append(frame)
        return parent, frame

    def _exit(self, name, parent, frame, t0, t1, items):
        self.stack.pop()
        elapsed = t1 - t0
        parent[1] += elapsed
        key = (name, parent[0])
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += elapsed
        st[2] += frame[1]
        st[3] += items
        if frame[2] is not None:
            self.spans.append((frame[2], name, t0, t1, parent[2]))

    def span(self, name):
        """Context manager for a runner stage (always recorded)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.parent, self.frame = tracer._enter(name)
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                tracer._exit(name, self.parent, self.frame, self.t0,
                             time.perf_counter(), 0)
                return False

        return _Span()

    def wrap(self, fn, name, items_fn=None, keep_args=False):
        """Traced replacement for fn; items_fn(args, kwargs, result) counts
        work for plain functions, generators count their yields.  With
        keep_args the arguments of the latest call stay in last_args."""
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if stack[-1][0] == name:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    parent, frame = tracer._enter(name)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(name, parent, frame, t0, clock(), 0)
                        return
                    except BaseException:
                        tracer._exit(name, parent, frame, t0, clock(), 0)
                        raise
                    tracer._exit(name, parent, frame, t0, clock(), 1)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            if keep_args:
                tracer.last_args[name] = (args, kwargs)
            parent, frame = tracer._enter(name)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                items = items_fn(args, kwargs, result) if items_fn and result is not None else 0
                tracer._exit(name, parent, frame, t0, t1, items)

        return traced

    # -- patching ------------------------------------------------------

    def patch_function(self, owners, fn, name, items_fn=None, keep_args=False):
        """Rebind fn wherever an owner (a module or a dict) holds it."""
        wrapped = self.wrap(fn, name, items_fn, keep_args)
        for owner in owners:
            names = owner if isinstance(owner, dict) else vars(owner)
            for attr, value in list(names.items()):
                if value is fn:
                    self._patches.append((owner, attr, value))
                    _assign(owner, attr, wrapped)
        return wrapped

    def patch_method(self, cls, attr, name, items_fn=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, items_fn))
        else:
            new = self.wrap(raw, name, items_fn)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            _assign(owner, attr, value)
        self._patches.clear()

    # -- reading -------------------------------------------------------

    def totals(self, name, parent=None):
        """(calls, seconds, self_seconds, items) summed over parents, or for
        one parent name."""
        calls = items = 0
        secs = self_secs = 0.0
        for (n, p), (c, s, child, it) in self.stats.items():
            if n == name and (parent is None or p == parent):
                calls += c
                secs += s
                self_secs += s - child
                items += it
        return calls, secs, self_secs, items

    def dump(self, path, extra):
        rows = [{"name": n, "parent": p, "calls": c, "seconds": s,
                 "self_seconds": s - child, "items": it}
                for (n, p), (c, s, child, it) in sorted(self.stats.items())]
        spans = [{"id": i, "name": n, "start": a, "end": b, "parent": p,
                  "run_id": self.run_id} for (i, n, a, b, p) in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "run_id": self.run_id, "aggregates": rows,
                       "spans": spans}, fh, indent=1)


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------

def _file_size(arg_index):
    import os

    def items(args, kwargs, result):
        return os.path.getsize(args[arg_index])
    return items


def _pairs_checked(args, kwargs, result):
    return result.pairs_checked


def install_stage_timers(tracer, cdckit):
    """The coarse calls the CLI makes once per command: file write, file
    read and the two distance checks.  A handful of calls per pass."""
    codefile, verify = cdckit.codefile, cdckit.verify
    mods = _modules(cdckit)
    tracer.patch_function(mods, codefile.export, "codefile.write", _file_size(1))
    tracer.patch_function(mods, codefile.import_code, "codefile.read", _file_size(0))
    tracer.patch_function(mods, verify.full_pairwise_check, "verify.full", _pairs_checked)
    tracer.patch_function(mods, verify.sampled_check, "verify.sample", _pairs_checked,
                          keep_args=True)


def _modules(cdckit):
    return [cdckit] + [getattr(cdckit, m) for m in LAYERS]


def _methods(mod, base, attrs):
    """(class, attr) for every class of mod derived from base that defines
    one of attrs itself."""
    for value in vars(mod).values():
        if inspect.isclass(value) and issubclass(value, base) \
                and value.__module__ == mod.__name__:
            for attr in attrs:
                if attr in value.__dict__:
                    yield value, attr


def install_layer_tracing(tracer, cdckit):
    """Wrap the public entry points of every measured layer."""
    gf, linalg, subspace = cdckit.gf, cdckit.linalg, cdckit.subspace
    rankmetric, cdc, constructions = cdckit.rankmetric, cdckit.cdc, cdckit.constructions
    verify, cli = cdckit.verify, cdckit.cli
    mods = _modules(cdckit)

    install_stage_timers(tracer, cdckit)
    tracer.patch_function(mods, verify.sample_pairs, "verify.sampler")
    tracer.patch_function(mods, cli.main, "cli")

    for op in ("add", "sub", "neg", "mul", "inv", "pow"):
        tracer.patch_method(gf.ExtFieldSpec, op, "gf.ext_ops")
    tracer.patch_function(mods, linalg.rank_bits, "linalg.rank_bits")
    tracer.patch_function(mods, linalg.rref_bits, "linalg.rref_bits")
    tracer.patch_method(subspace.Subspace, "parse", "subspace.parse")
    tracer.patch_method(subspace.Subspace, "serialize", "subspace.serialize")

    handle = rankmetric.RankCodeHandle
    for cls, attr in _methods(rankmetric, handle, ("iter_packed", "iter_rows")):
        tracer.patch_method(cls, attr, "rankmetric.enum")
    for cls, attr in _methods(rankmetric, handle, ("packed_at",)):
        tracer.patch_method(cls, attr, "rankmetric.packed_at")
    for cls, attr in _methods(rankmetric, handle, ("rows_at",)):
        tracer.patch_method(cls, attr, "rankmetric.rows_at")
    tracer.patch_method(rankmetric.RankFilteredHandle, "indices",
                        "rankmetric.rank_filter_scan")

    tracer.patch_method(cdc.Cdc, "__init__", "cdc.init")
    tracer.patch_method(cdc.Cdc, "words", "cdc.materialize")
    for attr in ("at", "packed_at"):
        tracer.patch_method(cdc.Cdc, attr, "cdc.access")
    for attr in ("iter_packed", "__iter__"):
        tracer.patch_method(cdc.Cdc, attr, "cdc.iter")
    source = cdc.StreamSource
    for layer in (cdc, constructions):
        prefix = layer.__name__.rsplit(".", 1)[-1]
        for cls, attr in _methods(layer, source, ("iter_packed", "iter_rows")):
            tracer.patch_method(cls, attr, f"{prefix}.stream")
        for cls, attr in _methods(layer, source, ("packed_at",)):
            tracer.patch_method(cls, attr, f"{prefix}.packed_at")
        for cls, attr in _methods(layer, source, ("rows_at",)):
            tracer.patch_method(cls, attr, f"{prefix}.rows_at")

    # recipes call each other by module name (12_4_4_thm builds 8_4_4)
    for fn in set(constructions.RECIPES.values()):
        tracer.patch_function([constructions.RECIPES, constructions], fn,
                              "constructions.build")


def layer_metrics(tracer, traced_total, untraced_total):
    """Per-layer metric values from one traced pass."""
    t = tracer.totals
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for (name, _parent), (calls, secs, child, _items) in tracer.stats.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:  # runner stages ("stage.*") belong to no layer
            out[f"{layer}.self_s"] += secs - child
            out[f"{layer}.calls"] += calls

    def pick(name, fields):
        calls, secs, self_s, items = t(name)
        values = {"calls": calls, "total_s": secs, "self_s": self_s,
                  "words": items, "pairs": items, "bytes": items}
        for f in fields:
            out[f"{name}.{f}"] = values[f]

    pick("rankmetric.enum", ("words", "self_s"))
    pick("rankmetric.packed_at", ("calls", "self_s"))
    pick("rankmetric.rows_at", ("calls", "self_s"))
    pick("rankmetric.rank_filter_scan", ("self_s", "total_s"))
    out["rankmetric.rank_filter_scan.words"] = \
        t("rankmetric.enum", parent="rankmetric.rank_filter_scan")[3]
    pick("gf.ext_ops", ("calls", "self_s"))
    pick("linalg.rank_bits", ("calls", "self_s"))
    pick("linalg.rref_bits", ("calls", "self_s"))
    pick("subspace.parse", ("calls", "self_s"))
    pick("subspace.serialize", ("calls", "self_s"))
    pick("cdc.init", ("calls", "self_s"))
    pick("constructions.build", ("calls", "self_s"))
    pick("constructions.stream", ("words", "self_s"))
    pick("constructions.packed_at", ("calls", "self_s"))
    pick("verify.full", ("pairs", "self_s"))
    pick("verify.sample", ("pairs", "self_s"))
    pick("verify.sampler", ("self_s",))
    pairs = t("verify.sample")[3]
    fetches = t("cdc.access", parent="verify.sample")[0]
    # base: two code fetches per sampled pair without the fetch cache
    out["verify.fetch_hit_ratio"] = 1.0 - fetches / (2 * pairs) if pairs else 0.0
    pick("codefile.write", ("bytes", "self_s"))
    pick("codefile.read", ("bytes", "self_s"))
    out["trace.traced_total_s"] = traced_total
    out["trace.untraced_total_s"] = untraced_total
    out["trace.overhead_s"] = None if untraced_total is None else traced_total - untraced_total
    return out
