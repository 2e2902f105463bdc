"""Shared machinery of the erfs benchmark.

* the closed-loop op runner (one client, one process, next op after the
  previous one returns);
* latency statistics that resist interference from outside the process;
* ``Tracer``: spans around every call the benchmark makes into an erfs
  module, plus counting/timing wrappers installed on the names a module
  imported from a lower layer (``erfs.grfn.Phi``, ``erfs.grfv.SpdFactor``);
* run metadata (versions, BLAS, CPUs, commit).

``ROOT`` is the checkout this file sits in (``ROOT/perfbench/harness.py``):
the library is imported from ``ROOT/src`` and every file the benchmark
writes goes under ``ROOT/.bench_build/perfbench``.
"""

from __future__ import annotations

import array
import contextlib
import ctypes
import os
import platform
import re
import resource
import sys
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# Layer of the lower module each traced module calls through a wrapped name.
LOWER_LAYER = {"grfn": "normal", "grfv": "linalg"}
# workload name -> (module, what set-up imports)
WORKLOADS = {
    "scalar-queries": ("wl_scalar", "erfs"),
    "vector-fusion": ("wl_vector", "erfs"),
    "mc-oracle": ("wl_oracle", "erfs"),
    "cli-calls": ("wl_cli", "erfs.cli"),
}
LAYERS = ("bench", "inference", "fuzzy", "grfn", "normal", "grfv", "linalg", "randomset", "cli")


class LayoutError(RuntimeError):
    """The checkout holding the benchmark has no erfs sources."""


def use_checkout_library() -> None:
    """Put ``ROOT/src`` first on the import path and check that erfs comes from it.

    The benchmark must measure the code of the checkout it runs in, never an
    installed copy, and must fail when that code is absent.
    """
    init = os.path.join(SRC, "erfs", "__init__.py")
    if not os.path.isfile(init):
        raise LayoutError(f"no erfs sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import erfs

    if os.path.realpath(os.path.dirname(erfs.__file__)) != os.path.realpath(os.path.dirname(init)):
        raise LayoutError(f"erfs was imported from {erfs.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# the op loop


@dataclass
class Loop:
    """What one timed loop produced.  Op ``i`` ran pool input ``i % n_pool``."""

    latencies: array.array          # seconds, one per attempted op
    n_pool: int
    kept: list                      # (op index, pool index, result) kept for verification
    errors: list                    # (op index, pool index, message) of ops that raised
    wall_s: float
    tracer: "Tracer | None" = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def inputs(self):
        import numpy as np

        return np.arange(self.attempted) % self.n_pool


def run_loop(op, pool, seconds: float, keep_every: int, tracer: "Tracer | None" = None,
             min_ops: int = 1) -> Loop:
    """Run ``op`` over ``pool`` in order, round robin, for ``seconds`` of wall time.

    The first pass over the pool and every ``keep_every``-th op afterwards
    keep their result for verification outside the timed region; ops are
    pure functions of their input, so this covers every input.  At least
    ``min_ops`` ops run whatever the time.
    """
    n_pool = len(pool)
    lat = array.array("d")
    kept, errors = [], []
    t_start = perf_counter()
    deadline = t_start + seconds
    i = 0
    while True:
        j = i % n_pool
        if tracer is not None:
            tracer.open_op()
        t0 = perf_counter()
        try:
            res = op(pool[j])
        except Exception as exc:  # a failed op is counted and the run goes on
            res = None
            errors.append((i, j, f"{type(exc).__name__}: {exc}"))
        t1 = perf_counter()
        if tracer is not None:
            tracer.close_op()
        lat.append(t1 - t0)
        if res is not None and (i < n_pool or i % keep_every == 0):
            kept.append((i, j, res))
        i += 1
        if t1 >= deadline and i >= min_ops:
            break
    return Loop(lat, n_pool, kept, errors, perf_counter() - t_start, tracer)


def per_input_latency(loop: Loop, q: float):
    """Each pool input's ``q``-th percentile latency (ms) over its repeats in
    the loop: a latency the input meets in ``q`` percent of its runs."""
    import numpy as np

    lat = np.asarray(loop.latencies) * 1e3
    which = loop.inputs
    return np.array([np.percentile(lat[which == j], q) for j in range(loop.n_pool) if np.any(which == j)])


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# tracing

_SLOTS = 5  # per span: name id, parent span, start ns, end ns, ns spent in wrapped lower-layer names


class Tracer:
    """Spans kept in memory, in one flat int64 array.

    A span is opened around each call the benchmark makes into an erfs
    module (:meth:`wrap`) and around each op (:meth:`open_op`, parent -1).
    Names a module imported from a lower layer are replaced by
    :meth:`boundary` wrappers that count every call and add the time of
    the outermost one to the enclosing span's last slot, so a layer's self
    time is its spans' time minus child spans minus that slot.
    """

    OP = "bench.op"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = array.array("q")
        self._stack = [-1]
        self._depth = [0]
        self.counters: dict[str, list] = {}
        self.op_counts = array.array("q")   # counter values after each op, in counter order
        self._op_id = self.name_id(self.OP)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def counter(self, name: str) -> list:
        if self.op_counts:
            raise RuntimeError("counters must be registered before the first op")
        return self.counters.setdefault(name, [0])

    def open_op(self) -> None:
        rec = self.rec
        self._stack.append(len(rec) // _SLOTS)
        rec.extend((self._op_id, -1, perf_counter_ns(), 0, 0))

    def close_op(self) -> None:
        idx = self._stack.pop()
        self.rec[_SLOTS * idx + 3] = perf_counter_ns()
        self.op_counts.extend(c[0] for c in self.counters.values())

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        rec, stack = self.rec, self._stack

        def traced(*args, **kwargs):
            idx = len(rec) // _SLOTS
            rec.extend((nid, stack[-1], 0, 0, 0))
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rec[_SLOTS * idx + 2] = t0
                rec[_SLOTS * idx + 3] = t1

        return traced

    def boundary(self, counter: str, fn):
        """``fn`` counted under ``counter``, its time charged to the enclosing span.

        Calls nested inside another boundary call (``SpdFactor.inv`` calling
        ``solve``) are counted but not timed again.  Single-threaded only.
        """
        c = self.counter(counter)
        rec, stack, depth = self.rec, self._stack, self._depth

        def counted(*args, **kwargs):
            c[0] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_SLOTS * stack[-1] + 4] += perf_counter_ns() - t0
                depth[0] = 0

        return counted

    def spans(self):
        """Spans as a numpy ``(n, 5)`` int64 array (a copy)."""
        import numpy as np

        return np.array(self.rec, dtype=np.int64).reshape(-1, _SLOTS)


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``module.attr = value`` for each ``(module, attr, value)``."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in replacements]
    try:
        for m, a, v in replacements:
            setattr(m, a, v)
        yield
    finally:
        for m, a, v in reversed(saved):
            setattr(m, a, v)


@dataclass
class TraceData:
    """Per-span durations and per-op totals derived from a traced loop."""

    names: list
    name: "object"        # per span: name id
    dur: "object"         # per span: duration ns
    inner: "object"       # per span: ns in wrapped lower-layer names
    op: "object"          # per span: op index
    op_dur: "object"      # per op: duration ns
    op_counts: "object"   # per op: counter deltas (ops x counters)
    counter_names: list
    layer_self_ns: dict   # layer -> total self ns
    layer_busy_ns: dict   # layer -> ns inside its outermost spans

    def span_mask(self, name: str):
        """Which spans are called ``name``."""
        import numpy as np

        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def durations(self, name: str):
        """Durations (ns) of every span called ``name``."""
        return self.dur[self.span_mask(name)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(tracer: Tracer) -> TraceData:
    import numpy as np

    s = tracer.spans()
    nid, parent, t0, t1, inner = s.T
    dur = t1 - t0
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(s)).astype(np.int64)
    self_ns = dur - child - inner
    roots = parent == -1
    op = np.cumsum(roots) - 1
    layers = np.array([layer_of(n) for n in tracer.names])
    span_layer = layers[nid]
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")
    layer_self = {layer: 0 for layer in LAYERS}
    layer_busy = {layer: 0 for layer in LAYERS}
    for layer in set(span_layer.tolist()):
        mask = span_layer == layer
        layer_self[layer] += int(self_ns[mask].sum())
        # busy: the layer's outermost spans, those whose parent is in another layer
        outer = mask & (parent_layer != layer)
        layer_busy[layer] += int(dur[outer].sum())
        lower = LOWER_LAYER.get(layer)
        if lower is not None:
            lower_ns = int(inner[mask].sum())
            layer_self[lower] += lower_ns
            layer_busy[lower] += lower_ns
    n_counters = len(tracer.counters)
    counts = np.array(tracer.op_counts, dtype=np.int64).reshape(-1, n_counters) if n_counters else \
        np.zeros((int(roots.sum()), 0), dtype=np.int64)
    deltas = np.diff(counts, axis=0, prepend=np.zeros((1, n_counters), dtype=np.int64))
    return TraceData(
        names=list(tracer.names), name=nid, dur=dur, inner=inner, op=op,
        op_dur=dur[roots], op_counts=deltas, counter_names=list(tracer.counters),
        layer_self_ns=layer_self, layer_busy_ns=layer_busy,
    )


def first_counts_per_input(td: TraceData, n_pool: int):
    """Counter deltas of the first op on each pool input (op ``j`` runs input
    ``j``: the loop is round robin), and whether every later op on the same
    input repeated them exactly."""
    import numpy as np

    if len(td.op_counts) < n_pool:
        raise RuntimeError("the traced loop did not cover every pool input once")
    per_input = td.op_counts[:n_pool]
    repeat_ok = bool(np.all(td.op_counts == per_input[np.arange(len(td.op_counts)) % n_pool]))
    return per_input, repeat_ok


# ---------------------------------------------------------------------------
# run metadata


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with the threads each uses."""
    paths = []
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            for line in fh:
                m = re.search(r"(/\S*(?:openblas|mkl_rt|blis)\S*\.so\S*)", line)
                if m and m.group(1) not in paths:
                    paths.append(m.group(1))
    except OSError:
        return [{"library": "unknown"}]
    out = []
    for path in paths:
        info = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(info)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    info["threads"] = int(threads())
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    info["config"] = config().decode("ascii", "replace").strip()
        out.append(info)
    return out


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(workload: str, seed: int, seconds: float, trace: bool, tail: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "op_tail_percentile": tail,
    }
