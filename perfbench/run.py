"""Benchmark of the erfs library and its command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``scalar-queries``, ``vector-fusion``, ``mc-oracle``,
``cli-calls`` (each module ``wl_*.py`` says what an op is and why the
workload exists).  ``BENCHMARK.json`` lists the first, second and last:
with ``mc-oracle`` too, the spread of its timings on a shared two-core
host was wider than any bound allowed, and its layer (``randomset``) is
measured in every traced run anyway.  Load is closed-loop: one client in
one process starts the next op when the previous one returns.  Inputs are
built from ``--seed`` before any timing; the library gets only the built
inputs.

``--trace 0`` measures the end-to-end metrics: ``ops_per_s`` (ops that
pass the correctness gate, per second), ``op_p50_ms``, ``op_tail_ms`` (the
workload's stated percentile), ``success_rate`` (1 - failed/attempted),
``setup_s`` (median over fresh interpreters of ``import erfs`` plus one
warm-up op) and ``peak_rss_mb`` (peak resident memory up to the end of the
timed loop, before verification; of the ``erfs`` processes on
``cli-calls``).

The host these runs share switches its CPU speed between two levels about
1.5x apart, from second to second and for minutes at a time.  The median
over all of a run's ops then jumps between the two levels with the share
of time spent fast, which says nothing about the code.  So each pool
input, run many times in a run, is given the upper quartile of its
latencies (a latency it meets in three runs out of four); ``op_p50_ms`` is
the median of these over the pool and ``ops_per_s`` the rate of one pass
over the pool at them, times the success share.  ``op_tail_ms`` is the
workload's ``TAIL_PCT`` percentile over the pool of each input's
``TAIL_INPUT_PCT`` percentile over its repeats: the tail of what the
inputs cost, not of what the host's other tenants did to single ops (a
percentile over all ops, even per span of the run, swung by 25-50%
between runs on a loaded host).  ``TAIL_PCT`` leaves at least ten ops
beyond it at the benchmark's run length (``ops_beyond`` in the details).
The plain wall-clock rate is in the details as ``wall_ops_per_s``.

``--trace 1`` measures the per-layer metrics.  A quarter of the time runs
untraced, for the tracing overhead; the rest runs with a span around every
call the benchmark makes into an erfs module and counting wrappers on the
lower-layer names ``grfn`` and ``grfv`` import.  Then each other workload
runs one traced pass over its inputs, so every layer's metrics come from
the workload that exercises that layer.  Spans are written to
``.bench_build/perfbench/spans-<workload>.npz``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are
``#``-comments for people, including the run metadata.  The full result
also goes to ``.bench_build/perfbench/result-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

import harness
from harness import OUT_DIR, ROOT, WORKLOADS, LayoutError

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
UNTRACED_SHARE = 0.25
INPUT_QUANTILE = 75.0


def measure_setup(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
                              capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Tally:
    """Ops attempted and failed over the loops of one run, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, wl, cases, loop) -> list[bool]:
        """Count ``loop``: ops that raised, and every op on an input whose
        kept result failed the workload's correctness gate, fail.  Returns
        which ops passed."""
        bad = wl.verify(cases, loop.kept)
        raised = {i for i, _, _ in loop.errors}
        ok = [i not in raised and j not in bad for i, j in enumerate(loop.inputs.tolist())]
        self.attempted += loop.attempted
        self.failed += ok.count(False)
        self.messages += [f"{wl.NAME} op {i}: {m}" for i, _, m in loop.errors[:3]]
        self.messages += [f"{wl.NAME} input {j}: {m}" for j, m in sorted(bad.items())[:3]]
        return ok


def traced_pass(wl, cases, seconds: float, tally: Tally):
    """A traced loop of ``wl``: its trace and its per-layer metrics.

    The loop covers every input at least once; the counts each input's ops
    produce must repeat exactly on every later op on that input.
    """
    tracer = harness.Tracer()
    op = wl.bind({name: tracer.wrap(name, fn) for name, fn in wl.api().items()})
    with harness.patched(wl.boundaries(tracer)):
        loop = harness.run_loop(op, cases, seconds, wl.KEEP_EVERY, tracer, min_ops=len(cases))
    tally.add(wl, cases, loop)
    td = harness.analyse(tracer)
    _, repeat_ok = harness.first_counts_per_input(td, len(cases))
    if not repeat_ok:
        tally.failed += 1
        tally.messages.append(f"{wl.NAME}: layer counts differ between repeats of one input")
    return loop, td, wl.layer_metrics(td, loop, cases)


def untraced(name: str, wl, cases, seed: int, seconds: float, tally: Tally):
    import numpy as np

    setup_s = measure_setup(name, seed)
    wl.warm_op(cases)
    loop = harness.run_loop(wl.bind(wl.api()), cases, seconds, wl.KEEP_EVERY)
    rss_mb = harness.peak_rss_mb(children=name == "cli-calls")
    ok = tally.add(wl, cases, loop)
    success = ok.count(True) / loop.attempted
    per_input = harness.per_input_latency(loop, INPUT_QUANTILE)
    tail_inputs = harness.per_input_latency(loop, wl.TAIL_INPUT_PCT)
    op_tail = float(np.percentile(tail_inputs, wl.TAIL_PCT))
    metrics = {
        "ops_per_s": (success * len(per_input) / (float(per_input.sum()) / 1e3), "1/s"),
        "op_p50_ms": (float(statistics.median(per_input)), "ms"),
        "op_tail_ms": (op_tail, "ms"),
        "success_rate": (success, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    beyond = np.flatnonzero(tail_inputs > op_tail)
    extra = {
        "op_tail": {"percentile_over_inputs": wl.TAIL_PCT, "percentile_per_input": wl.TAIL_INPUT_PCT,
                    "ms_per_input": tail_inputs.tolist(),
                    "ops_beyond": int(np.isin(loop.inputs, beyond).sum())},
        "repeats_per_input": loop.attempted / loop.n_pool,
        "error_rate": tally.failed / loop.attempted,
        "wall_ops_per_s": ok.count(True) / loop.wall_s,
    }
    return metrics, extra


def traced(name: str, wl, cases, seed: int, seconds: float, tally: Tally):
    import numpy as np

    wl.warm_op(cases)
    reference = harness.run_loop(wl.bind(wl.api()), cases, seconds * UNTRACED_SHARE, wl.KEEP_EVERY)
    tally.add(wl, cases, reference)
    loop, td, metrics = traced_pass(wl, cases, seconds * (1.0 - UNTRACED_SHARE), tally)
    spans = {name: loop.tracer}
    for other, (module, _) in WORKLOADS.items():
        if other != name:
            owl = importlib.import_module(module)
            ocases = owl.build(seed)
            owl.warm_op(ocases)
            oloop, _, ometrics = traced_pass(owl, ocases, 0.0, tally)
            metrics.update(ometrics)
            spans[other] = oloop.tracer
    op_ns = float(td.op_dur.sum())
    for layer in harness.LAYERS:
        metrics[f"self_share.{layer}"] = (td.layer_self_ns[layer] / op_ns, "share")
    overhead = float(np.mean(loop.latencies)) / float(np.mean(reference.latencies)) - 1.0
    metrics["trace.overhead_share"] = (overhead, "share")
    os.makedirs(OUT_DIR, exist_ok=True)
    np.savez_compressed(
        os.path.join(OUT_DIR, f"spans-{name}.npz"),
        columns=np.array(["name", "parent", "start_ns", "end_ns", "lower_layer_ns"]),
        **{f"{w}.spans": t.spans() for w, t in spans.items()},
        **{f"{w}.names": np.array(t.names) for w, t in spans.items()},
    )
    self_ms = {layer: td.layer_self_ns[layer] / 1e6 / len(td.op_dur) for layer in harness.LAYERS}
    return metrics, {"self_ms_per_op": self_ms, "ops_traced": loop.attempted,
                     "ops_untraced": reference.attempted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.use_checkout_library()
    except (LayoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = importlib.import_module(WORKLOADS[args.workload][0])
    cases = wl.build(args.seed)
    run = traced if args.trace else untraced
    tally = Tally()
    metrics, extra = run(args.workload, wl, cases, args.seed, args.seconds, tally)
    tails = {}
    for w, (module, _) in WORKLOADS.items():
        mod = importlib.import_module(module)
        tails[w] = {"over_inputs": mod.TAIL_PCT, "per_input": mod.TAIL_INPUT_PCT}
    meta = harness.metadata(args.workload, args.seed, args.seconds, bool(args.trace), tails)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "meta": meta, "details": extra, "failures": tally.messages}, fh, indent=1)
    for m in tally.messages:
        print(f"# FAILED {m}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    for k, v in extra.items():
        print(f"# {k}: {json.dumps(v)}")
    print(f"# meta {json.dumps(meta)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
