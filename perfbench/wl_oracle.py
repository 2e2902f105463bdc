"""Workload ``mc-oracle``: the ``randomset.oracle_suite`` battery, one
estimator call per op.

The battery is the one ``oracle_suite`` runs (15 estimator calls, 26
checks): ``mc_contour``, ``mc_bel_pl``, ``mc_expectation_bounds``,
``mc_conflict``, ``soft_conditioning_sampler`` (with its ``estimates``),
``rejection_rate``, at ``SAMPLES`` samples each, with the Monte-Carlo seed
derived from the benchmark seed.  Passes over the battery alternate
between ``workers=1`` and ``workers=2``.

Why: ``randomset`` and numpy's Philox streams do the work and only scalar
closed forms run.  The two worker counts drive the same layer serially and
threaded, so a change that speeds one and slows the other shows.

Correctness gate: every estimate is bit-identical across worker counts
and repeats, and lies inside a Sidak-adjusted band whose suite-level
false-alarm rate is ``SUITE_ALPHA`` over the 26 checks.  An estimator
that raises that alarm is run once more on an independent stream, and the
gate fails only when the replicate misses the band on the same check: a
1% alarm on correct code would otherwise fail one run in a hundred seeds.
Misses of the per-check 3-standard-error band are counted
(``randomset.band_misses``), not treated as errors.  References are the
closed forms, never the estimator under test.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from harness import first_counts_per_input

NAME = "mc-oracle"
TAIL_PCT = 95
TAIL_INPUT_PCT = 75
KEEP_EVERY = 1
SAMPLES = 200_000
WORKERS = (1, 2)
SUITE_ALPHA = 0.01


@dataclass(frozen=True)
class Case:
    index: int          # position in the battery
    call: str           # span name of the estimator
    args: tuple         # arguments before the config
    cfg: object         # erfs.MCConfig
    checks: tuple       # (check name, reference) per estimate the call returns


def mc_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 3]).generate_state(1, np.uint64)[0])


def battery():
    """``(call, args, checks)`` for each estimator call of ``oracle_suite``.

    References come from the closed forms, exactly as ``oracle_suite``
    computes them.
    """
    from erfs import GRFN, Interval, grfn
    from erfs import randomset as rs

    out = []
    g = GRFN(0.3, 1.2, 0.8)
    s = rs.GrfnSampler(g)
    for x in (-1.0, 0.3, 1.5):
        out.append(("randomset.mc_contour", (s, x), ((f"grfn contour x={x}", g.contour(x)),)))
    for b in (Interval(-1.0, 1.0), Interval(0.0, 2.5)):
        bel, pl = g.bel_pl(b)
        out.append(("randomset.mc_bel_pl", (s, b),
                    ((f"grfn bel {b.lo}..{b.hi}", bel), (f"grfn pl {b.lo}..{b.hi}", pl))))
    lower, upper = g.cdf_bounds(0.7)
    out.append(("randomset.mc_bel_pl", (s, Interval(-math.inf, 0.7)),
                (("grfn lower cdf y=0.7", lower), ("grfn upper cdf y=0.7", upper))))
    g2 = GRFN(0.0, 1.0, math.pi / 2.0)
    out.append(("randomset.mc_expectation_bounds", (rs.GrfnSampler(g2),),
                tuple(zip(("grfn lower expectation", "grfn upper expectation"), g2.expectation_bounds()))))
    ga, gb = GRFN(0.0, 1.0, 1.0), GRFN(0.5, 0.5, 2.0)
    fusion = grfn.combine(ga, gb)
    out.append(("randomset.mc_conflict", (rs.GrfnSampler(ga), rs.GrfnSampler(gb)),
                (("grfn conflict", fusion.kappa),)))
    inter = fusion.intermediates
    out.append(("randomset.soft_conditioning_sampler", (ga, gb),
                (("soft-conditioning mu1", inter.mu1), ("soft-conditioning var1", inter.var1),
                 ("soft-conditioning rho", inter.rho), ("soft-conditioning 1-kappa", 1.0 - fusion.kappa))))
    # the rays' closed forms need no sampling; the config is unused here
    kappa, rays = rs.dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, rs.MCConfig())
    out.append(("randomset.rejection_rate", (rays,), (("gaussian rays conflict", kappa),)))
    x = 0.6
    pl_closed = float(rs.Phi(x - 0.0) * (1.0 - rs.Phi(x - 1.0)) / (1.0 - kappa))
    out.append(("randomset.mc_contour", (rays, x), (("gaussian rays combined contour", pl_closed),)))
    tri = rs.TriangularGaussianSampler(0.0, 1.0, 1.5)
    for x in (-1.0, 0.0, 1.0):
        bel_c, pl_c = rs.triangular_gaussian_cdf_bounds(0.0, 1.0, 1.5, x)
        out.append(("randomset.mc_bel_pl", (tri, Interval(-math.inf, x)),
                    ((f"triangular lower cdf x={x}", bel_c), (f"triangular upper cdf x={x}", pl_c))))
    out.append(("randomset.mc_expectation_bounds", (tri,),
                tuple(zip(("triangular lower expectation", "triangular upper expectation"),
                          rs.triangular_gaussian_expectation_bounds(0.0, 1.5)))))
    return out


def build(seed: int) -> list[Case]:
    from erfs import MCConfig

    entries = battery()
    cases = []
    for workers in WORKERS:
        cfg = MCConfig(seed=mc_seed(seed), samples=SAMPLES, workers=workers)
        cases += [Case(i, call, args, cfg, checks) for i, (call, args, checks) in enumerate(entries)]
    return cases


def api() -> dict:
    from erfs import randomset as rs

    return {
        "randomset.mc_contour": rs.mc_contour,
        "randomset.mc_bel_pl": rs.mc_bel_pl,
        "randomset.mc_expectation_bounds": rs.mc_expectation_bounds,
        "randomset.mc_conflict": rs.mc_conflict,
        "randomset.soft_conditioning_sampler": rs.soft_conditioning_sampler,
        "randomset.SoftConditioningSample.estimates": rs.SoftConditioningSample.estimates,
        "randomset.rejection_rate": rs.ConditionalGaussianIntervalSampler.rejection_rate,
    }


def boundaries(tracer) -> list:
    """Count the Philox blocks drawn.  Blocks run on worker threads, so the
    count takes a lock and is not timed."""
    import erfs.randomset as rs

    count = tracer.counter("randomset.blocks")
    lock = threading.Lock()
    block_rng = rs._block_rng

    def counted(*args):
        with lock:
            count[0] += 1
        return block_rng(*args)

    return [(rs, "_block_rng", counted)]


def bind(calls: dict):
    estimates = calls["randomset.SoftConditioningSample.estimates"]
    soft = "randomset.soft_conditioning_sampler"

    def op(c: Case) -> tuple:
        if c.call == "randomset.rejection_rate":
            out = (calls[c.call](c.args[0], c.cfg),)
        elif c.call == soft:
            est = estimates(calls[soft](*c.args, c.cfg))
            out = tuple(est[k] for k in ("mu1", "var1", "rho", "mean_weight"))  # the checks' order
        else:
            out = calls[c.call](*c.args, c.cfg)
            if not isinstance(out, tuple):
                out = (out,)
        return tuple((e.value, e.stderr, e.n) for e in out)

    return op


def warm_op(cases) -> None:
    bind(api())(cases[0])


# ---------------------------------------------------------------------------
# correctness gate


def n_checks(cases) -> int:
    return sum(len(c.checks) for c in cases if c.cfg.workers == WORKERS[0])


def sidak_z(m: int, alpha: float = SUITE_ALPHA) -> float:
    """Two-sided normal band half-width giving family-wise rate ``alpha`` over ``m`` checks."""
    per_check = 1.0 - (1.0 - alpha) ** (1.0 / m)
    return statistics.NormalDist().inv_cdf(1.0 - per_check / 2.0)


def band_misses(cases, kept, nsigma: float) -> list[str]:
    """Names of checks whose reference lies outside ``nsigma`` standard errors."""
    first = {}
    for _, j, res in kept:
        first.setdefault(cases[j].index, (cases[j], res))
    return [o[0] for idx in sorted(first) for o in _outside(*first[idx], nsigma)]


def verify(cases, kept) -> dict:
    bad = {}
    first = {}
    for _, j, res in kept:
        idx = cases[j].index
        if idx not in first:
            first[idx] = res
        elif res != first[idx]:
            bad[j] = f"{cases[j].call} (workers={cases[j].cfg.workers}) not bit-identical to its first run"
        if not all(math.isfinite(v) and math.isfinite(s) for v, s, _ in res):
            bad[j] = f"{cases[j].call} returned a non-finite estimate"
    z = sidak_z(n_checks(cases))
    by_index = {}
    for j, c in enumerate(cases):
        by_index.setdefault(c.index, []).append(j)
    op = None
    for idx, res in first.items():
        case = cases[by_index[idx][0]]
        alarms = [name for name, value, stderr, ref in _outside(case, res, z)]
        if not alarms:
            continue
        # an alarm fails the gate only when an independent replicate repeats it
        op = op or bind(api())
        replicate = dataclasses.replace(case, cfg=dataclasses.replace(
            case.cfg, seed=confirm_seed(case.cfg.seed), workers=1))
        confirmed = [o for o in _outside(case, op(replicate), z) if o[0] in alarms]
        for name, value, stderr, ref in confirmed[:1]:
            for j in by_index[idx]:
                bad.setdefault(j, f"{name}: {value} outside the {SUITE_ALPHA:.0%} Sidak band "
                                  f"({z:.3f} stderr) of {ref}, confirmed by a replicate")
    return bad


def confirm_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 1]).generate_state(1, np.uint64)[0])


def _outside(case: Case, res: tuple, nsigma: float) -> list:
    return [(name, value, stderr, ref) for (name, ref), (value, stderr, _) in zip(case.checks, res)
            if abs(value - ref) > nsigma * stderr + 1e-12]


# ---------------------------------------------------------------------------
# per-layer metrics


def realize_ns_per_sample(reps: int = 15) -> float:
    """Median time of the public ``GrfnSampler.realize`` on one block, per sample."""
    from erfs import GRFN
    from erfs import randomset as rs

    sampler = rs.GrfnSampler(GRFN(0.3, 1.2, 0.8))
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        sampler.realize(rng, rs.BLOCK_SIZE)
        times.append(perf_counter_ns() - t0)
    return float(np.median(times)) / rs.BLOCK_SIZE


def layer_metrics(td, loop, cases) -> dict:
    n_ops = len(td.op_dur)
    which = np.asarray(loop.inputs[:n_ops])
    workers = np.array([c.cfg.workers for c in cases])[which]
    battery_index = np.array([c.index for c in cases])[which]
    secs = {w: td.op_dur[workers == w].sum() / 1e9 for w in WORKERS}
    n_ops_w = {w: int(np.sum(workers == w)) for w in WORKERS}
    # speed-up over the battery: per estimator, median time at 1 worker over
    # median time at 2, weighted by the estimator's time
    med = {w: sum(float(np.median(td.op_dur[(workers == w) & (battery_index == i)]))
                  for i in set(battery_index.tolist())) for w in WORKERS}
    per_input, _ = first_counts_per_input(td, len(cases))
    blocks = per_input[[j for j, c in enumerate(cases) if c.cfg.workers == WORKERS[0]],
                       td.counter_names.index("randomset.blocks")]
    return {
        "randomset.samples_per_s.w1": (n_ops_w[1] * SAMPLES / secs[1], "1/s"),
        "randomset.samples_per_s.w2": (n_ops_w[2] * SAMPLES / secs[2], "1/s"),
        "randomset.parallel_speedup": (med[1] / med[2], "ratio"),
        "randomset.realize_ns_per_sample": (realize_ns_per_sample(), "ns"),
        "randomset.blocks": (float(np.sum(blocks)), "count"),
        "randomset.band_misses": (float(len(band_misses(cases, loop.kept, 3.0))), "count"),
    }
