"""Workload ``scalar-queries``: the paper's one-dimensional workflow.

One op turns a sample into likelihood evidence
(``inference.gaussian_mean_predictive``), fuses it with 3-8 expert GRFNs
through ``grfn.combine``, then queries the fused number: ``contour``,
``cdf_bounds`` and ``bel_pl`` at 16 scalar points, ``contour`` and
``cdf_bounds`` on an 800-point grid, and ``fuzzy.possibility_necessity``
of the likelihood GFN on the 16 intervals.

Why: ``grfn``, ``_normal``, ``fuzzy`` and ``inference`` do nearly all the
work and ``_linalg``/``randomset`` none.  Scalar calls (Python per-call
overhead; ``bel_pl`` costs about 10x ``contour``) sit beside grid calls
(vectorized ``ndtr``), so a gain on one path that costs the other shows.

The correctness gate recomputes the fusion (kappa and the fused GRFN) from
the paper's formulas with ``math`` only, in the 2x2 precision form of the
soft-conditioned mode pair, and checks the query invariants
``0 <= bel <= pl <= 1`` and ``lower <= upper`` cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harness import first_counts_per_input

NAME = "scalar-queries"
TAIL_PCT = 99
TAIL_INPUT_PCT = 75
KEEP_EVERY = 97
POOL = 64
N_POINTS = 16
GRID = 800


@dataclass(frozen=True)
class Case:
    obs: tuple
    experts: tuple          # (mu, sigma2, h) per expert
    points: tuple
    intervals: tuple        # erfs.Interval, half-widths 0.05..1.5 around the points
    grid: np.ndarray


def build(seed: int) -> list[Case]:
    from erfs import Interval

    rng = np.random.default_rng([seed, 1])
    truth = float(rng.normal(0.0, 3.0))
    cases = []
    for _ in range(POOL):
        n = int(rng.integers(5, 41))
        obs = tuple(float(v) for v in truth + rng.standard_normal(n))
        k = int(rng.integers(3, 9))
        experts = tuple(
            (float(truth + rng.normal(0.0, 1.0)), float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 5.0)))
            for _ in range(k)
        )
        center = float(np.mean(obs))
        points = tuple(float(v) for v in center + rng.uniform(-3.0, 3.0, N_POINTS))
        halves = rng.uniform(0.05, 1.5, N_POINTS)
        intervals = tuple(Interval(x - w, x + w) for x, w in zip(points, halves))
        grid = np.linspace(center - 6.0, center + 6.0, GRID)
        cases.append(Case(obs, experts, points, intervals, grid))
    return cases


def api() -> dict:
    """The public erfs calls an op makes, by span name."""
    from erfs import fuzzy, grfn, inference

    return {
        "inference.Sample": inference.Sample,
        "inference.gaussian_mean_predictive": inference.gaussian_mean_predictive,
        "inference.gaussian_mean_likelihood_fuzzy": inference.gaussian_mean_likelihood_fuzzy,
        "grfn.GRFN": grfn.GRFN,
        "grfn.combine": grfn.combine,
        "grfn.contour": grfn.GRFN.contour,
        "grfn.cdf_bounds": grfn.GRFN.cdf_bounds,
        "grfn.bel_pl": grfn.GRFN.bel_pl,
        "grfn.contour_grid": grfn.GRFN.contour,
        "grfn.cdf_bounds_grid": grfn.GRFN.cdf_bounds,
        "fuzzy.possibility_necessity": fuzzy.possibility_necessity,
    }


def boundaries(tracer) -> list:
    """The ``_normal`` names ``grfn`` imported, replaced by counting wrappers."""
    import erfs.grfn as g

    return [
        (g, "Phi", tracer.boundary("normal.calls", g.Phi)),
        (g, "phi_over", tracer.boundary("normal.calls", g.phi_over)),
    ]


@dataclass
class Result:
    fused: object
    kappas: list
    contour: list
    cdf: list
    bel_pl: list
    contour_grid: np.ndarray
    cdf_grid: tuple
    poss_nec: list


def bind(calls: dict):
    Sample = calls["inference.Sample"]
    predictive = calls["inference.gaussian_mean_predictive"]
    likelihood = calls["inference.gaussian_mean_likelihood_fuzzy"]
    GRFN = calls["grfn.GRFN"]
    combine = calls["grfn.combine"]
    contour = calls["grfn.contour"]
    cdf_bounds = calls["grfn.cdf_bounds"]
    bel_pl = calls["grfn.bel_pl"]
    contour_grid = calls["grfn.contour_grid"]
    cdf_bounds_grid = calls["grfn.cdf_bounds_grid"]
    poss_nec = calls["fuzzy.possibility_necessity"]

    def op(c: Case) -> Result:
        s = Sample(c.obs)
        acc = predictive(s)
        lik = likelihood(s)
        kappas = []
        for mu, s2, h in c.experts:
            f = combine(acc, GRFN(mu, s2, h))
            acc = f.combined
            kappas.append(f.kappa)
        return Result(
            acc,
            kappas,
            [contour(acc, x) for x in c.points],
            [cdf_bounds(acc, x) for x in c.points],
            [bel_pl(acc, b) for b in c.intervals],
            contour_grid(acc, c.grid),
            cdf_bounds_grid(acc, c.grid),
            [poss_nec(lik, b) for b in c.intervals],
        )

    return op


def warm_op(cases) -> None:
    bind(api())(cases[0])


# ---------------------------------------------------------------------------
# correctness gate


def reference_fusion(obs, experts):
    """Fused ``(mu, sigma2, h)`` and the kappas, from the paper's formulas.

    The predictive law is ``GRFN(mean, 1, n)``.  Each step conditions the
    independent mode pair ``M1 ~ N(mu1, v1)``, ``M2 ~ N(mu2, v2)`` on
    agreement with weight ``exp(-hbar (m1 - m2)^2 / 2)``, ``hbar = h1 h2 /
    (h1 + h2)``: the result is Gaussian with precision ``diag(1/v1, 1/v2) +
    hbar [[1, -1], [-1, 1]]``.  The fused mode is ``(h1 M1 + h2 M2) / (h1 +
    h2)``, and ``1 - kappa = (1 + hbar s)^(-1/2) exp(-hbar d^2 / (2 (1 +
    hbar s)))`` with ``s = v1 + v2``, ``d = mu1 - mu2``.
    """
    n = len(obs)
    mu, v, h = math.fsum(obs) / n, 1.0, float(n)
    kappas = []
    for mu2, v2, h2 in experts:
        hbar = h * h2 / (h + h2)
        c = 1.0 + hbar * (v + v2)
        d = mu - mu2
        kappas.append(1.0 - math.exp(-hbar * d * d / (2.0 * c)) / math.sqrt(c))
        q11, q22, q12 = 1.0 / v + hbar, 1.0 / v2 + hbar, -hbar
        det = q11 * q22 - q12 * q12
        c11, c22, c12 = q22 / det, q11 / det, -q12 / det
        b1, b2 = mu / v, mu2 / v2
        m1, m2 = c11 * b1 + c12 * b2, c12 * b1 + c22 * b2
        a1, a2 = h / (h + h2), h2 / (h + h2)
        mu = a1 * m1 + a2 * m2
        v = a1 * a1 * c11 + 2.0 * a1 * a2 * c12 + a2 * a2 * c22
        h = h + h2
    return (mu, v, h), kappas


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def check(case: Case, r: Result, ref) -> str | None:
    """None when ``r`` is right for ``case`` given ``reference_fusion``'s
    ``ref``, else what is wrong."""
    (mu, v, h), kappas = ref
    f = r.fused
    if not (_close(f.mu, mu, 1e-9, 1e-9) and _close(f.sigma2, v, 1e-9, 0.0) and _close(f.h, h, 1e-12, 0.0)):
        return f"fused GRFN({f.mu}, {f.sigma2}, {f.h}) != reference ({mu}, {v}, {h})"
    if len(r.kappas) != len(kappas) or not all(_close(a, b, 0.0, 1e-12) for a, b in zip(r.kappas, kappas)):
        return f"kappas {r.kappas} != reference {kappas}"
    c = 1.0 + h * v
    for x, got in zip(case.points, r.contour):
        want = math.exp(-h * (x - mu) ** 2 / (2.0 * c)) / math.sqrt(c)
        if not _close(got, want, 1e-9, 1e-12):
            return f"contour({x}) = {got}, reference {want}"
    for lo, up in r.cdf:
        if not (0.0 <= lo <= up <= 1.0):
            return f"cdf bounds ({lo}, {up}) not ordered in [0, 1]"
    for bel, pl in r.bel_pl:
        if not (0.0 <= bel <= pl <= 1.0):
            return f"bel/pl ({bel}, {pl}) not ordered in [0, 1]"
    for pi, nec in r.poss_nec:
        if not (0.0 <= nec <= pi <= 1.0):
            return f"necessity/possibility ({nec}, {pi}) not ordered in [0, 1]"
    cg = np.asarray(r.contour_grid)
    want = np.exp(-h * (case.grid - mu) ** 2 / (2.0 * c)) / math.sqrt(c)
    if cg.shape != case.grid.shape or not np.all(np.abs(cg - want) <= 1e-12 + 1e-9 * want):
        return "grid contour differs from the reference"
    lo, up = (np.asarray(a) for a in r.cdf_grid)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
        return "grid cdf bounds not finite"
    if not (np.all(lo >= 0.0) and np.all(lo <= up) and np.all(up <= 1.0)):
        return "grid cdf bounds not ordered in [0, 1]"
    if np.any(np.diff(lo) < -1e-12) or np.any(np.diff(up) < -1e-12):
        return "grid cdf bounds decrease"
    return None


def verify(cases, kept) -> dict:
    """Pool index -> failure message for every input with a wrong result."""
    bad, refs = {}, {}
    for _, j, res in kept:
        if j in bad:
            continue
        if j not in refs:
            refs[j] = reference_fusion(cases[j].obs, cases[j].experts)
        msg = check(cases[j], res, refs[j])
        if msg:
            bad[j] = msg
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(td, loop, cases) -> dict:
    def us(name):
        d = td.durations(name)
        return float(np.median(d)) / 1e3 if len(d) else 0.0

    def ns_per_point(name):
        d = td.durations(name)
        return float(np.median(d)) / GRID if len(d) else 0.0

    op_ns = float(td.op_dur.sum())
    per_input, _ = first_counts_per_input(td, len(cases))
    normal_calls = per_input[:, td.counter_names.index("normal.calls")]
    return {
        "grfn.construct_us": (us("grfn.GRFN"), "us"),
        "grfn.combine_us": (us("grfn.combine"), "us"),
        "grfn.contour_us": (us("grfn.contour"), "us"),
        "grfn.cdf_bounds_us": (us("grfn.cdf_bounds"), "us"),
        "grfn.bel_pl_us": (us("grfn.bel_pl"), "us"),
        "grfn.cdf_bounds_grid_ns_per_point": (ns_per_point("grfn.cdf_bounds_grid"), "ns"),
        "grfn.contour_grid_ns_per_point": (ns_per_point("grfn.contour_grid"), "ns"),
        "grfn.busy_share": (td.layer_busy_ns["grfn"] / op_ns, "share"),
        "inference.predictive_us": (us("inference.gaussian_mean_predictive"), "us"),
        "fuzzy.possibility_necessity_us": (us("fuzzy.possibility_necessity"), "us"),
        "normal.calls_per_op": (float(np.mean(normal_calls)), "count"),
        "normal.busy_share": (td.layer_busy_ns["normal"] / op_ns, "share"),
    }
