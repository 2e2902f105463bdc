"""Tests of the benchmark itself.

Run with:

    python3 -m pytest -q perfbench/selftest.py

A one-second run of each workload, untraced and traced, must print every
metric ``BENCHMARK.json`` names, with its unit, and pass its correctness
gate; the counts marked exact must agree between runs at one seed; and
each gate must reject a deliberately perturbed result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

harness.use_checkout_library()

import wl_cli  # noqa: E402
import wl_oracle  # noqa: E402
import wl_scalar  # noqa: E402
import wl_vector  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
SEED = 7
EXACT = ("linalg.eig_calls_per_op.", "linalg.factor_calls_per_op.", "linalg.inverse_calls_per_op.",
         "normal.calls_per_op", "randomset.blocks", "grfv.conflict_rejections.", "randomset.band_misses")


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = _run(w["name"], trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            out[w["name"], trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)


def test_exact_counts_repeat_between_runs_at_one_seed(runs):
    traced = [r["metrics"] for (w, t), r in runs.items() if t == 1]
    exact = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith(EXACT)]
    assert len(exact) == 3 * 4 + 1 + 1 + 4 + 1
    for name in exact:
        assert len({m[name]["value"] for m in traced}) == 1, name


def test_refuses_to_run_without_the_library():
    bare = os.path.join(harness.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("scalar-queries", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each gate rejects a perturbed result


def _nudge(x: float) -> float:
    return x * (1.0 + 1e-6) + 1e-6


def test_scalar_gate():
    cases = wl_scalar.build(SEED)
    op = wl_scalar.bind(wl_scalar.api())
    res = op(cases[0])
    ref = wl_scalar.reference_fusion(cases[0].obs, cases[0].experts)
    assert wl_scalar.check(cases[0], res, ref) is None
    from erfs import GRFN

    f = res.fused
    bad = [
        dataclasses.replace(res, fused=GRFN(_nudge(f.mu), f.sigma2, f.h)),
        dataclasses.replace(res, fused=GRFN(f.mu, _nudge(f.sigma2), f.h)),
        dataclasses.replace(res, kappas=[_nudge(res.kappas[0])] + res.kappas[1:]),
        dataclasses.replace(res, bel_pl=[(0.6, 0.5)] + res.bel_pl[1:]),
        dataclasses.replace(res, cdf=[(0.6, 0.5)] + res.cdf[1:]),
        dataclasses.replace(res, contour=[_nudge(res.contour[0])] + res.contour[1:]),
    ]
    for r in bad:
        assert wl_scalar.check(cases[0], r, ref) is not None


def test_vector_gate():
    cases = wl_vector.build(SEED)
    op = wl_vector.bind(wl_vector.api())
    small = cases[0]
    res = op(small)
    ref = wl_vector.reference(small)
    assert res.fused is not None and wl_vector.check(small, res, ref) is None
    from erfs import GRFV

    g = res.fused
    assert wl_vector.check(small, dataclasses.replace(res, fused=GRFV(g.mu + 1e-6, g.Sigma, g.H)), ref) is not None
    assert wl_vector.check(small, dataclasses.replace(res, kappa=res.kappa + 1e-6), ref) is not None
    assert wl_vector.check(small, dataclasses.replace(res, fused=None), ref) is not None
    assert wl_vector.check(small, dataclasses.replace(res, contour=res.contour * 1.001), ref) is not None
    big = next(c for c in cases if c.p == 200)
    res_big = op(big)
    ref_big = wl_vector.reference(big)
    assert wl_vector.check(big, res_big, ref_big) is None
    if res_big.fused is None:
        # a rejection whose independent log(1 - kappa) is above the cutoff fails
        above = dataclasses.replace(ref_big, log1mk=-1.0)
        assert wl_vector.check(big, res_big, above) is not None


def test_oracle_gate():
    cases = wl_oracle.build(SEED)
    op = wl_oracle.bind(wl_oracle.api())
    kept = [(j, j, op(c)) for j, c in enumerate(cases)]
    assert wl_oracle.verify(cases, kept) == {}
    n = len(cases) // 2
    value, stderr, count = kept[n][2][0]
    not_identical = list(kept)
    not_identical[n] = (n, n, ((value * (1.0 + 1e-15) + 1e-300, stderr, count),) + kept[n][2][1:])
    assert n in wl_oracle.verify(cases, not_identical)
    # a closed form off by 10 standard errors: the alarm and its replicate both miss
    idx0 = [j for j, c in enumerate(cases) if c.index == 0]
    (name, ref), = cases[0].checks
    wrong = list(cases)
    for j in idx0:
        wrong[j] = dataclasses.replace(cases[j], checks=((name, ref + 10.0 * kept[j][2][0][1]),))
    assert set(wl_oracle.verify(wrong, kept)) == set(idx0)
    # an estimate off by 10 standard errors alone is not confirmed by the replicate
    outside = list(kept)
    for j in idx0:
        (v, se, c), = kept[j][2]
        outside[j] = (j, j, ((v + 10.0 * se, se, c),))
    assert wl_oracle.verify(cases, outside) == {}
    assert wl_oracle.sidak_z(1) == pytest.approx(2.5758293, abs=1e-6)


def test_cli_gate():
    cases = wl_cli.build(SEED)
    op = wl_cli.bind(wl_cli.api())
    for case in cases:
        res = op(case)
        want = wl_cli.expected(case)
        assert wl_cli.check(case, res, want) is None
        code, out, err = res
        assert wl_cli.check(case, (1, out, err), want) is not None
        tampered = out.replace("0", "1", 1) if "0" in out else out + "1"
        assert wl_cli.check(case, (0, tampered, err), want) is not None


def test_scipy_import_parser():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     numpy.x",
        "import time:        40 |         45 |   scipy.special",
        "import time:       100 |        180 | erfs._normal",
    ])
    assert wl_cli.scipy_import_ms(log) == pytest.approx(0.075)
