"""The names the benchmark's workloads call and patch still exist.

``perfbench/run.py --trace 1`` replaces library names with counting
wrappers (each workload's ``boundaries``) and every run calls the
workload's ``api``; a renamed or deleted name would only show when the
benchmark runs.  A stub tracer makes both calls here without running a
benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted(p.stem for p in PERFBENCH.glob("wl_*.py"))


@pytest.fixture(scope="module", autouse=True)
def perfbench_on_path():
    sys.path.insert(0, str(PERFBENCH))
    yield
    sys.path.remove(str(PERFBENCH))


class StubTracer:
    def boundary(self, counter, fn):
        return fn

    def counter(self, name):
        return [0]


def test_workloads_found():
    assert len(WORKLOADS) >= 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_api_and_boundaries_resolve(workload):
    wl = importlib.import_module(workload)
    calls = wl.api()
    assert calls and all(callable(fn) for fn in calls.values())
    for module, attr, replacement in wl.boundaries(StubTracer()):
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
        assert callable(replacement)


def test_oracle_battery_resolves():
    # the mc-oracle checks take their references from randomset's closed forms
    assert importlib.import_module("wl_oracle").battery()


def test_oracle_realize_timing_runs():
    # mc-oracle's per-layer realize timing is perfbench's one direct call into a sampler
    ns = importlib.import_module("wl_oracle").realize_ns_per_sample(reps=1)
    assert 0.0 < ns < float("inf")
