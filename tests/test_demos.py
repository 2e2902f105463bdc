"""Every demo script runs to completion in a fresh interpreter, silently on stderr,
and README's quick tour gives the values its comments name."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    # a numpy RuntimeWarning (overflow, invalid value) is an error, and stderr stays empty
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""


def _readme_tour():
    """Run README's "Library quick tour" block one statement at a time: its
    namespace, and the value of each expression statement by its source."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    return ns, values


def test_readme_quick_tour():
    ns, values = _readme_tour()
    GFN, GRFN = ns["GFN"], ns["GRFN"]
    product = ns["r"].product
    assert type(product) is GFN
    assert (product.mode, product.precision) == pytest.approx((0.625, 0.8), rel=1e-15)
    assert values["f.combined"] == GRFN(0.0, 0.5, 2.0)
    assert values["f.kappa"] == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-15)
    g = ns["g"]
    assert values["g.contour(0.0)"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    ray = values["g.bel_pl(Interval(-math.inf, 0.0))"]
    assert ray == values["g.cdf_bounds(0.0)"] == g.cdf_bounds(0.0)
    bel, pl = values["g.bel_pl(Interval(-1.0, 1.0))"]
    assert 0.0 <= bel <= pl <= 1.0
    nec, pos = values["GFN(0.0, 2.0).bel_pl(Interval(1.0, math.inf))"]
    assert (nec, pos) == pytest.approx((0.0, math.exp(-1.0)), rel=1e-15)
    r = math.sqrt(math.pi / 2.0)
    assert values["g.expectation_bounds()"] == pytest.approx((-r, r), rel=1e-15)
    mc_bel, mc_pl = values["mc_bel_pl(GrfnSampler(g), Interval(-1, 1), MCConfig(seed=42, samples=10**6))"]
    assert mc_bel.within(bel) and mc_pl.within(pl)
