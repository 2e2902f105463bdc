"""numpy and the Monte-Carlo engine load only where they are needed, and
scipy nowhere.

A scalar ``erfs`` call (a GRFN, GFN or triangular document, no array)
imports neither numpy nor scipy nor ``concurrent.futures`` nor
``dataclasses``; array queries load numpy but no scipy module, and no
module of the package imports scipy, nor ``dataclasses`` (but for
``randomset.MCConfig``), ``typing`` or ``abc``.  Each test runs a fresh
interpreter, since this test process has long imported all of them
through other tests.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import erfs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(erfs.__file__)))

# prints the last output line: ``result`` plus the heavy modules loaded so far
REPORT = r"""
import json, sys
result = globals().get("result", {})
result["loaded"] = sorted(m for m in sys.modules
                          if m.split(".")[0] in ("numpy", "scipy", "dataclasses")
                          or m.startswith("concurrent.futures"))
result["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(result))
"""

IMPORT_ONLY = "import erfs\n" + REPORT

CLI_SCALAR_CALLS = r"""
import json, os, sys, tempfile
from erfs.cli import main

d = tempfile.mkdtemp()
paths = []
for i, (mu, s2, h) in enumerate([(0.0, 1.0, 1.0), (0.5, 0.5, 2.0), (-1.0, 0.3, 0.5)]):
    paths.append(os.path.join(d, f"{i}.json"))
    with open(paths[-1], "w") as fh:
        json.dump({"type": "grfn", "mu": mu, "sigma2": s2, "h": h}, fh)
codes = [
    main(["cdf", paths[0], "--at", "0.3"]),
    main(["belpl", paths[0], "--lo", "-1", "--hi", "1"]),
    main(["combine", *paths]),
    main(["conflict", paths[0], paths[1]]),
    main(["expect", paths[0]]),
    main(["eval", paths[0], "--grid", "-2:2:0.5"]),
    main(["eval", "--type", "gfn", "--mode", "0", "--precision", "2", "--at", "0.5"]),
]
result = {"codes": codes}
""" + REPORT

LAZY_NAMES = r"""
import json, sys
import erfs
before = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")[:1]
resolved = {name: getattr(erfs, name) is not None for name in erfs.__all__}
listed = [name for name in erfs.__all__ if name not in dir(erfs)]
from erfs import GRFV, MCConfig, randomset
from erfs.fuzzy import GFV, product
print(json.dumps({"before": before, "resolved": all(resolved.values()), "missing_dir": listed,
                  "grfv": GRFV is erfs.grfv.GRFV, "mc": MCConfig is randomset.MCConfig,
                  "gfv": erfs.fuzzy.GFV is GFV is erfs.GFV is erfs.grfv.GFV,
                  "height": product(GFV([0.0], [[1.0]]), GFV([1.0], [[1.0]])).height}))
"""

VECTOR_MODELS = r"""
import json, sys
import numpy as np
from erfs import GRFV, grfv
from erfs.fuzzy import GFV, product

g1 = GRFV([0.0, 1.0], np.eye(2), np.eye(2))
g2 = GRFV([0.5, 0.0], np.eye(2), 2 * np.eye(2))
f = grfv.combine(g1, g2)
g = f.combined
ext = g.marginalize(1).vacuous_extend(1)
contour = g.contour(np.zeros((3, 2)))
prod = product(GFV([0.0, 1.0], np.eye(2)), GFV([1.0, 0.0], 2 * np.eye(2)))
print(json.dumps({"kappa": f.kappa, "contour": contour.tolist(), "dim": ext.dim,
                  "height": prod.height,
                  "linalg": sorted(m for m in sys.modules if m.startswith("scipy.linalg"))}))
"""


def _run(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_erfs_loads_no_numpy_scipy_or_futures():
    assert _run(IMPORT_ONLY)["loaded"] == []


def test_scalar_cli_calls_never_import_scipy():
    # nor numpy, nor concurrent.futures, nor dataclasses
    out = _run(CLI_SCALAR_CALLS)
    assert out["codes"] == [0] * 7
    assert out["loaded"] == []


def test_lazy_names_resolve_and_are_listed():
    out = _run(LAZY_NAMES)
    assert out["before"] == []          # getattr below is what loads numpy
    assert out["resolved"] and out["missing_dir"] == []
    assert out["grfv"] and out["mc"] and out["gfv"]
    assert abs(out["height"] - math.exp(-0.25)) < 1e-15


@pytest.mark.parametrize("module", ("grfn", "grfv", "fuzzy", "randomset", "inference"))
def test_submodule_exports_resolve(module):
    # a name removed from a module must leave its __all__ too
    mod = importlib.import_module(f"erfs.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


ARRAY_QUERIES = r"""
import numpy as np
from erfs import GRFN
from erfs.cli import main
from erfs.grfn import TriangularGaussian

codes = [
    main(["cdf", "--type", "grfn", "--mu", "0", "--sigma2", "1", "--h", "1", "--grid", "-1:1:0.5"]),
    main(["plotdata", "--example3", "--mu", "0", "--sigma", "1", "--a", "1.5", "--grid", "-2:2:0.5"]),
]
xs = np.linspace(-3.0, 3.0, 7)
lower, upper = GRFN(0.2, 0.5, 2.0).cdf_bounds(xs)
tri_lower, tri_upper = TriangularGaussian(0.0, 1.0, 1.5).cdf_bounds(xs)
result = {"codes": codes, "ordered": bool(np.all(lower <= upper) and np.all(tri_lower <= tri_upper))}
""" + REPORT


def test_array_queries_never_import_scipy():
    # the normal cdf of an array maps math.erfc: grids need numpy alone
    out = _run(ARRAY_QUERIES)
    assert out["codes"] == [0, 0] and out["ordered"]
    assert out["scipy"] == []


def test_no_module_imports_scipy():
    modules = sorted(f for f in os.listdir(os.path.join(SRC, "erfs")) if f.endswith(".py"))
    assert "_normal.py" in modules and "cli.py" in modules
    found = {m: _dependencies(_parse(m), lambda n: n.split(".")[0] == "scipy") for m in modules}
    assert {m: f for m, f in found.items() if f} == {}


def test_vector_models_never_import_scipy_linalg():
    # numpy and scipy bundle separate BLAS builds: the vector kernel uses numpy's only
    out = _run(VECTOR_MODELS)
    assert out["linalg"] == []
    assert 0.0 < out["kappa"] < 1.0
    assert all(0.0 < c <= 1.0 for c in out["contour"])
    assert out["dim"] == 2 and 0.0 < out["height"] <= 1.0


# the scalar layer: these modules must run on ``math`` alone
SCALAR_MODULES = ("fuzzy.py", "grfn.py", "inference.py", "interval.py", "errors.py", "_value.py")


def _array_dependencies(tree: ast.AST) -> list[str]:
    """Imports of numpy, scipy or ``._linalg`` and calls of ``load_numpy``, at any depth."""
    return _dependencies(tree, lambda n: n.split(".")[0] in ("numpy", "scipy")
                         or n in ("._linalg", "load_numpy()"))


def _dependencies(tree: ast.AST, wanted) -> list[str]:
    """Imports and ``load_numpy`` calls whose name ``wanted`` accepts, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # the module, and each name as a submodule
            base = "." * node.level + (node.module or "")
            names = [base] + [base + ("." if node.module else "") + a.name for a in node.names]
        elif isinstance(node, ast.Call):
            f = node.func
            names = ["load_numpy()"] if getattr(f, "id", getattr(f, "attr", None)) == "load_numpy" else []
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if wanted(n)]
    return found


def _parse(module: str) -> ast.AST:
    with open(os.path.join(SRC, "erfs", module), encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("module", SCALAR_MODULES)
def test_scalar_modules_never_reach_for_numpy(module):
    assert _array_dependencies(_parse(module)) == []


@pytest.mark.parametrize("module", SCALAR_MODULES + ("_normal.py", "cli.py", "__init__.py"))
def test_scalar_path_never_imports_dataclasses_or_typing(module):
    # ``import dataclasses`` costs a scalar call more than its answer does; a ``.pth``
    # hook run by ``site`` may load ``typing`` first, so the source is checked for it
    found = _dependencies(_parse(module), lambda n: n.split(".")[0] in ("dataclasses", "typing"))
    assert found == []


def test_no_module_imports_dataclasses_typing_or_abc():
    # every record is a slotted class on erfs._value and every sampler a plain class, but
    # MCConfig: the benchmark's oracle gate derives a replicate's config by dataclasses.replace
    modules = sorted(f for f in os.listdir(os.path.join(SRC, "erfs")) if f.endswith(".py"))
    assert "randomset.py" in modules and "inference.py" in modules
    heavy = ("dataclasses", "typing", "abc")
    found = {m: _dependencies(_parse(m), lambda n: n.split(".")[0] in heavy) for m in modules}
    found["randomset.py"] = [f for f in found["randomset.py"] if ": dataclasses" not in f]
    assert {m: f for m, f in found.items() if f} == {}


def _from_fuzzy(name: str) -> bool:
    return name in (".fuzzy", "erfs.fuzzy") or name.startswith((".fuzzy.", "erfs.fuzzy."))


@pytest.mark.parametrize("module", ("grfn.py", "grfv.py"))
def test_model_modules_never_import_fuzzy(module):
    # erfs.fuzzy builds its product on the models' _fuse, never the reverse
    assert _dependencies(_parse(module), _from_fuzzy) == []


MODEL_CLASSES = ("GFN", "GFV", "GRFN", "GRFV", "TriangularGaussian")


def _named(tree: ast.AST, names) -> list[str]:
    """Identifiers, attributes and imported names in ``names``, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        found += [f"line {node.lineno}: {name}"] if name in names else []
    return found


def test_cli_names_no_model_class():
    # the CLI asks a document for the method its query names; it never tests the model type
    assert _named(_parse("cli.py"), MODEL_CLASSES) == []


def test_model_name_scan_sees_every_spelling():
    tree = ast.parse("from .grfn import GFN as G\nimport x.GRFV\nisinstance(d, grfn.GRFN)\n"
                     "TriangularGaussian(0, 1, 1)\nGRFNX = 'GFV'\n")
    assert [s.split(": ")[1] for s in _named(tree, MODEL_CLASSES)] == [
        "GFN", "GRFV", "GRFN", "TriangularGaussian"]


def test_array_dependency_scan_sees_nested_uses():
    tree = ast.parse("def f():\n    import numpy.linalg\n    from ._linalg import check_psd\n"
                     "    from . import _linalg\n    from scipy import special\n"
                     "    return load_numpy(), _normal.load_numpy()\n")
    assert [s.split(": ")[1] for s in _array_dependencies(tree)] == [
        "numpy.linalg", "._linalg", "._linalg", "scipy", "scipy.special", "load_numpy()", "load_numpy()"]


def test_fuzzy_import_scan_sees_every_spelling():
    tree = ast.parse("from .fuzzy import ProductResult\nfrom . import fuzzy\nimport erfs.fuzzy\n"
                     "from .fuzzy_sets import x\n")
    assert [s.split(": ")[1] for s in _dependencies(tree, _from_fuzzy)] == [
        ".fuzzy", ".fuzzy.ProductResult", ".fuzzy", "erfs.fuzzy"]
