"""scipy is loaded only where arrays need it, and ``scipy.linalg`` never.

Each test runs a fresh interpreter, since this test process has long
imported scipy through other tests.
"""

import json
import os
import subprocess
import sys

import erfs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(erfs.__file__)))

CLI_SCALAR_CALLS = r"""
import json, os, sys, tempfile
from erfs.cli import main

d = tempfile.mkdtemp()
paths = []
for i, (mu, s2, h) in enumerate([(0.0, 1.0, 1.0), (0.5, 0.5, 2.0)]):
    paths.append(os.path.join(d, f"{i}.json"))
    with open(paths[-1], "w") as fh:
        json.dump({"type": "grfn", "mu": mu, "sigma2": s2, "h": h}, fh)
codes = [
    main(["cdf", paths[0], "--at", "0.3"]),
    main(["belpl", paths[0], "--lo", "-1", "--hi", "1"]),
    main(["combine", paths[0], paths[1]]),
    main(["eval", paths[0], "--grid", "-2:2:0.5"]),
]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
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


def test_scalar_cli_calls_never_import_scipy():
    out = _run(CLI_SCALAR_CALLS)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["scipy"] == []


def test_vector_models_never_import_scipy_linalg():
    # numpy and scipy bundle separate BLAS builds: the vector kernel uses numpy's only
    out = _run(VECTOR_MODELS)
    assert out["linalg"] == []
    assert 0.0 < out["kappa"] < 1.0
    assert all(0.0 < c <= 1.0 for c in out["contour"])
    assert out["dim"] == 2 and 0.0 < out["height"] <= 1.0
