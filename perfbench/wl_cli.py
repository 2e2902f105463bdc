"""Workload ``cli-calls``: short ``erfs`` command-line calls, one at a time.

Each op is one ``python -m erfs.cli`` subprocess, the way the ``erfs``
console script runs, on generated GRFN documents.  The mix, per document
set: ``cdf --at``, ``cdf --grid``, ``combine`` (three documents),
``belpl`` and ``eval --grid``; grids have 801 points.

Why: interpreter start and imports are about 90% of each call, in-process
optimisations move nothing here, and no other workload measures the
``cli`` layer.

Correctness gate: exit code 0, and stdout parsed back equals the library's
in-process result (JSON floats exactly; CSV fields as the CLI rounds them,
12 significant digits).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from harness import OUT_DIR, ROOT, SRC

NAME = "cli-calls"
TAIL_PCT = 75
TAIL_INPUT_PCT = 75
KEEP_EVERY = 1
SETS = 1
KINDS = ("cdf", "cdf-grid", "combine", "belpl", "eval-grid")
CALL_TIMEOUT_S = 60


@dataclass(frozen=True)
class Case:
    kind: str
    args: tuple         # arguments after ``erfs``
    docs: tuple         # (mu, sigma2, h) of each document the call reads
    query: tuple        # point, (lo, hi) or grid (start, stop, step)


def doc_dir(seed: int) -> str:
    return os.path.join(OUT_DIR, "cli-docs", f"seed{seed}")


def build(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 4])
    folder = doc_dir(seed)
    os.makedirs(folder, exist_ok=True)
    cases = []
    for s in range(SETS):
        params = [(float(rng.normal(0.0, 1.0)), float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 5.0)))
                  for _ in range(3)]
        paths = []
        for k, (mu, s2, h) in enumerate(params):
            path = os.path.join(folder, f"set{s}-doc{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"type": "grfn", "mu": mu, "sigma2": s2, "h": h}, fh)
            paths.append(path)
        mu = params[0][0]
        y = float(mu + rng.uniform(-2.0, 2.0))
        lo = float(mu + rng.uniform(-2.0, 0.0))
        hi = float(lo + rng.uniform(0.1, 3.0))
        start = round(mu - 4.0, 2)
        grid = (start, round(start + 8.0, 2), 0.01)
        grid_arg = f"--grid={grid[0]!r}:{grid[1]!r}:{grid[2]!r}"
        doc = paths[0]
        cases += [
            Case("cdf", ("cdf", doc, f"--at={y!r}"), params[:1], (y,)),
            Case("cdf-grid", ("cdf", doc, grid_arg), params[:1], grid),
            Case("combine", ("combine", *paths), tuple(params), ()),
            Case("belpl", ("belpl", doc, f"--lo={lo!r}", f"--hi={hi!r}"), params[:1], (lo, hi)),
            Case("eval-grid", ("eval", doc, grid_arg), params[:1], grid),
        ]
    return cases


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def api() -> dict:
    env = cli_env()

    def run_call(args) -> tuple:
        """One ``erfs`` call: (exit code, stdout, stderr)."""
        proc = subprocess.run([sys.executable, "-m", "erfs.cli", *args], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=CALL_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    return {f"cli.{kind}": run_call for kind in KINDS}


def boundaries(tracer) -> list:
    return []


def bind(calls: dict):
    def op(c: Case) -> tuple:
        return calls[f"cli.{c.kind}"](c.args)

    return op


def warm_op(cases) -> None:
    """In-process ``erfs.cli.main`` on the first call of the mix, output discarded."""
    from erfs import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(cases[0].args))


# ---------------------------------------------------------------------------
# correctness gate


def _g12(v: float) -> float:
    return float(f"{v:.12g}")


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """The CLI's documented grid: ``start:stop:step``, stop included when on the grid."""
    return np.arange(start, stop + 0.5 * step, step)


def _csv(text: str, header: str | None) -> list[list[float]]:
    lines = text.strip().splitlines()
    if header is not None:
        if not lines or lines[0] != header:
            raise ValueError(f"missing CSV header {header!r}")
        lines = lines[1:]
    return [[float(f) for f in line.split(",")] for line in lines]


def expected(case: Case):
    """The in-process result the call must print."""
    from erfs import GRFN, Interval, grfn

    g = GRFN(*case.docs[0])
    if case.kind == "cdf":
        lower, upper = g.cdf_bounds(case.query[0])
        return {"y": case.query[0], "lower": lower, "upper": upper}
    if case.kind == "belpl":
        bel, pl = g.bel_pl(Interval(*case.query))
        return {"bel": bel, "pl": pl}
    if case.kind == "combine":
        acc, kappas = g, []
        for params in case.docs[1:]:
            f = grfn.combine(acc, GRFN(*params))
            acc = f.combined
            kappas.append(_g12(f.kappa))
        return kappas, {"type": "grfn", **acc.to_dict()}
    xs = grid_points(*case.query)
    if case.kind == "cdf-grid":
        lower, upper = g.cdf_bounds(xs)
        return [[_g12(x), _g12(lo), _g12(up)] for x, lo, up in zip(xs, lower, upper)]
    return [[_g12(x), _g12(g.contour(float(x)))] for x in xs]


def check(case: Case, res: tuple, want) -> str | None:
    code, out, err = res
    if code != 0:
        return f"erfs {' '.join(case.args)} exited {code}: {err.strip()[-200:]}"
    try:
        if case.kind in ("cdf", "belpl"):
            got = json.loads(out)
        elif case.kind == "combine":
            lines = out.strip().splitlines()
            kappas = [_g12(float(line.split("kappa=", 1)[1])) for line in lines[:-1]]
            got = (kappas, json.loads(lines[-1]))
        else:
            got = _csv(out, "x,lower,upper" if case.kind == "cdf-grid" else None)
    except (ValueError, IndexError) as exc:
        return f"erfs {case.kind}: unparseable output ({exc})"
    if got != want:
        return f"erfs {case.kind}: output differs from the in-process result"
    return None


def verify(cases, kept) -> dict:
    bad, wants = {}, {}
    for _, j, res in kept:
        if j in bad:
            continue
        if j not in wants:
            wants[j] = expected(cases[j])
        msg = check(cases[j], res, wants[j])
        if msg:
            bad[j] = msg
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics


def _wall_ms(argv, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run(argv, capture_output=True, env=cli_env(), cwd=ROOT,
                       timeout=CALL_TIMEOUT_S, check=True)
        times.append(perf_counter() - t0)
    return float(np.median(times)) * 1e3


def scipy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the outermost ``scipy`` modules in a
    ``-X importtime`` log, in ms."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total, stack = 0, []
    for depth, cumulative, name in reversed(entries):   # parents print after their children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += cumulative
        stack.append((depth, name))
    return total / 1e3


def probe_metrics(reps: int = 3) -> dict:
    """Interpreter start, ``import erfs.cli`` and scipy's share of it, each
    timed in fresh interpreters."""
    interp = _wall_ms([sys.executable, "-c", "pass"], reps)
    imported = _wall_ms([sys.executable, "-c", "import erfs.cli"], reps)
    log = subprocess.run([sys.executable, "-X", "importtime", "-c", "import erfs.cli"],
                         capture_output=True, text=True, env=cli_env(), cwd=ROOT,
                         timeout=CALL_TIMEOUT_S, check=True).stderr
    return {
        "cli.interpreter_ms": (interp, "ms"),
        "cli.import_ms": (imported - interp, "ms"),
        "cli.import_scipy_ms": (scipy_import_ms(log), "ms"),
    }


def layer_metrics(td, loop, cases) -> dict:
    out = {}
    for kind in KINDS:
        d = td.durations(f"cli.{kind}")
        out[f"cli.call_ms.{kind}"] = (float(np.median(d)) / 1e6 if len(d) else 0.0, "ms")
    out.update(probe_metrics())
    return out
