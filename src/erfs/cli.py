"""Command-line front end.

Evidence documents are JSON objects whose ``type`` (``gfn``, ``gfv``,
``grfn``, ``grfv``, ``triangular-gaussian``) names the model whose
constructor's arguments are the other fields: a JSON number or ``"inf"``,
or a nested array of numbers for a vector model; anything else exits 2.
Documents are read from files or stdin (``-``); results go to stdout as
JSON for point queries and as plain CSV ('.' decimal, no locale) for grids.  A document answers a query if and only
if its model has the method the query names (``contour``, ``cdf_bounds``,
``expectation_bounds``, ``bel_pl``); otherwise the call exits 2.  Two
documents fuse by their common type, the one the other subclasses: two
GFNs or two GFVs by their product, a GRFN or GRFV pair (a GFN is
``GRFN(mode, 0, precision)``, a GFV ``GRFV(mode, 0, precision)``) by its
module's ``combine``.

Grids are written ``start:stop:step``; the stop value is included when it
falls on the grid (within half a step).  Grid parts and ``--at`` values
must be finite, and a grid has at most ``MAX_GRID_POINTS`` (10^6) points.
``ERFS_SEED`` overrides ``--seed`` for the Monte-Carlo commands.

Imports follow the query.  A GFN, GRFN or triangular document answered
without an array (``cdf --at``, ``belpl``, ``combine``, ``conflict``,
``expect``, ``eval``) runs on ``math`` alone and loads neither numpy nor
``dataclasses``: every model type is a slotted class on ``erfs._value``.
numpy is loaded by the array queries (``cdf --grid``, ``plotdata``), by
vector documents (``gfv``, ``grfv``) and by ``mc-check``.  No call loads
scipy: the normal cdf is ``math.erfc``, on an array too.

Exit codes: 0 success, 1 fully conflicting evidence, 2 argument or
validation errors, 3 Monte-Carlo cross-check failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys

from . import fuzzy
from .errors import ContradictoryEvidence, ErfsError
from .interval import Interval

# document ``type`` -> (erfs module, model), an ``erfs._value.Model``.  A model's
# module is imported when a document of its type is read, so the vector types
# load numpy only for vector documents.
_TYPES = {"gfn": ("grfn", "GFN"), "gfv": ("grfv", "GFV"), "grfn": ("grfn", "GRFN"),
          "grfv": ("grfv", "GRFV"), "triangular-gaussian": ("grfn", "TriangularGaussian")}
_KINDS = {model: kind for kind, (_, model) in _TYPES.items()}

# the largest grid ``parse_grid`` builds; a larger one is an argument error
MAX_GRID_POINTS = 1_000_000


def _model(kind: str):
    module, model = _TYPES[kind]
    return getattr(importlib.import_module(f".{module}", __package__), model)


def _kind(doc) -> str:
    return _KINDS[type(doc).__name__]


def parse_document(d: dict):
    if not isinstance(d, dict):
        raise ErfsError("document must be a JSON object")
    kind = d.get("type")
    if kind is None:
        raise ErfsError("missing field 'type'")
    if not isinstance(kind, str) or kind not in _TYPES:
        raise ErfsError(f"field 'type' must be one of {tuple(_TYPES)}, got '{kind}'")
    return _model(kind).from_dict(d)


def document_to_dict(obj) -> dict:
    return {"type": _kind(obj), **obj.to_dict()}


def load_document(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ErfsError(f"cannot read document '{path}': {exc}") from exc
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise ErfsError(f"document '{path}' is not valid JSON: {exc}") from exc
    return parse_document(payload)


def _inline_document(args):
    if args.type is None:
        return None
    d = {"type": args.type}
    for field in ("mode", "precision", "mu", "sigma2", "sigma", "h", "a"):
        v = getattr(args, field, None)
        if v is not None:
            d[field] = v if v == "inf" else float(v)
    return parse_document(d)


def _resolve_document(args):
    doc = _inline_document(args)
    if doc is not None:
        if getattr(args, "document", None):
            raise ErfsError("give either a document file or --type parameters, not both")
        return doc
    if not getattr(args, "document", None):
        raise ErfsError("missing evidence document (file argument or --type ...)")
    return load_document(args.document)


def parse_grid(text: str) -> list[float]:
    """The points of ``start:stop:step`` as Python floats.

    Bit for bit the points of ``np.arange(start, stop + step/2, step)``: its
    length, its first two points ``start`` and ``start + step``, then
    ``start + i*delta`` with ``delta = (start + step) - start``.  Raises
    ``ErfsError`` when the grid has more than ``MAX_GRID_POINTS`` points.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ErfsError(f"field 'grid' must be start:stop:step, got '{text}'")
    try:
        start, stop, step = (_finite(p, "--grid") for p in parts)
    except ValueError as exc:
        raise ErfsError(f"field 'grid' has non-numeric parts: '{text}'") from exc
    if step <= 0.0 or stop < start:
        raise ErfsError("field 'grid' requires start <= stop and step > 0")
    count = (stop + 0.5 * step - start) / step
    if not count <= MAX_GRID_POINTS:  # also an overflowing count (inf)
        raise ErfsError(f"field 'grid' has more than {MAX_GRID_POINTS} points: '{text}'")
    n = math.ceil(count)
    second = start + step
    delta = second - start
    return [start, second][:n] + [start + i * delta for i in range(2, n)]


def _mc_config(args):
    from .randomset import MCConfig

    seed = args.seed
    env = os.environ.get("ERFS_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ErfsError(f"ERFS_SEED must be an integer, got '{env}'") from exc
    return MCConfig(seed=seed, samples=args.samples, workers=args.workers)


def _print_json(obj) -> None:
    print(json.dumps(obj, allow_nan=False))


def _print_csv(header: str, *columns) -> None:
    print(header)
    for row in zip(*columns):
        print(",".join(f"{v:.12g}" for v in row))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    doc = _resolve_document(args)
    dim = getattr(doc, "dim", None)  # a vector document's points are x1,x2,...
    for x in _points(args):
        v = doc.contour(_finite(x) if dim is None else _vector(x, dim))
        label = x if isinstance(x, str) else f"{float(x):.12g}"
        print(f"{label},{v:.12g}")
    return 0


def _points(args):
    if args.grid is not None:
        if args.at:
            raise ErfsError("give either --at or --grid, not both")
        return parse_grid(args.grid)
    if not args.at:
        raise ErfsError("missing query points: use --at or --grid")
    return args.at


def _finite(text, flag: str = "--at") -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ErfsError(f"{flag} must be finite, got '{text}'")
    return x


def _vector(text, dim: int) -> list[float]:
    try:
        v = [_finite(p) for p in str(text).split(",")]
    except ValueError as exc:
        raise ErfsError(f"point '{text}' is not a comma-separated vector") from exc
    if len(v) != dim:
        raise ErfsError(f"point '{text}' has dim {len(v)}, document has dim {dim}")
    return v


def _query(doc, method: str):
    """The document's bound ``method``: the query the subcommand names."""
    fn = getattr(doc, method, None)
    if fn is None:
        raise ErfsError(f"a '{_kind(doc)}' document has no closed-form {method}")
    return fn


def _combine_pair(a, b):
    """Fuse two documents by their common type; returns (combined document, kappa)."""
    ta, tb = type(a), type(b)
    common = tb if issubclass(ta, tb) else ta
    # the model named like its module fuses by the module's combine, its subclass by the product
    base = _model(_TYPES[_KINDS[common.__name__]][0])
    if not (issubclass(tb, common) and issubclass(common, base)):
        raise ErfsError(f"cannot combine documents of types '{ta.__name__}' and '{tb.__name__}'")
    if common is base:
        f = sys.modules[base.__module__].combine(a, b)
        return f.combined, f.kappa
    r = fuzzy.product(a, b)
    return r.product, 1.0 - r.height


def _cmd_combine(args) -> int:
    docs = [load_document(p) for p in args.documents]
    if len(docs) < 2:
        raise ErfsError("combine needs at least two documents")
    acc = docs[0]
    for i, doc in enumerate(docs[1:], start=1):
        acc, kappa = _combine_pair(acc, doc)
        print(f"step {i}: kappa={kappa:.12g}")
    _print_json(document_to_dict(acc))
    return 0


def _cmd_belpl(args) -> int:
    doc, b = _resolve_document(args), Interval(args.lo, args.hi)
    bel, pl = _query(doc, "bel_pl")(b)
    _print_json({"bel": bel, "pl": pl})
    return 0


def _cmd_cdf(args) -> int:
    cdf_bounds = _query(_resolve_document(args), "cdf_bounds")
    if args.grid is not None:
        if args.at is not None:
            raise ErfsError("give either --at or --grid, not both")
        xs = parse_grid(args.grid)
        _print_csv("x,lower,upper", xs, *cdf_bounds(xs))
    elif args.at is None:
        raise ErfsError("missing query point: use --at or --grid")
    else:
        y = _finite(args.at)
        lower, upper = cdf_bounds(y)
        _print_json({"y": y, "lower": lower, "upper": upper})
    return 0


def _cmd_expect(args) -> int:
    lo, hi = _query(_resolve_document(args), "expectation_bounds")()
    _print_json({"lower": lo, "upper": hi})
    return 0


def _cmd_conflict(args) -> int:
    _, kappa = _combine_pair(load_document(args.doc1), load_document(args.doc2))
    _print_json({"kappa": kappa})
    return 0


def _cmd_mc_check(args) -> int:
    from . import randomset

    cfg = _mc_config(args)
    checks = randomset.oracle_suite(cfg)
    failures = 0
    for name, reference, estimate in checks:
        ok = estimate.within(reference)
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(
            f"{status} {name}: closed={reference:.6g} "
            f"mc={estimate.value:.6g} stderr={estimate.stderr:.2g}"
        )
    print(f"{len(checks) - failures}/{len(checks)} checks passed (3-stderr bands)")
    return 0 if failures == 0 else 3


def _cmd_plotdata(args) -> int:
    doc = _resolve_document(args)
    if args.grid is None:
        raise ErfsError("missing --grid for plotdata")
    xs = parse_grid(args.grid)
    _print_csv("x,lower,upper,contour", xs, *_query(doc, "cdf_bounds")(xs), doc.contour(xs))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_document_args(p: argparse.ArgumentParser):
    p.add_argument("document", nargs="?", help="evidence document file or '-' for stdin")
    p.add_argument("--type", choices=_TYPES, help="inline document type")
    p.add_argument("--mode", type=float, help="gfn mode")
    p.add_argument("--precision", help="gfn precision (number or 'inf')")
    p.add_argument("--mu", type=float, help="grfn/triangular location")
    p.add_argument("--sigma2", type=float, help="grfn mode variance")
    p.add_argument("--sigma", type=float, help="triangular mode standard deviation")
    p.add_argument("--h", help="grfn precision (number or 'inf')")
    p.add_argument("--a", type=float, help="triangular half-width")


def _add_mc_args(p: argparse.ArgumentParser, samples: int):
    p.add_argument("--seed", type=int, default=42, help="RNG seed (ERFS_SEED overrides)")
    p.add_argument("--samples", type=int, default=samples, help="Monte-Carlo sample count")
    p.add_argument("--workers", type=int, default=1, help="worker threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erfs",
        description="Evidence algebra for Gaussian random fuzzy numbers and vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="contour/membership at points")
    _add_document_args(p)
    p.add_argument("--at", action="append", help="query point (repeatable; vectors as x1,x2)")
    p.add_argument("--grid", help="grid start:stop:step")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("combine", help="fuse evidence documents")
    p.add_argument("documents", nargs="+", help="two or more document files")
    p.set_defaults(fn=_cmd_combine)

    p = sub.add_parser("belpl", help="belief/plausibility of an interval")
    _add_document_args(p)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.set_defaults(fn=_cmd_belpl)

    p = sub.add_parser("cdf", help="lower/upper cdf at a point or grid")
    _add_document_args(p)
    p.add_argument("--at", help="query point")
    p.add_argument("--grid", help="grid start:stop:step")
    p.set_defaults(fn=_cmd_cdf)

    p = sub.add_parser("expect", help="expectation bounds")
    _add_document_args(p)
    p.set_defaults(fn=_cmd_expect)

    p = sub.add_parser("conflict", help="degree of conflict between two documents")
    p.add_argument("doc1")
    p.add_argument("doc2")
    p.set_defaults(fn=_cmd_conflict)

    p = sub.add_parser("mc-check", help="closed forms vs Monte-Carlo oracle")
    _add_mc_args(p, samples=200_000)
    p.set_defaults(fn=_cmd_mc_check)

    p = sub.add_parser("plotdata", help="CSV curve data over a grid")
    _add_document_args(p)
    p.add_argument("--example3", dest="type", action="store_const", const="triangular-gaussian",
                   help="triangular-with-Gaussian-mode closed forms (--type triangular-gaussian)")
    p.add_argument("--grid", help="grid start:stop:step")
    p.set_defaults(fn=_cmd_plotdata)

    return parser


_DASH_VALUE_FLAGS = ("--grid", "--at", "--lo", "--hi")


def _merge_dash_values(argv):
    """Join ``--grid -4:4:0.01`` and ``--lo -inf`` style pairs so argparse
    does not read the value (which starts with '-') as an option string."""
    merged = []
    for tok in argv:
        if merged and merged[-1] in _DASH_VALUE_FLAGS and tok.startswith("-") and tok != "-":
            merged[-1] += f"={tok}"
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dash_values(list(argv)))
    try:
        return args.fn(args)
    except ContradictoryEvidence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ErfsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
