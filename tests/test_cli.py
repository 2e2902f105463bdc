"""Tests for the erfs command-line interface."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import erfs
from erfs import randomset
from erfs.cli import MAX_GRID_POINTS, main, parse_grid
from erfs.errors import ErfsError
from erfs.grfn import GRFN
from erfs.randomset import MCEstimate, triangular_gaussian_cdf_bounds


def write_doc(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture()
def gfn_pair(tmp_path):
    a = write_doc(tmp_path, "a.json", {"type": "gfn", "mode": 0.0, "precision": 0.3})
    b = write_doc(tmp_path, "b.json", {"type": "gfn", "mode": 1.0, "precision": 0.5})
    return a, b


class TestCombine:
    def test_gfn_pair_prints_product_and_conflict(self, gfn_pair, capsys):
        a, b = gfn_pair
        assert main(["combine", a, b]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        kappa = float(out[0].split("kappa=")[1])
        assert kappa == pytest.approx(1.0 - math.exp(-0.09375), abs=1e-12)
        doc = json.loads(out[1])
        assert doc["type"] == "gfn"
        assert doc["mode"] == pytest.approx(0.625, abs=1e-12)
        assert doc["precision"] == pytest.approx(0.8, abs=1e-12)

    def test_grfn_pair(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", {"type": "grfn", "mu": 0.0, "sigma2": 1.0, "h": 1.0})
        b = write_doc(tmp_path, "b.json", {"type": "grfn", "mu": 0.0, "sigma2": 1.0, "h": 1.0})
        assert main(["combine", a, b]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        kappa = float(out[0].split("kappa=")[1])
        assert kappa == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)
        doc = json.loads(out[1])
        assert doc == {"type": "grfn", "mu": 0.0, "sigma2": 0.5, "h": 2.0}

    def test_three_way_fold(self, tmp_path, capsys):
        docs = [
            write_doc(tmp_path, f"{i}.json", {"type": "grfn", "mu": float(i), "sigma2": 1.0, "h": 1.0})
            for i in range(3)
        ]
        assert main(["combine", *docs]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # two step lines + result

    def test_mixed_gfn_grfn(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", {"type": "gfn", "mode": 0.0, "precision": 0.3})
        b = write_doc(tmp_path, "b.json", {"type": "grfn", "mu": 1.0, "sigma2": 0.0, "h": 0.5})
        assert main(["combine", a, b]) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["type"] == "grfn"
        assert doc["mu"] == pytest.approx(0.625, abs=1e-12)

    def test_grfv_pair(self, tmp_path, capsys):
        payload = {"type": "grfv", "mu": [0.0, 0.0],
                   "Sigma": [[1.0, 0.0], [0.0, 1.0]], "H": [[1.0, 0.0], [0.0, 1.0]]}
        a = write_doc(tmp_path, "a.json", payload)
        b = write_doc(tmp_path, "b.json", payload)
        assert main(["combine", a, b]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert float(out[0].split("kappa=")[1]) == pytest.approx(0.5, abs=1e-12)

    def test_contradiction_exit_code(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", {"type": "gfn", "mode": 0.0, "precision": "inf"})
        b = write_doc(tmp_path, "b.json", {"type": "gfn", "mode": 1.0, "precision": "inf"})
        assert main(["combine", a, b]) == 1

    def test_incompatible_types_exit_code(self, tmp_path):
        a = write_doc(tmp_path, "a.json", {"type": "gfn", "mode": 0.0, "precision": 1.0})
        b = write_doc(tmp_path, "b.json",
                      {"type": "gfv", "mode": [0.0], "precision": [[1.0]]})
        assert main(["combine", a, b]) == 2


class TestCdf:
    def test_inline_probabilistic_at_mean(self, capsys):
        assert main(["cdf", "--type", "grfn", "--mu", "0", "--sigma2", "1",
                     "--h", "inf", "--at", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == pytest.approx(0.5, abs=1e-15)
        assert out["upper"] == pytest.approx(0.5, abs=1e-15)

    def test_grid_output_monotone(self, capsys):
        assert main(["cdf", "--type", "grfn", "--mu", "0", "--sigma2", "1",
                     "--h", "1", "--grid", "-3:3:0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,lower,upper"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape[0] == 13
        assert np.all(rows[:, 1] <= rows[:, 2])
        assert np.all(np.diff(rows[:, 1]) >= -1e-12)
        assert np.all(np.diff(rows[:, 2]) >= -1e-12)


class TestEvalExpectBelpl:
    def test_eval_gfn_membership(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "gfn", "mode": 0.0, "precision": 2.0})
        assert main(["eval", doc, "--at", "1"]) == 0
        line = capsys.readouterr().out.strip()
        assert float(line.split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_eval_grfv_contour(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "grfv", "mu": [0.0, 0.0],
                                             "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                                             "H": [[1.0, 0.0], [0.0, 1.0]]})
        assert main(["eval", doc, "--at", "0,0"]) == 0
        line = capsys.readouterr().out.strip()
        assert float(line.split(",")[-1]) == pytest.approx(0.5, rel=1e-12)

    def test_eval_negative_vector_point(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "grfv", "mu": [0.0, 0.0],
                                             "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                                             "H": [[1.0, 0.0], [0.0, 1.0]]})
        assert main(["eval", doc, "--at", "-1,0"]) == 0
        line = capsys.readouterr().out.strip()
        assert float(line.split(",")[-1]) == pytest.approx(0.5 * math.exp(-0.25), rel=1e-12)

    def test_expect(self, capsys):
        assert main(["expect", "--type", "grfn", "--mu", "0", "--sigma2", "1",
                     "--h", str(math.pi / 2.0)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == pytest.approx(-1.0, abs=1e-12)
        assert out["upper"] == pytest.approx(1.0, abs=1e-12)

    def test_belpl_interval(self, capsys):
        assert main(["belpl", "--type", "grfn", "--mu", "0", "--sigma2", "1",
                     "--h", "inf", "--lo", "-1", "--hi", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bel"] == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_belpl_gfn_uses_possibility(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "gfn", "mode": 0.0, "precision": 1.0})
        assert main(["belpl", doc, "--lo", "-1", "--hi", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pl"] == 1.0
        assert out["bel"] == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_conflict_command(self, gfn_pair, capsys):
        a, b = gfn_pair
        assert main(["conflict", a, b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kappa"] == pytest.approx(1.0 - math.exp(-0.09375), abs=1e-12)


class TestPlotdata:
    def test_example3_matches_closed_forms(self, capsys):
        assert main(["plotdata", "--example3", "--mu", "0", "--sigma", "1",
                     "--a", "1.5", "--grid", "-4:4:0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,lower,upper,contour"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape[0] == 17
        lower, upper = triangular_gaussian_cdf_bounds(0.0, 1.0, 1.5, rows[:, 0])
        np.testing.assert_allclose(rows[:, 1], lower, atol=1e-10)
        np.testing.assert_allclose(rows[:, 2], upper, atol=1e-10)
        assert np.all(rows[:, 1] <= rows[:, 2])
        assert np.all(np.diff(rows[:, 1]) >= -1e-12)
        assert np.all(np.diff(rows[:, 2]) >= -1e-12)

    def test_grfn_document_curves(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "grfn", "mu": 0.0, "sigma2": 1.0, "h": 1.0})
        assert main(["plotdata", doc, "--grid", "-2:2:1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows[2, 3] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_decimal_point_no_locale(self, capsys):
        main(["plotdata", "--example3", "--mu", "0", "--sigma", "1",
              "--a", "0.5", "--grid", "0:1:0.5"])
        out = capsys.readouterr().out
        assert ";" not in out and "," in out


class TestMcCheck:
    def test_passes_with_default_seed(self, capsys):
        assert main(["mc-check", "--samples", "50000"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_exit_three_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(
            randomset, "oracle_suite",
            lambda cfg: [("forced", 1.0, MCEstimate(0.0, 1e-9, 10))],
        )
        assert main(["mc-check", "--samples", "1000"]) == 3

    def test_env_seed_override(self, monkeypatch):
        captured = {}

        def fake_suite(cfg):
            captured["seed"] = cfg.seed
            return []

        monkeypatch.setattr(randomset, "oracle_suite", fake_suite)
        monkeypatch.setenv("ERFS_SEED", "777")
        main(["mc-check", "--seed", "42", "--samples", "1000"])
        assert captured["seed"] == 777


class TestValidation:
    def test_unknown_type_exit_two(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "bad.json", {"type": "mystery", "mode": 0.0})
        assert main(["eval", doc, "--at", "0"]) == 2
        assert "type" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "bad.json", {"type": "gfn", "mode": 0.0})
        assert main(["eval", doc, "--at", "0"]) == 2
        assert "precision" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["eval", str(p), "--at", "0"]) == 2

    def test_bad_grid(self):
        with pytest.raises(ErfsError):
            parse_grid("1:2")
        with pytest.raises(ErfsError):
            parse_grid("2:1:0.5")
        with pytest.raises(ErfsError):
            parse_grid("a:b:c")

    def test_grid_includes_endpoint(self):
        g = parse_grid("-4:4:0.01")
        assert g[0] == pytest.approx(-4.0)
        assert g[-1] == pytest.approx(4.0)
        assert len(g) == 801

    @pytest.mark.parametrize("grid", ["0:1e12:1e-6", "0:1e8:1", "0:1:1e-320", "0:1e6:1"])
    def test_oversized_grid_is_an_argument_error(self, grid, capsys):
        # 1e-320 is subnormal: the point count overflows to inf
        for argv in (["eval", "--type", "grfn", "--mu", "0", "--sigma2", "1", "--h", "1"],
                     ["cdf", "--type", "grfn", "--mu", "0", "--sigma2", "1", "--h", "1"]):
            code, out, err = _run([*argv, "--grid", grid], capsys)
            assert code == 2 and out == ""
            assert err == f"error: field 'grid' has more than {MAX_GRID_POINTS} points: '{grid}'\n"

    def test_largest_grid_is_accepted(self):
        assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS

    def test_stdin_document(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(
            json.dumps({"type": "gfn", "mode": 0.0, "precision": 2.0})
        ))
        assert main(["eval", "-", "--at", "0"]) == 0
        assert float(capsys.readouterr().out.strip().split(",")[1]) == 1.0

    def test_null_field_is_a_validation_error(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "tg.json",
                        {"type": "triangular-gaussian", "mu": None, "sigma": 1, "a": 1})
        assert main(["eval", doc, "--at", "0"]) == 2
        assert "'mu'" in capsys.readouterr().err


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestOverflowingPrecisionTimesVariance:
    """``h * sigma2`` overflows: the CLI prints finite JSON and exits 0."""

    @pytest.fixture()
    def doc(self, tmp_path):
        return write_doc(tmp_path, "big.json",
                         {"type": "grfn", "mu": 1e308, "sigma2": 1e308, "h": 1e308})

    def test_belpl(self, doc, capsys):
        assert main(["belpl", doc, "--lo", "-1", "--hi", "1"]) == 0
        assert _strict_json(capsys.readouterr().out) == {"bel": 0.0, "pl": 0.0}

    def test_cdf_at_zero(self, doc, capsys):
        assert main(["cdf", doc, "--at", "0"]) == 0
        out = _strict_json(capsys.readouterr().out)
        assert (out["lower"], out["upper"]) == (0.0, 0.0)

    def test_eval(self, doc, capsys):
        assert main(["eval", doc, "--at", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0,0"


_MATRIX_DOCS = {
    "gfn": ({"type": "gfn", "mode": 0.0, "precision": 0.3}, "0.5"),
    "gfv": ({"type": "gfv", "mode": [0.0, 0.0], "precision": [[1.0, 0.0], [0.0, 1.0]]}, "0.5,0"),
    "grfn": ({"type": "grfn", "mu": 0.0, "sigma2": 1.0, "h": 1.0}, "0.5"),
    "grfv": ({"type": "grfv", "mu": [0.0, 0.0], "Sigma": [[1.0, 0.0], [0.0, 1.0]],
              "H": [[1.0, 0.0], [0.0, 1.0]]}, "0.5,0"),
    "triangular-gaussian": ({"type": "triangular-gaussian", "mu": 0.0, "sigma": 1.0, "a": 1.5}, "0.5"),
}

_MATRIX_COMMANDS = {
    "eval": lambda doc, at: ["eval", doc, "--at", at],
    "cdf --at": lambda doc, at: ["cdf", doc, "--at", "0.5"],
    "cdf --grid": lambda doc, at: ["cdf", doc, "--grid", "-2:2:0.5"],
    "expect": lambda doc, at: ["expect", doc],
    "belpl": lambda doc, at: ["belpl", doc, "--lo", "-1", "--hi", "1"],
    "plotdata": lambda doc, at: ["plotdata", doc, "--grid", "-2:2:0.5"],
    "combine": lambda doc, at: ["combine", doc, doc],
    "conflict": lambda doc, at: ["conflict", doc, doc],
}

# the document types each subcommand accepts (README, "Command line")
_ACCEPTS = {
    "eval": {"gfn", "gfv", "grfn", "grfv", "triangular-gaussian"},
    "cdf --at": {"gfn", "grfn", "triangular-gaussian"},
    "cdf --grid": {"gfn", "grfn", "triangular-gaussian"},
    "expect": {"gfn", "grfn", "triangular-gaussian"},
    "belpl": {"gfn", "grfn"},
    "plotdata": {"gfn", "grfn", "triangular-gaussian"},
    "combine": {"gfn", "gfv", "grfn", "grfv"},
    "conflict": {"gfn", "gfv", "grfn", "grfv"},
}

_INVALID_DOCS = {
    "negative sigma": '{"type": "triangular-gaussian", "mu": 0, "sigma": -1, "a": 1.5}',
    "NaN mu": '{"type": "triangular-gaussian", "mu": NaN, "sigma": 1, "a": 1.5}',
    "overflowing a": '{"type": "triangular-gaussian", "mu": 0, "sigma": 1, "a": 1e999}',
    "list type": '{"type": [], "mu": 0, "sigma": 1, "a": 1.5}',
}

_NON_FINITE_TOKEN = re.compile(r"\b(nan|NaN|Infinity)\b|(?<!\")\binf\b")


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestDispatchMatrix:
    """Every document type under every query subcommand: a finite answer or
    a typed error, never NaN with exit 0, never a traceback."""

    @pytest.mark.parametrize("command", sorted(_MATRIX_COMMANDS))
    @pytest.mark.parametrize("kind", sorted(_MATRIX_DOCS))
    def test_valid_documents(self, kind, command, tmp_path, capsys):
        payload, at = _MATRIX_DOCS[kind]
        doc = write_doc(tmp_path, "doc.json", payload)
        code, out, err = _run(_MATRIX_COMMANDS[command](doc, at), capsys)
        if kind in _ACCEPTS[command]:
            assert code == 0, err
            assert out and not _NON_FINITE_TOKEN.search(out)
        else:
            assert code == 2
            assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("command", sorted(_MATRIX_COMMANDS))
    @pytest.mark.parametrize("case", sorted(_INVALID_DOCS))
    def test_invalid_documents_exit_two(self, case, command, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(_INVALID_DOCS[case])
        code, out, err = _run(_MATRIX_COMMANDS[command](str(p), "0.5"), capsys)
        assert code == 2
        assert out == "" and err.startswith("error:")


class TestNonFiniteQueryPoints:
    @pytest.mark.parametrize("command", [
        "eval --at nan", "eval --at 0 --at inf", "cdf --at nan", "cdf --at inf",
        "cdf --at -inf", "cdf --grid 0:inf:1", "cdf --grid nan:1:1", "eval --grid 0:1:inf",
        "plotdata --grid -inf:1:1",
    ])
    def test_scalar_documents(self, command, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "grfn", "mu": 0.0, "sigma2": 1.0, "h": 1.0})
        name, *rest = command.split()
        code, out, err = _run([name, doc, *rest], capsys)
        assert code == 2
        assert err.startswith("error:") and rest[-2] in err
        assert not _NON_FINITE_TOKEN.search(out)

    def test_vector_point(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "v.json", _MATRIX_DOCS["grfv"][0])
        code, _, err = _run(["eval", doc, "--at", "nan,0"], capsys)
        assert code == 2 and err.startswith("error:") and "--at" in err


def test_json_output_rejects_non_finite_values(monkeypatch, capsys):
    monkeypatch.setattr(GRFN, "expectation_bounds", lambda self: (math.nan, math.inf))
    code, out, err = _run(["expect", "--type", "grfn", "--mu", "0", "--sigma2", "1", "--h", "1"],
                          capsys)
    assert code == 2 and out == "" and err.startswith("error:")


def test_cdf_when_precision_times_variance_and_offset_overflow(tmp_path, capsys):
    doc = write_doc(tmp_path, "big.json", {"type": "grfn", "mu": 1e308, "sigma2": 1e308, "h": 1e308})
    assert main(["cdf", doc, "--at", "-1e308"]) == 0
    assert _strict_json(capsys.readouterr().out) == {"y": -1e308, "lower": 0.0, "upper": 0.0}


class TestDashValues:
    """``--lo -inf`` reads as ``--lo=-inf``, not as an option."""

    @pytest.mark.parametrize("kind", ["gfn", "grfn"])
    def test_ray_bounds(self, kind, tmp_path, capsys):
        doc = write_doc(tmp_path, "d.json", _MATRIX_DOCS[kind][0])
        spaced = _run(["belpl", doc, "--lo", "-inf", "--hi", "0.5"], capsys)
        joined = _run(["belpl", doc, "--lo=-inf", "--hi=0.5"], capsys)
        assert spaced == joined
        if kind == "gfn":
            assert spaced[0] == 0 and not _NON_FINITE_TOKEN.search(spaced[1])
        else:
            assert spaced[0] == 2 and "use cdf_bounds for rays" in spaced[2]

    def test_negative_upper_end(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "d.json", _MATRIX_DOCS["gfn"][0])
        assert _run(["belpl", doc, "--lo", "-2", "--hi", "-inf"], capsys)[0] == 2
        assert _run(["belpl", doc, "--lo", "-2", "--hi", "-0.5"], capsys)[0] == 0


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(erfs.__file__)))


@pytest.mark.parametrize("payload", [
    {"type": "grfn", "mu": 1e308, "sigma2": 1e308, "h": 1e308},
    {"type": "triangular-gaussian", "mu": 1e308, "sigma": 1.0, "a": 1.0},
])
def test_overflowing_grids_print_no_warnings(payload, tmp_path):
    doc = write_doc(tmp_path, "big.json", payload)
    env = dict(os.environ, PYTHONPATH=_SRC)
    for argv in (["cdf", doc, "--grid=-1.7e308:-1.6e308:5e307"],
                 ["plotdata", doc, "--grid=-1.7e308:-1.6e308:5e307"]):
        proc = subprocess.run([sys.executable, "-m", "erfs.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout and not _NON_FINITE_TOKEN.search(proc.stdout)


_MAX_SIGMA_GRFV = {"type": "grfv", "mu": [0, 1], "Sigma": [[1e308, 0], [0, 1e308]],
                   "H": [[1e-10, 0], [0, 1e-10]]}


@pytest.mark.parametrize("payload, argv, stdout", [
    ({"type": "gfv", "mode": [0.25], "precision": [[2.0]]},
     ["--grid=-1.7e308:-1.6e308:5e307"], "-1.7e+308,0\n"),
    # Sigma H = 1e298 I: the contour is |I + Sigma H|^(-1/2) exp(-q/2), q about 1e-308
    (_MAX_SIGMA_GRFV, ["--at", "0,0"], "0,0,1e-298\n"),
], ids=["gfv-grid", "grfv-max-sigma"])
def test_overflowing_evaluations_print_no_warnings(payload, argv, stdout, tmp_path):
    doc = write_doc(tmp_path, "big.json", payload)
    proc = subprocess.run([sys.executable, "-m", "erfs.cli", "eval", doc, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=_SRC), timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == stdout


def _np_grid(start, stop, step):
    return np.arange(start, stop + 0.5 * step, step)


def test_parse_grid_is_bitwise_np_arange():
    """``parse_grid`` builds ``np.arange``'s points without numpy: the same
    length and the same bits on 12 000 random grids and the edge cases."""
    rng = np.random.default_rng(20261018)
    grids = [(0.0, 0.0, 1.0), (-4.0, 4.0, 0.01), (1.5, 1.5, 0.1), (0.0, 1.05, 0.1),
             (0.0, 1.0, 1 / 3), (-1.0, 1.0, 1 / 3), (0.1, 0.35, 0.05), (-0.0, 0.0, 1.0),
             (-1.7e308, -1.6e308, 5e307), (1e300, 1.7e308, 1e303), (1e-300, 1e-299, 1e-301)]
    for _ in range(12_000):
        start = round(float(rng.uniform(-1e3, 1e3)), int(rng.integers(0, 7)))
        step = float(rng.choice([1 / 3, 0.1, 0.01, 0.07, 1.0, rng.uniform(1e-3, 10.0),
                                 round(float(rng.uniform(1e-3, 5.0)), int(rng.integers(3, 9)))]))
        k = int(rng.integers(0, 2000))
        off = float(rng.choice([0.0, 0.5, -0.5, 0.49999, 0.5000001, rng.uniform(0.0, 1.0)]))
        grids.append((start, max(start, start + k * step + off * step), step))
    for start, stop, step in grids:
        got = np.array(parse_grid(f"{start!r}:{stop!r}:{step!r}"))
        want = _np_grid(start, stop, step)
        assert got.shape == want.shape, (start, stop, step)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (start, stop, step)


_HUGE_GRFV = {"type": "grfv", "mu": [0, 1], "Sigma": [[1e160, 0], [0, 1e160]],
              "H": [[1e160, 0], [0, 1e160]]}


def test_overflowing_vector_products_print_only_the_error(tmp_path):
    doc = write_doc(tmp_path, "huge.json", _HUGE_GRFV)
    big = write_doc(tmp_path, "max_sigma.json", _MAX_SIGMA_GRFV)
    far = [write_doc(tmp_path, f"far{i}.json", {"type": "grfv", "mu": [m, 0], "Sigma": [[1, 0], [0, 1]],
                                               "H": [[1, 0], [0, 1]]}) for i, m in enumerate((1e308, -1e308))]
    env = dict(os.environ, PYTHONPATH=_SRC)
    for argv, code, msg in (
        (["eval", doc, "--at", "0.5,0.5"], 2, "I + Sigma H contains non-finite entries"),
        (["combine", doc, doc], 1, "degree of conflict rounds to 1 (log(1 - kappa) = -inf)"),
        # Sigma1 + Sigma2 overflows, then mu1 - mu2
        (["combine", big, big], 2, "log(1 - kappa) is NaN: the conflict overflowed"),
        (["combine", *far], 2, "log(1 - kappa) is NaN: the conflict overflowed"),
    ):
        proc = subprocess.run([sys.executable, "-m", "erfs.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == code
        assert proc.stdout == "" and proc.stderr == f"error: {msg}\n"
