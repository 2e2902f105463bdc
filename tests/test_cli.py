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
from erfs.errors import DomainError, ErfsError
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

    def test_vacuous_gfn_with_grfn_prints_a_grfn(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", {"type": "gfn", "mode": 3.0, "precision": 0.0})
        b = write_doc(tmp_path, "b.json", {"type": "grfn", "mu": 1.0, "sigma2": 0.0, "h": 0.5})
        for docs in ([a, b], [b, a]):
            assert main(["combine", *docs]) == 0
            assert capsys.readouterr().out == (
                'step 1: kappa=0\n{"type": "grfn", "mu": 1.0, "sigma2": 0.0, "h": 0.5}\n')

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

    @pytest.mark.parametrize("inline", [["--type", "gfn", "--mode", "1", "--precision", "inf"],
                                        ["--type", "grfn", "--mu", "1", "--sigma2", "0", "--h", "inf"]],
                             ids=["gfn", "grfn"])
    def test_point_mass_at_its_atom(self, inline, capsys):
        # the cdf of a point mass is right-continuous: 1 at the atom, not 1/2
        assert main(["cdf", *inline, "--at", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"y": 1.0, "lower": 1.0, "upper": 1.0}
        assert main(["cdf", *inline, "--grid", "0:2:1"]) == 0
        assert capsys.readouterr().out == "x,lower,upper\n0,0,0\n1,1,1\n2,1,1\n"

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

    @pytest.mark.parametrize("params", [["--mu", "0", "--sigma", "1", "--a", "1.5", "--grid", "-4:4:0.5"],
                                        ["--mu", "1e308", "--sigma", "1", "--a", "1",
                                         "--grid", "-1.7e308:-1.6e308:5e307"],
                                        ["--mu", "0", "--sigma", "1", "--grid", "0:1:0.5"]],
                             ids=["example", "far", "missing-a"])
    def test_example3_is_the_triangular_document(self, params, capsys):
        typed = _run(["plotdata", "--type", "triangular-gaussian", *params], capsys)
        assert _run(["plotdata", "--example3", *params], capsys) == typed

    def test_example3_refuses_a_document_file(self, tmp_path, capsys):
        doc = write_doc(tmp_path, "g.json", {"type": "grfn", "mu": 0.0, "sigma2": 1.0, "h": 1.0})
        code, out, err = _run(["plotdata", "--example3", "--mu", "0", "--sigma", "1", "--a", "1",
                               "--grid", "0:1:0.5", doc], capsys)
        assert (code, out) == (2, "") and "not both" in err

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

    _GRFN = ["--type", "grfn", "--mu", "0", "--sigma2", "1", "--h", "1"]

    @pytest.mark.parametrize("argv, seed, message", [
        (["eval", "{list}", "--at", "0"], None, "document must be a JSON object"),
        (["eval", "{untyped}", "--at", "0"], None, "missing field 'type'"),
        (["eval", "{missing}", "--at", "0"], None, "cannot read document '"),
        (["mc-check", "--samples", "1000"], "abc", "ERFS_SEED must be an integer, got 'abc'"),
        (["eval", *_GRFN, "--at", "0", "--grid", "0:1:0.5"], None, "give either --at or --grid, not both"),
        (["eval", *_GRFN], None, "missing query points: use --at or --grid"),
        (["eval", "{grfv}", "--at", "1,a"], None, "point '1,a' is not a comma-separated vector"),
        (["eval", "{grfv}", "--at", "1,2,3"], None, "point '1,2,3' has dim 3, document has dim 2"),
        (["combine", "{grfn}"], None, "combine needs at least two documents"),
        (["cdf", *_GRFN], None, "missing query point: use --at or --grid"),
        (["plotdata", *_GRFN], None, "missing --grid for plotdata"),
        (["expect"], None, "missing evidence document (file argument or --type ...)"),
    ], ids=["not-an-object", "no-type", "unreadable-path", "env-seed", "at-and-grid", "no-points",
            "vector-point-not-numeric", "vector-point-dim", "combine-one-document", "cdf-no-point",
            "plotdata-no-grid", "no-document"])
    def test_argument_errors_exit_two_with_one_line(self, argv, seed, message, tmp_path,
                                                    capsys, monkeypatch):
        paths = {
            "list": write_doc(tmp_path, "list.json", [1, 2]),
            "untyped": write_doc(tmp_path, "untyped.json", {"mu": 0.0}),
            "missing": str(tmp_path / "missing.json"),
            "grfv": write_doc(tmp_path, "grfv.json", {"type": "grfv", "mu": [0, 1],
                                                      "Sigma": [[1, 0], [0, 1]], "H": [[1, 0], [0, 1]]}),
            "grfn": write_doc(tmp_path, "grfn.json", {"type": "grfn", "mu": 0, "sigma2": 1, "h": 1}),
        }
        if seed is None:
            monkeypatch.delenv("ERFS_SEED", raising=False)
        else:
            monkeypatch.setenv("ERFS_SEED", seed)
        code, out, err = _run([a.format(**paths) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")


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


# what a gfv document's validation prints: GFV names its fields mode and precision
_INVALID_GFV_DOCS = {
    '{"mode": [NaN, 0], "precision": [[1, 0], [0, 1]]}': "GFV mode must be a finite real vector",
    '{"mode": [[0, 1]], "precision": [[1, 0], [0, 1]]}': "GFV mode must be a finite real vector",
    '{"mode": [0, 1], "precision": [[1, 0, 0], [0, 1, 0]]}':
        "GFV precision must be a square matrix, got shape (2, 3)",
    '{"mode": [0, 1], "precision": [1, 1]}': "GFV precision must be a square matrix, got shape (2,)",
    '{"mode": [0, 1], "precision": [[1, 0.5], [0, 1]]}':
        "GFV precision is not symmetric to relative tolerance 1e-10",
    '{"mode": [0, 1], "precision": [[1, 2], [2, 1]]}':
        "GFV precision has eigenvalue -1.000e+00 below the PSD tolerance",
    '{"mode": [0, 1], "precision": [[1, NaN], [NaN, 1]]}': "GFV precision contains non-finite entries",
    '{"mode": [0, 1], "precision": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}':
        "GFV mode has dim 2 but precision is (3, 3)",
    '{"mode": [], "precision": []}': "GFV mode must have at least one coordinate",
}


@pytest.mark.parametrize("fields", sorted(_INVALID_GFV_DOCS))
def test_invalid_gfv_documents_name_gfv_fields(fields, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"type": "gfv", ' + fields[1:])
    assert _run(["eval", str(p), "--at", "0,0"], capsys) == (2, "", f"error: {_INVALID_GFV_DOCS[fields]}\n")


def test_empty_grfv_document_is_a_validation_error(tmp_path, capsys):
    doc = write_doc(tmp_path, "empty.json", {"type": "grfv", "mu": [], "Sigma": [], "H": []})
    assert _run(["eval", doc, "--at", "0"], capsys) == (2, "", "error: mu must have at least one coordinate\n")


# JSON values that are no field of any model: an integer beyond the float range,
# a bool, a string, null, an object; in a scalar field an array and the non-finite
# literals ("inf" is the one infinite spelling); in an array field a bool among numbers
_MALFORMED = {"huge-integer": "1" + "0" * 400, "true": "true", "string": '"1"', "null": "null",
              "object": "{}"}
_MALFORMED_SCALAR = {**_MALFORMED, "array": "[1]", "huge-float": "1e400", "Infinity": "Infinity",
                     "-Infinity": "-Infinity", "NaN": "NaN"}
_MALFORMED_ARRAY = {**_MALFORMED, "ragged": "[[1, 2], [3]]", "bools": "[true, false]",
                    "strings": '["1", "0"]', "bool-among-numbers": "[1, true]"}


def _malformed(kind: str) -> dict:
    return _MALFORMED_ARRAY if kind in ("gfv", "grfv") else _MALFORMED_SCALAR


@pytest.mark.parametrize("kind, field, value", [
    (kind, field, value)
    for kind, (payload, _) in sorted(_MATRIX_DOCS.items())
    for field in payload if field != "type"
    for value in sorted(_malformed(kind))
])
def test_malformed_field_exits_two_naming_it(kind, field, value, tmp_path, capsys):
    from erfs import grfn, grfv

    payload, at = _MATRIX_DOCS[kind]
    text = _malformed(kind)[value]
    fields = [f"{json.dumps(k)}: {text if k == field else json.dumps(v)}" for k, v in payload.items()]
    p = tmp_path / "bad.json"
    p.write_text("{" + ", ".join(fields) + "}")
    code, out, err = _run(["eval", str(p), "--at", at], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and f"'{field}'" in err
    model = {"gfn": grfn.GFN, "gfv": grfv.GFV, "grfn": grfn.GRFN, "grfv": grfv.GRFV,
             "triangular-gaussian": grfn.TriangularGaussian}[kind]
    with pytest.raises(DomainError, match=f"'{field}'"):
        model.from_dict(json.loads(p.read_text()))


@pytest.mark.parametrize("payload, message", [
    # "inf" reads as an infinite value wherever a number goes; the constructor owns the domain
    ({"type": "grfn", "mu": "inf", "sigma2": 1, "h": 1}, "mu must be finite"),
    ({"type": "gfn", "mode": "inf", "precision": 1}, "GFN mode must be finite"),
    ({"type": "triangular-gaussian", "mu": 0, "sigma": "inf", "a": 1},
     "sigma and a must be finite, got sigma=inf, a=1.0"),
    ({"type": "grfv", "mu": [0, None], "Sigma": [[1]], "H": [[1]]},
     "field 'mu' must be an array of numbers"),
])
def test_document_messages(payload, message, tmp_path, capsys):
    doc = write_doc(tmp_path, "doc.json", payload)
    assert _run(["eval", doc, "--at", "0"], capsys) == (2, "", f"error: {message}\n")


def test_deeply_nested_document_exits_two(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"type": "grfv", "mu": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = _run(["eval", str(p), "--at", "0"], capsys)
    assert (code, out) == (2, "") and err.startswith("error:") and "not valid JSON" in err


@pytest.mark.parametrize("command", ["combine", "conflict"])
def test_gfv_fuses_with_grfv_as_zero_sigma_grfv(command, tmp_path, capsys):
    from erfs import grfv

    mode, precision = [0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]]
    v = write_doc(tmp_path, "v.json", {"type": "gfv", "mode": mode, "precision": precision})
    g = grfv.GRFV([0.5, 0.0], [[1.0, 0.2], [0.2, 0.5]], np.eye(2))
    r = write_doc(tmp_path, "r.json", {"type": "grfv", **g.to_dict()})
    lifted = grfv.GRFV(mode, np.zeros((2, 2)), precision)
    for docs, (a, b) in (([v, r], (lifted, g)), ([r, v], (g, lifted))):
        f = grfv.combine(a, b)
        code, out, err = _run([command, *docs], capsys)
        assert code == 0 and err == ""
        if command == "conflict":
            assert json.loads(out) == {"kappa": f.kappa}
        else:
            assert out == f"step 1: kappa={f.kappa:.12g}\n" + json.dumps(
                {"type": "grfv", **f.combined.to_dict()}) + "\n"


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
     ["eval", "--grid=-1.7e308:-1.6e308:5e307"], "-1.7e+308,0\n"),
    # Sigma H = 1e298 I: the contour is |I + Sigma H|^(-1/2) exp(-q/2), q about 1e-308
    (_MAX_SIGMA_GRFV, ["eval", "--at", "0,0"], "0,0,1e-298\n"),
    # x - mu overflows; the quadratic form overflows to inf, not to NaN
    ({"type": "grfv", "mu": [1e308, 0], "Sigma": [[1, 0], [0, 1]], "H": [[1, 0], [0, 1]]},
     ["eval", "--at=-1e308,0"], "-1e308,0,0\n"),
    ({"type": "gfv", "mode": [1e308, 0], "precision": [[1, 0], [0, 1]]},
     ["eval", "--at=-1e308,0"], "-1e308,0,0\n"),
    # (x - m)^2 overflows in the membership
    ({"type": "gfn", "mode": 1.0, "precision": 2.0},
     ["plotdata", "--grid=-1.7e308:-1.6e308:5e307"], "x,lower,upper,contour\n-1.7e+308,0,0,0\n"),
], ids=["gfv-grid", "grfv-max-sigma", "grfv-offset", "gfv-offset", "gfn-plotdata"])
def test_overflowing_evaluations_print_no_warnings(payload, argv, stdout, tmp_path):
    doc = write_doc(tmp_path, "big.json", payload)
    proc = subprocess.run([sys.executable, "-m", "erfs.cli", *argv, doc], capture_output=True,
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
    # I + Hbar S and I + Sigma H round to singular matrices
    flat = write_doc(tmp_path, "flat.json", {"type": "grfv", "mu": [1, 0], "Sigma": [[0, 0], [0, 0]],
                                             "H": [[1, 1], [1, 1]]})
    wide = write_doc(tmp_path, "wide.json", {"type": "grfv", "mu": [0, 0],
                                             "Sigma": [[1e160, 0], [0, 1e160]], "H": [[1, 1], [1, 1]]})
    # d^T Hbar d overflows to -inf
    gfvs = [write_doc(tmp_path, f"gfv{i}.json", {"type": "gfv", "mode": m, "precision": h})
            for i, (m, h) in enumerate((([1, 0], [[1, 1], [1, 1]]), ([1e300, -1e300], [[1e10, 0], [0, 1e10]])))]
    env = dict(os.environ, PYTHONPATH=_SRC)
    for argv, code, msg in (
        (["combine", flat, doc], 2, "I + Hbar S is singular in floating point"),
        (["conflict", doc, flat], 2, "I + Hbar S is singular in floating point"),
        (["eval", wide, "--at", "0,0"], 2, "I + Sigma H is singular in floating point"),
        (["combine", *gfvs], 2, "the quadratic form with I + Hbar S overflowed to NaN or -inf"),
        (["conflict", *gfvs], 2, "the quadratic form with I + Hbar S overflowed to NaN or -inf"),
        # Sigma H and Hbar S overflow
        (["eval", doc, "--at", "0.5,0.5"], 2, "I + Sigma H contains non-finite entries"),
        (["combine", doc, doc], 2, "I + Hbar S contains non-finite entries"),
        # Sigma1 + Sigma2 overflows
        (["combine", big, big], 2, "I + Hbar S contains non-finite entries"),
        # mu1 - mu2 overflows; the halved offset does not, and the modes are 2e308 apart
        (["combine", *far], 1, "degree of conflict rounds to 1 (log(1 - kappa) = -inf)"),
    ):
        proc = subprocess.run([sys.executable, "-m", "erfs.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == code
        assert proc.stdout == "" and proc.stderr == f"error: {msg}\n"


def _grfn(mu, sigma2, h):
    return {"type": "grfn", "mu": mu, "sigma2": sigma2, "h": h}


# a 3-D pair whose d^T Hbar d overflows to -inf; as grfv documents, combine printed kappa=0
_FAR_3D = [
    ([-2.90782897929633e+248, -1.8811537212603302e+163, -3.61222945159019e+281],
     [[0.8550275232056432, 0.3304250640331801, -0.17283826219451362],
      [0.3304250640331801, 0.8486473259775337, -0.21584440175245612],
      [-0.17283826219451362, -0.21584440175245612, 0.6407961080583551]]),
    ([2.2887472680706867e+248, 4.502907184422044e+162, 3.166062152388798e+281],
     [[0.9539179390707729, 1.1200144790250326, -0.12092133033888357],
      [1.1200144790250326, 1.8961972887313339, -0.3352858631306368],
      [-0.12092133033888357, -0.3352858631306368, 0.2596439395879352]]),
]
_ZERO_3D = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
_ZERO_2D = [[0, 0], [0, 0]]


def _grfv_rank_one_4e18(h):
    return {"type": "grfv", "mu": [0, 0], "Sigma": [[4e18, 2e18], [2e18, 1e18]], "H": h}


def _far_3d(i, kind):
    mu, h = _FAR_3D[i]
    if kind == "gfv":
        return {"type": "gfv", "mode": mu, "precision": h}
    return {"type": "grfv", "mu": mu, "Sigma": _ZERO_3D, "H": h}


@pytest.mark.parametrize("docs, argv, code, stdout", [
    # (h1 + h2)^2 underflowed, then h1^2 overflowed times a zero variance
    ([_grfn(1, 1, 1e-170)] * 2, ["combine"], 0, "step 1: kappa=5e-171\n"),
    ([{"type": "gfn", "mode": 0, "precision": 1e160}, _grfn(0, 1, 1)], ["combine"], 0,
     "step 1: kappa=0.292893218813\n"),
    # h1 h2 overflows: kappa is about 5e-101, then NaN instead of total conflict
    ([_grfn(0, 1e-300, 1e200)] * 2, ["combine"], 0, "step 1: kappa=5e-101\n"),
    ([_grfn(0, 1, 1e308)] * 2, ["combine"], 1, ""),
    # sigma1^2 sigma2^2, sigma^2 (1 + hbar sigma^2) and sigma1^2 + sigma2^2 overflow
    ([_grfn(0, 1e160, 1e-160)] * 2, ["combine"], 0, "step 1: kappa=0.292893218813\n"),
    ([_grfn(0, 8e307, 1e-300)] * 2, ["combine"], 0, "step 1: kappa=0.999888196602\n"),
    ([_grfn(0, 1e308, 1e-300)] * 2, ["combine"], 0, "step 1: kappa=0.999900000001\n"),
    # h sigma2 and the offset both overflow
    ([_grfn(0, 1e300, 1e10), _grfn(1e200, 1e300, 1e10)], ["combine"], 1, ""),
    # -0.5 h underflows to -0.0 against an offset of inf
    ([_grfn(-1.7e308, 1, 5e-324)], ["eval", "--at", "1e308"], 0, "1e308,0\n"),
    # the offset of an endpoint overflows against a shrinkage weight of 0: inf * 0
    ([_grfn(1.7e308, 5e-324, 5e-324)], ["belpl", "--lo=-1e308", "--hi", "1e308"], 0,
     '{"bel": 0.0, "pl": 0.0}\n'),
    # pi / (2h) overflows
    ([{"type": "gfn", "mode": 0, "precision": 5e-324}], ["expect"], 0,
     '{"lower": -5.638552261264709e+161, "upper": 5.638552261264709e+161}\n'),
    # the mode covariance A1 S1 A1^T + A2 S2 A2^T - C G C^T cancelled to [[0.0]]
    ([{"type": "grfv", "mu": [0], "Sigma": [[1e20]], "H": [[1]]},
      {"type": "grfv", "mu": [1], "Sigma": [[0]], "H": [[1]]}], ["combine"], 0,
     'step 1: kappa=0.999999999859\n{"type": "grfv", "mu": [1.0], "Sigma": [[0.5]], "H": [[2.0]]}\n'),
    # I + Hbar S and I + Sigma H: a zero pivot in the LU of M^T, not of M, leaked LinAlgError
    ([_grfv_rank_one_4e18([[2, 1], [1, 2]]), {"type": "grfv", "mu": [0, 0], "Sigma": _ZERO_2D,
                                              "H": [[2, 1], [1, 2]]}], ["combine"], 2, ""),
    ([_grfv_rank_one_4e18([[1, 0.5], [0.5, 1]])], ["eval", "--at", "0,0"], 2, ""),
    *[([_far_3d(0, a), _far_3d(1, b)], [cmd], 2, "")
      for cmd in ("combine", "conflict") for a, b in (("grfv",) * 2, ("gfv",) * 2, ("grfv", "gfv"))],
], ids=["tiny-h", "huge-gfn", "pair-precision", "pair-precision-nan", "variance-product",
        "variance-times-precision", "variance-sum", "offset-and-h-sigma2",
        "subnormal-h", "belpl-offset-times-zero-weight", "expect-subnormal-h", "grfv-sigma-1e20",
        "grfv-zero-pivot-combine", "grfv-zero-pivot-eval",
        *[f"{cmd}-3d-{kinds}" for cmd in ("combine", "conflict")
                         for kinds in ("grfv", "gfv", "mixed")]])
def test_extreme_magnitudes_answer_or_fail_typed(docs, argv, code, stdout, tmp_path, capsys):
    paths = [write_doc(tmp_path, f"{i}.json", doc) for i, doc in enumerate(docs)]
    cmd, *options = argv
    assert main([cmd, *paths, *options]) == code
    out, err = capsys.readouterr()
    assert out.startswith(stdout) and "nan" not in out.lower()
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""
