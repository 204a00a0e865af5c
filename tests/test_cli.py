"""Command-line interface: subcommands, exit codes, report determinism."""

import json

import pytest

from graphforms import emit_graph, make_path
from graphforms.cli import main

GOOD = {
    "vertices": [
        {"id": "a", "m": 1.0, "c": 0.0},
        {"id": "b", "m": 1.0, "c": 0.5},
        {"id": "c", "m": 2.0, "c": 0.0},
    ],
    "edges": [
        {"u": "a", "v": "b", "b": 1.0},
        {"u": "b", "v": "c", "b": 0.25},
    ],
}


@pytest.fixture
def good_graph(tmp_path):
    p = tmp_path / "good.json"
    p.write_text(json.dumps(GOOD))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_graph(self, good_graph, capsys):
        code, out, _ = run(capsys, "validate", good_graph)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_self_loop_exit_one(self, tmp_path, capsys):
        bad = dict(GOOD, edges=[{"u": "a", "v": "a", "b": 1.0}])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1
        report = json.loads(out)
        assert not report["valid"]
        assert any("self-loop" in v for v in report["violations"])

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/g.json")
        assert code == 2
        assert "error" in err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        code, _, _ = run(capsys, "validate", str(p))
        assert code == 2


class TestDecompose:
    def test_decompose_path(self, tmp_path, capsys):
        g = tmp_path / "path.json"
        g.write_text(emit_graph(make_path(5, 0.5)))
        f = tmp_path / "f.json"
        f.write_text(json.dumps([0.0, 1.0, 2.0, 1.0, 0.0]))
        code, out, _ = run(
            capsys, "decompose", str(g), "--f", str(f), "--boundary", "v0,v4"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["reflected"] == pytest.approx(rep["main"] + rep["killing"])
        assert rep["converged"] is True
        assert rep["nest_assumed"] is False

    def test_byte_identical_reports(self, tmp_path, capsys):
        g = tmp_path / "path.json"
        g.write_text(emit_graph(make_path(4, 1.0)))
        f = tmp_path / "f.json"
        f.write_text(json.dumps([0.0, 1.0, -1.0, 0.5]))
        args = ("decompose", str(g), "--f", str(f), "--boundary", "v0")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestDominate:
    def test_reflexive_silverstein(self, good_graph, capsys):
        code, out, _ = run(capsys, "dominate", good_graph, good_graph)
        assert code == 0
        assert json.loads(out)["silverstein"] is True

    def test_disjoint_masks_fail(self, good_graph, capsys):
        code, out, _ = run(
            capsys,
            "dominate", good_graph, good_graph,
            "--lower-boundary", "a", "--upper-boundary", "c",
        )
        assert code == 1
        assert json.loads(out)["silverstein"] is False

    def test_seeded_determinism(self, good_graph, capsys):
        args = ("dominate", good_graph, good_graph, "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestCounterexample:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--n", "5")
        assert code == 0
        rep = json.loads(out)
        assert rep["contradiction_reproduced"] is True
        assert rep["gap"] == pytest.approx(1.0, abs=1e-9)

    def test_grid_above_dense_cap(self, capsys):
        # n = 301 > DENSE_CAP: criterion (i) runs on probes, not full matrices
        code, out, _ = run(capsys, "counterexample", "--n", "301")
        assert code == 0
        rep = json.loads(out)
        assert rep["defects"] == []
        assert rep["contradiction_reproduced"] is True
        assert rep["gap"] == pytest.approx(1.0, abs=1e-9)

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "counterexample", "--n", "5")
        assert code == 0
        assert "CONTRADICTION_REPRODUCED" in out

    def test_bad_grid_exit_two(self, capsys):
        code, _, err = run(capsys, "counterexample", "--n", "4")
        assert code == 2


class TestClassify:
    def test_classify_graph(self, good_graph, capsys):
        code, out, _ = run(capsys, "classify", good_graph)
        assert code == 0
        rep = json.loads(out)
        assert rep["main_recurrent"] is True
        assert "reflected_recurrent" in rep


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_output_file(self, good_graph, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "--output", str(out_path), "validate", good_graph)
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["valid"] is True


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert len(rep["results"]) >= 20
