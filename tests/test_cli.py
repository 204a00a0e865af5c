"""Command-line interface: subcommands, exit codes, report determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforms import (
    SquareLatticeGenerator,
    assemble,
    emit_graph,
    form_oracle_killing,
    form_oracle_main,
    generator_ball,
    make_path,
    truncate,
)
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

    def test_overflowing_degree_is_a_violation(self, tmp_path, capsys):
        huge = dict(
            GOOD,
            edges=[{"u": "a", "v": "b", "b": 1e308}, {"u": "a", "v": "c", "b": 1e308}],
        )
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(huge))
        code, out, err = run(capsys, "validate", str(p))
        assert code == 1
        assert json.loads(out)["violations"] == ["infinite neighbor weight sum at a"]
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["validate", "classify", "decompose"])
    def test_integer_beyond_float_range(self, command, tmp_path, capsys):
        data = json.loads(emit_graph(make_path(5, 1.0)))
        data["vertices"][0]["m"] = 10**400
        g, f = tmp_path / "g.json", tmp_path / "f.json"
        g.write_text(json.dumps(data))
        f.write_text("[0, 1, 2, 3, 4]")
        extra = [f"--f={f}"] if command == "decompose" else []
        code, out, err = run(capsys, command, str(g), *extra)
        message = "malformed record: int too large to convert to float"
        if command == "validate":
            assert (code, err) == (1, "")
            assert json.loads(out)["violations"] == [message]
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.fixture
def lattice(tmp_path):
    gen = SquareLatticeGenerator(c=0.1)
    g = truncate(gen, generator_ball(gen, "0,0", 3))
    gpath = tmp_path / "lattice.json"
    gpath.write_text(emit_graph(g))
    f = np.cos(np.arange(g.n, dtype=float))
    for v in ("3,0", "0,3"):
        f[g.index[v]] = 0.0
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(f.tolist()))
    return g, str(gpath), str(fpath), f


DOMINATE_LATTICE = ("--lower-boundary", '["3,0", "0,3"]', "--upper-boundary", '["3,0"]')


class TestLatticeIds:
    """Lattice ids contain commas, so boundaries name them as a JSON array."""

    def test_decompose_with_json_boundary(self, lattice, capsys):
        g, gpath, fpath, f = lattice
        code, out, _ = run(
            capsys, "decompose", gpath, "--f", fpath, "--root", "0,0",
            "--boundary", '["3,0", "0,3"]',
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["boundary"] == ["3,0", "0,3"]
        q = assemble(g, boundary=["3,0", "0,3"])
        assert rep["main"] == pytest.approx(form_oracle_main(q, f), rel=1e-10, abs=1e-10)
        assert rep["killing"] == pytest.approx(form_oracle_killing(q, f), rel=1e-10, abs=1e-10)

    def test_comma_form_cannot_name_lattice_ids(self, lattice, capsys):
        _, gpath, fpath, _ = lattice
        code, _, err = run(capsys, "decompose", gpath, "--f", fpath, "--boundary", "3,0")
        assert code == 2
        assert "unknown vertex id" in err

    @pytest.mark.parametrize("spec", ['["3,0"', '[3, 0]', '[{"id": "3,0"}]'])
    def test_bad_json_boundary_exit_two(self, lattice, capsys, spec):
        _, gpath, fpath, _ = lattice
        code, _, err = run(capsys, "decompose", gpath, "--f", fpath, "--boundary", spec)
        assert code == 2
        assert "boundary" in err

    def test_dominate_with_json_boundaries(self, lattice, capsys):
        _, gpath, _, _ = lattice
        code, out, _ = run(capsys, "dominate", gpath, gpath, *DOMINATE_LATTICE)
        # Dropping one Dirichlet vertex gives a Silverstein extension.
        assert code == 0
        assert json.loads(out)["silverstein"] is True


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

    def test_incomparable_masks_write_strict_json(self, good_graph, capsys):
        def refuse(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        _, out, _ = run(
            capsys,
            "dominate", good_graph, good_graph,
            "--lower-boundary", "a", "--upper-boundary", "c",
        )
        rep = json.loads(out, parse_constant=refuse)
        assert rep["extension_ok"] is False and rep["extension_worst"] == 0.0

    def test_seeded_determinism(self, good_graph, lattice, tmp_path, capsys):
        args = ("dominate", good_graph, good_graph, "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        # The seed is only recorded: it changes nothing else in the report,
        # also where the forms differ on the lower domain.
        _, gpath, _, _ = lattice
        heavier = tmp_path / "heavier.json"
        heavier.write_text(json.dumps(dict(GOOD, edges=[{"u": "a", "v": "b", "b": 2.0}])))
        for pair in (
            (good_graph, good_graph),
            (gpath, gpath, *DOMINATE_LATTICE),
            (good_graph, str(heavier)),
        ):
            reports = [json.loads(run(capsys, "dominate", *pair, "--seed", seed)[1])
                       for seed in ("1", "2")]
            assert [r["config"].pop("seed") for r in reports] == [1, 2]
            assert reports[0] == reports[1]

    def test_seed_help_says_it_is_kept_for_compatibility(self, capsys):
        code, out, _ = run(capsys, "dominate", "--help")
        assert code == 0
        assert "compatibility" in " ".join(out.split())


class TestCounterexample:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--n", "5")
        assert code == 0
        rep = json.loads(out)
        assert rep["contradiction_reproduced"] is True
        assert rep["gap"] == pytest.approx(1.0, abs=1e-9)

    def test_grid_above_dense_cap(self, capsys):
        # n = 301: |b| |a| is above the dense budget, so criterion (i) takes the rank-2 hull
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


class TestMalformedF:
    """--f takes a JSON array of finite numbers; any other JSON value is a usage error."""

    @pytest.mark.parametrize("value", [
        {"a": 1}, [1, 2, 3, 4, {"b": 2}], "abc", [1, [2, 3], 3, 4, 5], 5, None,
        [1, 2, 3, 4, 10**400], [1, 2, 3, 4, math.nan], [-math.inf, 2, 3, 4, 5],
        [True, False, 1, 0, 1], [1.0, 2.0, 3.0, 4.0, False],
    ])
    def test_exit_two_with_one_error_line(self, value, tmp_path, capsys):
        g, f = tmp_path / "path.json", tmp_path / "f.json"
        g.write_text(emit_graph(make_path(5, 1.0)))
        f.write_text(json.dumps(value))
        code, out, err = run(capsys, "decompose", str(g), f"--f={f}")
        assert (code, out) == (2, "")
        assert err == f"error: --f must be a JSON array of finite numbers: {f}\n"


_PATH5 = json.loads(emit_graph(make_path(5, 1.0)))

#: Any JSON value: objects, strings, nested and ragged lists, booleans, null, NaN and
#: Infinity literals, huge numbers.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.sampled_from([0.5, -1.0, 1e308, -1e308, math.nan, math.inf, -math.inf, 10**400]),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@st.composite
def _graph_files(draw):
    """A JSON value, or the 5-vertex path with one field or list replaced by one."""
    data = json.loads(json.dumps(_PATH5))
    where = draw(st.sampled_from(["file", "vertices", "edges", "vertex", "edge", "length"]))
    recs = data["vertices" if where == "vertex" else "edges"]
    if where == "file":
        return draw(_json_values)
    if where == "length":
        key = draw(st.sampled_from(["vertices", "edges"]))
        data[key] = data[key][:draw(st.integers(0, len(data[key]) - 1))]
    elif where in ("vertices", "edges"):
        data[where] = draw(_json_values)
    else:
        rec = recs[draw(st.integers(0, len(recs) - 1))]
        rec[draw(st.sampled_from(sorted(rec)))] = draw(_json_values)
    return data


def _in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


#: Finite floats of any magnitude: a --f of five of them decomposes or overflows.
_FINITE = st.floats(-1e308, 1e308)


class TestFuzzedInputs:
    """Arbitrary JSON graph files and --f values get a documented exit code, one error
    line and no traceback, and the same stdout on a second run."""

    @settings(max_examples=60)
    @given(st.sampled_from(["validate", "classify", "decompose", "decompose --f"]),
           _graph_files(), st.lists(_FINITE, min_size=5, max_size=5) | _json_values
           | st.lists(_FINITE, max_size=7))
    def test_exit_codes(self, tmp_path_factory, command, graph, f):
        work = tmp_path_factory.mktemp("fuzz")
        gpath, fpath = work / "g.json", work / "f.json"
        gpath.write_text(json.dumps(_PATH5 if command == "decompose --f" else graph))
        fpath.write_text(json.dumps(f if command == "decompose --f" else [0.5, 1, 0, -1, 2]))
        name = command.split()[0]
        argv = {"validate": [], "classify": ["--levels=2", "--plateau=1"],
                "decompose": [f"--f={fpath}", "--levels=2", "--plateau=1"]}[name]
        code, out, err = _in_process([name, str(gpath), *argv])
        assert code in ((0, 1, 2) if name == "validate" else (0, 2, 3))
        if command == "decompose --f" and isinstance(f, list) and len(f) == 5 and all(
                isinstance(x, float) and math.isfinite(x) for x in f):  # of any magnitude
            assert code in (0, 3)
        if code in (2, 3):
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and json.loads(out)
        assert "Traceback" not in err
        assert _in_process([name, str(gpath), *argv]) == (code, out, err)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_one_parser_serves_every_call(self, good_graph, tmp_path, capsys):
        from graphforms.cli import build_parser

        assert build_parser() is build_parser()
        f = tmp_path / "f.json"
        f.write_text("[1, 2, 3]")
        code, out, _ = run(capsys, "--format", "text", "validate", good_graph)
        assert (code, out) == (0, "valid\n")
        assert run(capsys, "decompose", good_graph)[0] == 2  # --f is missing
        code, out, _ = run(capsys, "decompose", good_graph, f"--f={f}")
        assert code == 0
        assert json.loads(out)["config"]["levels"] == 3  # JSON again: no option carried over
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "validate", good_graph)[0] == 0

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

    def test_runs_as_a_module(self):
        # A checkout runs the CLI as `python -m graphforms`, without installing.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "graphforms", "selftest", "--format", "text"],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "[PASS]" in proc.stdout


class TestColdStart:
    """validate and decompose run without loading scipy."""

    @pytest.mark.parametrize("command", ["validate", "decompose"])
    def test_runs_without_scipy(self, command, tmp_path):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(GOOD))
        fpath = tmp_path / "f.json"
        fpath.write_text("[1.0, -0.5, 2.0]")
        extra = {"validate": [], "decompose": [f"--f={fpath}", "--root=a"]}[command]
        src = Path(__file__).resolve().parents[1] / "src"
        # -X importtime lists every module the process imports on stderr.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "graphforms", command, str(gpath), *extra],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "graphforms.cli" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []


class TestReportDeterminism:
    """Identical arguments write byte-identical JSON reports."""

    @pytest.mark.parametrize("command", ["dominate", "counterexample", "selftest", "classify"])
    def test_two_runs_write_identical_files(self, command, lattice, tmp_path, capsys):
        _, gpath, _, _ = lattice
        argv = {
            "dominate": ("dominate", gpath, gpath, *DOMINATE_LATTICE),
            "classify": ("classify", gpath, "--boundary", '["3,0"]', "--root", "0,0"),
            "counterexample": ("counterexample", "--n", "255"),
            "selftest": ("selftest",),
        }[command]
        reports = []
        for k in range(2):
            path = tmp_path / f"report{k}.json"
            assert run(capsys, "--output", str(path), *argv)[0] == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])


class TestComputationFailures:
    """A failing computation exits 3 with one error line, never 1 ("check failed")."""

    def test_fsum_overflow_in_decompose(self, tmp_path, capsys):
        g = tmp_path / "path.json"
        g.write_text(json.dumps({
            "vertices": [{"id": v, "m": 1.0, "c": 0.0} for v in "abc"],
            "edges": [{"u": "a", "v": "b", "b": 0.25}, {"u": "b", "v": "c", "b": 0.25}],
        }))
        f = tmp_path / "f.json"
        f.write_text(json.dumps([7e153, -7e153, 7e153]))
        code, out, err = run(capsys, "decompose", str(g), f"--f={f}")
        assert code == 3
        assert out == ""
        assert err.startswith("error: OverflowError") and err.count("\n") == 1

    def test_overflowing_term_in_decompose(self, tmp_path, capsys, recwarn):
        # f(v0)^2 overflows: an error, not NaN values next to "converged": true
        g = tmp_path / "path.json"
        g.write_text(emit_graph(make_path(5, 1.0)))
        f = tmp_path / "f.json"
        f.write_text(json.dumps([1e308, 1.0, 1.0, 1.0, 1.0]))
        code, out, err = run(capsys, "decompose", str(g), f"--f={f}", "--levels", "2")
        assert code == 3
        assert out == ""
        assert err == "error: OverflowError: an energy term is past the float range\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "exc",
        [np.linalg.LinAlgError("singular matrix"), MemoryError(), OverflowError("x"),
         RuntimeError("factor is exactly singular")],
    )
    def test_internal_errors_exit_three(self, exc, good_graph, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr("graphforms.cli.reflected_form", failing)
        f = tmp_path / "f.json"
        f.write_text("[1, 2, 3]")
        code, _, err = run(capsys, "decompose", good_graph, f"--f={f}")
        assert code == 3
        assert err.startswith(f"error: {type(exc).__name__}") and err.count("\n") == 1

    def test_eigensolver_without_convergence_exits_three(self, lattice, capsys, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        def failing(*args, **kwargs):
            raise ArpackNoConvergence("No convergence (1 iterations, 0/1 eigenvectors converged)",
                                      np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr("scipy.sparse.linalg.eigsh", failing)
        _, gpath, _, _ = lattice
        code, out, err = run(capsys, "classify", gpath, "--boundary", '["3,0"]')
        assert code == 3
        assert out == ""
        assert err.startswith("error: ArpackNoConvergence: ARPACK error -1: No convergence")
        assert err.count("\n") == 1
