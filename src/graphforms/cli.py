"""Command-line interface.

Subcommands: validate, decompose, dominate, counterexample, classify,
selftest.  Reports are emitted as JSON (byte-identical for identical
arguments) or as plain text.  Exit status: 0 on success or pass,
1 when a check fails, 2 on usage or IO problems, 3 when the computation
itself fails (a singular or unstable solve, overflow, or memory).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache

import numpy as np

from .domination import FormPair, check_silverstein
from .forms import assemble
from .graph import (
    GraphFormatError,
    ball_exhaustion,
    graph_from_dict,
    load_graph,
    validate,
)
from .reflection import reflected_form
from .scenarios import CounterexampleSetup, classify_recurrence, run_counterexample
from .selftest import run_selftest

USAGE_ERROR = 2
CHECK_FAILED = 1
COMPUTATION_FAILED = 3


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(report: dict, text: str, args) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = payload if args.format == "json" else text + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_graph_arg(path: str):
    return load_graph(_read_text(path))


def _boundary_list(spec: str | None) -> list:
    """Vertex ids from a comma-separated list, or from a JSON array of strings.

    The JSON form names ids that contain commas, such as lattice ids "3,0".
    """
    if not spec:
        return []
    if spec.lstrip().startswith("["):
        try:
            ids = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed boundary JSON: {exc}") from None
        if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
            raise ValueError(f"boundary must be a JSON array of vertex ids: {spec}")
        return ids
    return [v for v in spec.split(",") if v]


def _finite_vector(values) -> np.ndarray | None:
    """A JSON array of ints and floats (no bools) as a float array, or None unless
    each is finite.  Ints are compared with the float range exactly, since
    int(max float) + 1 rounds into it; floats are checked in one numpy pass."""
    if not isinstance(values, list):
        return None
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return None
    if int in kinds and not all(abs(x) <= sys.float_info.max for x in values if type(x) is int):
        return None
    f = np.array(values, dtype=float)
    return f if np.isfinite(f).all() else None


def _cmd_validate(args) -> int:
    try:
        data = json.loads(_read_text(args.graph))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        g = graph_from_dict(data)
        violations = validate(g)
    except GraphFormatError as exc:
        violations = [str(exc)]
    report = {"graph": args.graph, "valid": not violations, "violations": violations}
    text = "valid" if not violations else "\n".join(f"violation: {v}" for v in violations)
    _emit(report, text, args)
    return 0 if not violations else CHECK_FAILED


def _cmd_decompose(args) -> int:
    if not args.rel_tol > 0:
        raise ValueError("rel-tol must be positive")
    g = _load_graph_arg(args.graph)
    f = _finite_vector(json.loads(_read_text(args.f)))
    if f is None:
        raise ValueError(f"--f must be a JSON array of finite numbers: {args.f}")
    q = assemble(g, boundary=_boundary_list(args.boundary))
    root = args.root if args.root is not None else g.ids[0]
    ex = ball_exhaustion(g, root, n_levels=args.levels, plateau=args.plateau)
    result = reflected_form(q, ex, f, rel_tol=args.rel_tol)
    report = result.to_dict()
    report["config"] = {
        "graph": args.graph,
        "boundary": _boundary_list(args.boundary),
        "root": root,
        "levels": args.levels,
        "plateau": args.plateau,
        "rel_tol": args.rel_tol,
    }
    text = (
        f"main      = {result.main_value:.12g}\n"
        f"killing   = {result.killing_value:.12g}\n"
        f"reflected = {result.reflected_value:.12g}\n"
        f"converged = {result.converged}"
    )
    _emit(report, text, args)
    return 0


def _cmd_dominate(args) -> int:
    lower = assemble(_load_graph_arg(args.lower), boundary=_boundary_list(args.lower_boundary))
    upper = assemble(_load_graph_arg(args.upper), boundary=_boundary_list(args.upper_boundary))
    report = check_silverstein(FormPair(lower=lower, upper=upper))
    d = report.to_dict()
    d["config"] = {"lower": args.lower, "upper": args.upper, "seed": args.seed}
    text = "\n".join(
        [
            f"resolvent domination: {report.resolvent_ok}",
            f"order ideal:          {report.ideal_ok}",
            f"cone inequality:      {report.inequality.ok} ({report.inequality.method})",
            f"extension:            {report.extension_ok}",
            f"silverstein:          {report.silverstein}",
        ]
        + [f"defect: {x}" for x in report.defects]
    )
    _emit(d, text, args)
    return 0 if report.silverstein and not report.defects else CHECK_FAILED


def _cmd_counterexample(args) -> int:
    rep = run_counterexample(CounterexampleSetup(n=args.n))
    _emit(rep.to_dict(), rep.summary(), args)
    return 0 if rep.contradiction_reproduced else CHECK_FAILED


def _cmd_classify(args) -> int:
    g = _load_graph_arg(args.graph)
    q = assemble(g, boundary=_boundary_list(args.boundary))
    root = args.root if args.root is not None else g.ids[0]
    ex = ball_exhaustion(g, root, n_levels=args.levels, plateau=args.plateau)
    rep = classify_recurrence(q, ex)
    rep["config"] = {"graph": args.graph, "boundary": _boundary_list(args.boundary)}
    text = "\n".join(f"{k} = {v}" for k, v in sorted(rep.items()) if k != "config")
    _emit(rep, text, args)
    return 0


def _cmd_selftest(args) -> int:
    echo = print if args.format == "text" and not args.output else None
    results = run_selftest(echo=echo)
    report = {"results": [asdict(r) for r in results], "passed": all(r.passed for r in results)}
    text = "\n".join(
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name}" + (f"  ({r.detail})" if r.detail else "")
        for r in results
    )
    if args.format == "json" or args.output:
        _emit(report, text, args)
    return 0 if report["passed"] else CHECK_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--output", default=argparse.SUPPRESS, help="write the report to a file"
    )
    parser = argparse.ArgumentParser(
        prog="graphforms",
        parents=[common],
        description="Energy forms on weighted graphs: decomposition, domination, scenarios.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("validate", help="check a graph file against the axioms")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_validate)

    p = add_parser("decompose", help="main/killing/reflected values of a function")
    p.add_argument("graph")
    p.add_argument("--f", required=True, help="JSON array of values in vertex order")
    p.add_argument(
        "--boundary",
        default="",
        help="Dirichlet vertices: comma-separated, or a JSON array of ids",
    )
    p.add_argument("--root", default=None)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--plateau", type=int, default=1)
    p.add_argument("--rel-tol", type=float, default=1e-8, dest="rel_tol")
    p.set_defaults(handler=_cmd_decompose)

    p = add_parser("dominate", help="domination and Silverstein report for two graphs")
    p.add_argument("lower")
    p.add_argument("upper")
    p.add_argument("--lower-boundary", default="", dest="lower_boundary")
    p.add_argument("--upper-boundary", default="", dest="upper_boundary")
    p.add_argument("--seed", type=int, default=42, help="kept for compatibility; unused")
    p.set_defaults(handler=_cmd_dominate)

    p = add_parser("counterexample", help="reproduce the no-maximal-extension study")
    p.add_argument("--n", type=int, default=201)
    p.set_defaults(handler=_cmd_counterexample)

    p = add_parser("classify", help="recurrence/transience classification")
    p.add_argument("graph")
    p.add_argument("--boundary", default="")
    p.add_argument("--root", default=None)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--plateau", type=int, default=1)
    p.set_defaults(handler=_cmd_classify)

    p = add_parser("selftest", help="run every module property suite")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    args.format = getattr(args, "format", "json")
    args.output = getattr(args, "output", None)
    try:
        return args.handler(args)
    # LinAlgError is a ValueError, so it is caught first.
    except (np.linalg.LinAlgError, MemoryError, OverflowError, RuntimeError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return COMPUTATION_FAILED
    except (OSError, json.JSONDecodeError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
