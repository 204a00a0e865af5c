"""Truncated forms, main/killing decomposition, oracles, recurrence."""

import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforms import (
    Exhaustion,
    IntegerLineGenerator,
    SquareLatticeGenerator,
    WeightedGraph,
    apply_contraction,
    assemble,
    ball_exhaustion,
    build_exhaustion,
    classify_recurrence,
    contraction_catalog,
    emit_graph,
    generator_ball,
    graph_oracle_killing,
    graph_oracle_main,
    killing_part,
    load_graph,
    main_part,
    make_path,
    recurrence_check,
    reflected_form,
    single_vertex,
    truncate,
    truncated_form,
    truncated_oracle,
)
from graphforms.cli import _boundary_list
from graphforms.corpus import (
    form_corpus,
    random_cutoff,
    random_function,
    random_masked_function,
)
from graphforms import reflection
from graphforms.forms import energy_terms
from graphforms.reflection import (
    _running_sums,
    _truncated,
    _Walk,
    effective_killing,
    form_oracle_killing,
    form_oracle_main,
)


def masked_full(q):
    return Exhaustion.full(q.graph).masked(q.active)


class TestTruncatedForm:
    def test_full_cutoff_no_killing_equals_energy(self):
        rng = np.random.default_rng(0)
        g = make_path(5, 0.7)  # c = 0
        q = assemble(g)
        f = rng.uniform(-2, 2, 5)
        assert truncated_form(q, np.ones(5), f).value == pytest.approx(
            q.evaluate(f), rel=1e-13
        )

    def test_pure_killing_vanishes(self):
        q = assemble(single_vertex(2.0, 3.0))
        assert truncated_form(q, np.ones(1), np.array([1.7])).value == 0.0

    def test_constants_annihilated(self):
        rng = np.random.default_rng(1)
        for q, _ in form_corpus(31, 3, n_max=15):
            phi = random_cutoff(rng, q)
            val = truncated_form(q, phi, np.ones(q.n)).value
            assert abs(val) <= 1e-12

    def test_matches_pair_sum_oracle(self):
        rng = np.random.default_rng(2)
        for q, _ in form_corpus(32, 5, n_max=25):
            phi = random_cutoff(rng, q)
            f = random_function(rng, q.n)
            a = truncated_form(q, phi, f).value
            b = truncated_oracle(q, phi, f)
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)

    def test_cutoff_range_enforced(self):
        q = assemble(make_path(3, 1.0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            truncated_form(q, np.array([0.0, 1.5, 0.0]), np.ones(3))

    def test_cutoff_mask_enforced(self):
        q = assemble(make_path(3, 1.0), boundary=["v0"])
        with pytest.raises(ValueError, match="vanish off"):
            truncated_form(q, np.ones(3), np.ones(3))

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(3)
        for q, _ in form_corpus(33, 3, n_max=20):
            f = random_function(rng, q.n)
            psi = random_cutoff(rng, q)
            phi = psi * rng.uniform(0, 1, q.n)
            assert truncated_form(q, phi, f).value <= truncated_form(q, psi, f).value + 1e-10

    def test_dominated_by_energy_on_domain(self):
        rng = np.random.default_rng(4)
        for q, _ in form_corpus(34, 3, n_max=20):
            f = random_masked_function(rng, q)
            phi = random_cutoff(rng, q)
            assert truncated_form(q, phi, f).value <= q.evaluate(f) + 1e-10


class TestMainPart:
    def test_isolated_interior_has_no_main_energy(self):
        q = assemble(make_path(3, 0.5), boundary=["v0", "v2"])
        ex = masked_full(q)
        for t in (1.0, -2.0):
            res = main_part(q, ex, np.array([0.0, t, 0.0]))
            assert res.value == 0.0
            assert res.converged

    def test_no_mask_no_killing_equals_energy(self):
        rng = np.random.default_rng(5)
        g = make_path(6, 0.4)
        q = assemble(g)
        f = rng.uniform(-2, 2, 6)
        res = main_part(q, Exhaustion.full(g), f)
        assert res.value == pytest.approx(q.evaluate(f), rel=1e-13)

    def test_constants_have_zero_main_part(self):
        for q, ex in form_corpus(35, 3, n_max=20):
            res = main_part(q, ex.masked(q.active), np.ones(q.n))
            assert abs(res.value) <= 1e-10

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(6)
        for q, ex in form_corpus(36, 4, n_max=25):
            f = random_function(rng, q.n)
            res = main_part(q, ex.masked(q.active), f)
            for a, b in zip(res.trace, res.trace[1:]):
                assert b >= a - 1e-10 * max(1.0, abs(a))

    def test_unmasked_cutoff_rejected(self):
        q = assemble(make_path(4, 1.0), boundary=["v0"])
        ex = Exhaustion.full(q.graph)
        with pytest.raises(ValueError, match="mask"):
            main_part(q, ex, np.zeros(4))

    def test_unmasked_ball_cutoff_rejected(self):
        # Ball cutoffs are checked from their root distances, without dense cutoffs.
        ids = ["v0", "v1", "v2", "w0", "w1"]
        edges = [("v0", "v1", 1.0), ("v1", "v2", 1.0), ("w0", "w1", 1.0)]
        g = WeightedGraph(ids, [1.0] * 5, [0.0] * 5, edges)
        f = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        for boundary, saturate, rejected in (
            ("v2", False, True), ("w1", True, True), ("w1", False, False),
        ):
            q = assemble(g, boundary=[boundary])
            ex = ball_exhaustion(g, "v0", n_levels=2, plateau=1, saturate=saturate)
            for part in (main_part, killing_part):
                if rejected:
                    with pytest.raises(ValueError, match="mask"):
                        part(q, ex, f * q.active)
                else:  # no cutoff reaches the other component
                    assert part(q, ex, f).trace == part(q, ex.masked(q.active), f).trace


class TestKillingPart:
    def test_single_vertex(self):
        q = assemble(single_vertex(2.0, 3.0))
        ex = masked_full(q)
        for t in (1.0, 0.5, -2.0):
            res = killing_part(q, ex, np.array([t]))
            assert res.value == pytest.approx(3 * t * t, rel=1e-13)

    def test_vanishes_without_killing_or_boundary(self):
        rng = np.random.default_rng(7)
        g = make_path(7, 0.3)
        q = assemble(g)
        f = rng.uniform(-2, 2, 7)
        res = killing_part(q, Exhaustion.full(g), f)
        assert abs(res.value) <= 1e-12

    def test_masked_path_interior_spike(self):
        # boundary edges fold into killing: c_eff(v1) = 2*(1+1) = 4
        q = assemble(make_path(3, 0.5), boundary=["v0", "v2"])
        ex = masked_full(q)
        for a, t, b in ((0.0, 1.0, 0.0), (3.0, -0.5, 1.0)):
            res = killing_part(q, ex, np.array([a, t, b]))
            assert res.value == pytest.approx(4 * t * t, rel=1e-12, abs=1e-13)

    def test_grid_monotone(self):
        rng = np.random.default_rng(8)
        q, ex = form_corpus(37, 1, n_max=20)[0]
        f = random_function(rng, q.n)
        top = float(np.abs(f).max())
        res = killing_part(
            q, ex.masked(q.active), f, clamp_levels=[0.5 * top, top, 2 * top]
        )
        grid = np.array(res.trace)
        assert np.all(np.diff(grid, axis=0) >= -1e-10)  # clamp index
        assert np.all(np.diff(grid, axis=1) >= -1e-10)  # cutoff index

    def test_bad_clamp_ladders_rejected(self):
        # c_eff is 1 at v1 (the edge into v0) and 2 at v3, so the killing part of f is 17.
        g = make_path(6, 1.0)
        q = assemble(g, boundary=["v0"], extra_killing={"v3": 2.0})
        ex = ball_exhaustion(g, "v3", n_levels=4, plateau=1)
        f = np.array([0.0, 3.0, 1.0, 2.0, 1.0, 0.0])
        res = reflected_form(q, ex, f, clamp_levels=[0.5, 3.0])
        assert res.killing_value == form_oracle_killing(q, f) == 17.0
        for ladder, message in (([], "empty"), ([3.0, 0.5], "nondecreasing"),
                                ([0.5, 0.0], "positive")):
            with pytest.raises(ValueError, match=message):
                reflected_form(q, ex, f, clamp_levels=ladder)


class TestReflectedForm:
    def test_extends_the_energy(self):
        rng = np.random.default_rng(9)
        for q, ex in form_corpus(38, 5, n_max=30):
            f = random_masked_function(rng, q)
            res = reflected_form(q, ex, f)
            qf = q.evaluate(f)
            assert abs(res.reflected_value - qf) <= 1e-9 * (1.0 + abs(qf))

    def test_masked_path_all_ones(self):
        q = assemble(make_path(3, 0.5), boundary=["v0", "v2"])
        res = reflected_form(q, Exhaustion.full(q.graph), np.ones(3))
        assert res.main_value == 0.0
        assert res.killing_value == pytest.approx(4.0, rel=1e-13)
        assert res.reflected_value == pytest.approx(4.0, rel=1e-13)

    def test_zero_function(self):
        q, ex = form_corpus(39, 1, n_max=10)[0]
        res = reflected_form(q, ex, np.zeros(q.n))
        assert res.main_value == res.killing_value == res.reflected_value == 0.0

    def test_sum_identity_and_json_schema(self):
        rng = np.random.default_rng(10)
        q, ex = form_corpus(40, 1, n_max=15)[0]
        res = reflected_form(q, ex, random_function(rng, q.n))
        assert res.reflected_value == res.main_value + res.killing_value
        payload = json.loads(res.to_json())
        assert set(payload) == {
            "f", "main", "killing", "reflected",
            "main_trace", "killing_trace", "converged", "nest_assumed",
        }

    def test_markov_at_value_level(self):
        rng = np.random.default_rng(11)
        q, ex = form_corpus(41, 1, n_max=15)[0]
        f = random_function(rng, q.n)
        base = reflected_form(q, ex, f)
        for C in contraction_catalog():
            res = reflected_form(q, ex, apply_contraction(C, f))
            assert res.main_value <= base.main_value + 1e-10
            assert res.reflected_value <= base.reflected_value + 1e-10


class TestTruncationMismatch:
    """A form and an exhaustion on different truncations give one ValueError."""

    @pytest.mark.parametrize("n_ex", [5, 7])
    def test_every_entry_point_rejects(self, n_ex):
        q = assemble(make_path(6, 1.0), boundary=["v0"])
        g = make_path(n_ex, 1.0)
        ones = np.ones(q.n) * q.active
        for ex in (ball_exhaustion(g, "v1", n_levels=2, plateau=1), Exhaustion.full(g)):
            for run in (
                lambda: reflected_form(q, ex, ones),
                lambda: main_part(q, ex, ones),
                lambda: killing_part(q, ex, ones),
                lambda: main_part(q, ex.masked(np.ones(n_ex, dtype=bool)), ones),
                lambda: classify_recurrence(q, ex),
            ):
                with pytest.raises(ValueError, match="different truncations"):
                    run()


class TestGraphOracles:
    def test_no_boundary_main_is_stripped_energy(self):
        rng = np.random.default_rng(12)
        g = make_path(5, 1.0)  # c = 0
        q = assemble(g)
        f = rng.uniform(-1, 1, 5)
        assert graph_oracle_main(g, np.ones(5, bool), f) == pytest.approx(
            q.evaluate(f), rel=1e-13
        )

    def test_single_interior_vertex(self):
        g = make_path(3, 0.5)
        active = np.array([False, True, False])
        assert graph_oracle_main(g, active, np.array([5.0, 2.0, -1.0])) == 0.0

    def test_killing_oracle_values(self):
        g = single_vertex(2.0, 3.0)
        assert graph_oracle_killing(g, np.ones(1, bool), np.ones(1)) == 3.0
        g3 = make_path(3, 0.5)
        active = np.array([False, True, False])
        assert graph_oracle_killing(g3, active, np.array([9.0, 1.0, 9.0])) == 4.0

    def test_no_boundary_no_killing(self):
        g = make_path(4, 1.0)
        assert graph_oracle_killing(g, np.ones(4, bool), np.ones(4)) == 0.0

    def test_random_instances_match_decomposition(self):
        rng = np.random.default_rng(13)
        for q, ex in form_corpus(42, 6, n_min=6, n_max=6):
            f = random_function(rng, q.n)
            res = reflected_form(q, ex, f)
            assert res.main_value == pytest.approx(form_oracle_main(q, f), rel=1e-10, abs=1e-12)
            assert res.killing_value == pytest.approx(
                form_oracle_killing(q, f), rel=1e-10, abs=1e-12
            )


def _loop_effective_killing(graph, active, extra_killing=None, couplings=()):
    # The per-edge loop effective_killing replaced, kept as its oracle.
    active = np.asarray(active, dtype=bool)
    ceff = np.where(active, graph.c, 0.0).astype(float)
    if extra_killing is not None:
        ceff = ceff + np.where(active, np.asarray(extra_killing, dtype=float), 0.0)
    for u, v, b in zip(graph.edge_u, graph.edge_v, graph.edge_b):
        if active[u] and not active[v]:
            ceff[u] += 2.0 * b
        elif active[v] and not active[u]:
            ceff[v] += 2.0 * b
    for cp in couplings:
        if active[cp.u] and not active[cp.v]:
            ceff[cp.u] += cp.w
        elif active[cp.v] and not active[cp.u]:
            ceff[cp.v] += cp.w
    return ceff


def test_effective_killing_matches_the_edge_loop():
    rng = np.random.default_rng(95)
    cases = 0
    for q, _ in form_corpus(96, 12, n_min=2, n_max=40):
        g = q.graph
        masks = [q.active, rng.random(g.n) < 0.5, np.ones(g.n, dtype=bool)]
        extras = [None, q.killing_extra]
        # Couplings of weight 0, with one inactive endpoint, and repeated onto one vertex.
        ends = rng.integers(g.n, size=(6, 2))
        weights = [0.0, 0.3, 1e-17, 2.5, 0.3, 7.0]
        couplings = [assemble(g, couplings=[(int(u), int(v), w)]).couplings[0]
                     for (u, v), w in zip(ends, weights)]
        for active in masks:
            for extra in extras:
                for cps in ((), q.couplings, couplings):
                    got = effective_killing(g, active, extra, cps)
                    want = _loop_effective_killing(g, active, extra, cps)
                    assert _hex(got) == _hex(want)
                    cases += 1
    assert cases == 12 * 3 * 2 * 3


class TestRecurrence:
    def test_main_part_always_recurrent(self):
        for q, ex in form_corpus(43, 3, n_max=15):
            rep = recurrence_check(q, ex)
            assert rep["recurrent_main"]

    def test_recurrent_main_is_exact(self):
        # The main value at 1 is exactly 0.0 for finite weights, NaN with an infinite one.
        g = WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 0.0], [("a", "b", math.inf)])
        for q, want in ((assemble(make_path(5, 1e300)), True), (assemble(g), False)):
            assert recurrence_check(q, Exhaustion.full(q.graph))["recurrent_main"] is want

    def test_free_form_is_recurrent(self):
        g = make_path(5, 1.0)
        q = assemble(g)
        rep = recurrence_check(q, ball_exhaustion(g, "v0"))
        assert rep["reflected_value_at_1"] == pytest.approx(0.0, abs=1e-12)

    def test_single_vertex_total_killing(self):
        q = assemble(single_vertex(2.0, 3.0))
        rep = recurrence_check(q, Exhaustion.full(q.graph))
        assert rep["reflected_value_at_1"] == pytest.approx(3.0, rel=1e-13)


def _old_truncated(q, phi, f):
    # T_phi(f) as every level computed it before: two full energy sums.
    return q.evaluate(phi * f) - q.bilinear(phi * f * f, phi)


def _old_traces(q, ex, f, clamp_levels=None):
    """Main and killing traces from the per-level loop over whole-graph sums."""
    mex = ex.masked(q.active)
    main = [_old_truncated(q, chi, f) for chi in mex.cutoffs]
    if clamp_levels is None:
        top = float(np.max(np.abs(f)))
        clamp_levels = [top if top > 0 else 1.0]
    full = np.where(q.active, 1.0, 0.0)
    grid = []
    for level in clamp_levels:
        fn = np.clip(f, -level, level)
        grid.append(
            [q.evaluate(chi * fn) - _old_truncated(q, full, chi * fn) for chi in mex.cutoffs]
        )
    return main, grid


def _hex(values):
    return [float(v).hex() for v in values]


def _support_instances():
    rng = np.random.default_rng(77)
    for saturate in (True, False):
        for q, _ in form_corpus(78, 6, n_min=5, n_max=40):
            ex = ball_exhaustion(q.graph, 0, n_levels=4, plateau=1, saturate=saturate)
            yield q, ex, random_function(rng, q.n)
    for gen, root, boundary in (
        (SquareLatticeGenerator(c=0.1, b=0.5), "0,0", ["1,0", "-2,1"]),
        (IntegerLineGenerator(c=0.2), "0", ["3"]),
    ):
        ex = build_exhaustion(gen, root, n_levels=6, plateau=2)
        g = ex.graph
        extra = {g.ids[5]: 0.7}
        couplings = [(g.ids[1], g.ids[-1], 0.3), (g.ids[2], g.ids[4], 0.0)]
        for kw in ({}, {"extra_killing": extra, "couplings": couplings}):
            q = assemble(g, boundary=boundary, **kw)
            yield q, ex, random_function(rng, g.n)
    # Not nested: cutoffs of random supports, in any order.
    q = form_corpus(79, 1, n_min=20, n_max=20)[0][0]
    cutoffs = [rng.uniform(0.0, 1.0, q.n) * (rng.random(q.n) < 0.3) for _ in range(5)]
    sets = [np.flatnonzero(chi == 1.0) for chi in cutoffs]
    yield q, Exhaustion(q.graph, sets, cutoffs), random_function(rng, q.n)


def _walk_instances():
    """(form, exhaustion, f) for the walk's edge cases."""
    rng = np.random.default_rng(91)
    for plateau in (1, 2, 3, 4):
        for gen, root, boundary in (
            (SquareLatticeGenerator(c=0.05), "0,0", ["2,0"]),
            (IntegerLineGenerator(b=0.5), "0", ["-3"]),
        ):
            ex = build_exhaustion(gen, root, n_levels=5, plateau=plateau)
            q = assemble(ex.graph, boundary=boundary)
            yield q, ex, random_function(rng, q.n)
    # A saturated ball exhaustion of a loaded graph, with a boundary read as the CLI reads it.
    gen = SquareLatticeGenerator(c=0.2)
    g = load_graph(emit_graph(truncate(gen, generator_ball(gen, "0,0", 6))))
    q = assemble(g, boundary=_boundary_list('["3,0", "0,-2"]'))
    yield q, ball_exhaustion(g, "0,0", n_levels=4, plateau=2), random_function(rng, g.n)
    # Couplings: one of weight 0, one onto the boundary, one between the outer rims.
    ex = build_exhaustion(SquareLatticeGenerator(b=2.0), "1,-1", n_levels=4, plateau=2)
    g = ex.graph
    couplings = [(g.ids[0], g.ids[7], 0.4), (g.ids[3], g.ids[4], 0.0),
                 (g.ids[9], g.ids[20], 0.7), (g.ids[-1], g.ids[-2], 0.1)]
    q = assemble(g, boundary=[g.ids[9]], extra_killing={g.ids[2]: 1.5}, couplings=couplings)
    yield q, ex, random_function(rng, g.n)
    # Hand-built and nested: the levels come from one scan of the explicit cutoffs.
    q = form_corpus(97, 1, n_min=30, n_max=30)[0][0]
    steps = rng.uniform(0.0, 1.0, (5, q.n)) * (rng.random((5, q.n)) < 0.4)
    cutoffs = list(np.minimum(2.0 * np.cumsum(steps, axis=0), 1.0))
    sets = [np.flatnonzero(chi == 1.0) for chi in cutoffs]
    yield q, Exhaustion(q.graph, sets, cutoffs), random_function(rng, q.n)
    # Not nested: walked too, since enter and freeze never assume nesting.
    q = form_corpus(92, 1, n_min=20, n_max=20)[0][0]
    cutoffs = [rng.uniform(0.0, 1.0, q.n) * (rng.random(q.n) < 0.4) for _ in range(4)]
    sets = [np.flatnonzero(chi == 1.0) for chi in cutoffs]
    yield q, Exhaustion(q.graph, sets, cutoffs), random_function(rng, q.n)


def _hand_built_cutoffs(rng, n, kind):
    """Explicit cutoffs of one kind: not nested, decreasing, or repeated 0/0.5/1 values."""
    levels = int(rng.integers(1, 6))
    if kind == "non-nested":
        return [rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5) for _ in range(levels)]
    if kind == "decreasing":
        steps = rng.uniform(0.0, 1.0, (levels, n)) * (rng.random((levels, n)) < 0.4)
        return list(np.minimum(2.0 * np.cumsum(steps, axis=0), 1.0)[::-1])
    values = [rng.choice([0.0, 0.5, 1.0], size=n) for _ in range(levels)]
    return [values[k] for k in rng.integers(levels, size=levels + 2)]


def _new_traces(q, ex, f, clamp_levels=None):
    res = reflected_form(q, ex, f, clamp_levels=clamp_levels)
    return res.main_trace, res.killing_trace


def _outcome(traces, *args):
    try:
        main, grid = traces(*args)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)
    return _hex(main), [_hex(row) for row in grid]


class TestLevelSupports:
    """The level walk's sums equal the whole-graph sums bit for bit."""

    def test_walk_matches_whole_graph_loop(self):
        count = 0
        for q, ex, f in _walk_instances():
            for clamp_levels in (None, [0.5, 1.0, 3.0]):
                res = reflected_form(q, ex, f, clamp_levels=clamp_levels)
                main, grid = _old_traces(q, ex, f, clamp_levels)
                assert _hex(res.main_trace) == _hex(main)
                assert [_hex(row) for row in res.killing_trace] == [_hex(row) for row in grid]
                count += 1
        assert count == 2 * (8 + 1 + 1 + 1 + 1)

    def test_hand_built_cutoffs_match_whole_graph_loop(self):
        # Seeded stress: the walk, on exhaustions masked here or by reflected_form.
        rng = np.random.default_rng(95)
        count = 0
        for q, _ in form_corpus(96, 25, n_min=3, n_max=30):
            for kind in ("non-nested", "decreasing", "repeated"):
                cutoffs = _hand_built_cutoffs(rng, q.n, kind)
                ex = Exhaustion(q.graph, [np.flatnonzero(chi == 1.0) for chi in cutoffs], cutoffs)
                f = random_function(rng, q.n)
                for clamp_levels in (None, [0.5, 1.0, 3.0]):
                    main, grid = _old_traces(q, ex, f, clamp_levels)
                    for given in (ex, ex.masked(q.active)):
                        res = reflected_form(q, given, f, clamp_levels=clamp_levels)
                        assert _hex(res.main_trace) == _hex(main)
                        assert [_hex(r) for r in res.killing_trace] == [_hex(r) for r in grid]
                        count += 1
        assert count == 25 * 3 * 2 * 2

    def test_hand_built_error_precedence(self):
        q = assemble(make_path(4, 1.0), boundary=["v0"])
        g, f, no_set = q.graph, np.array([0.0, 1.0, 2.0, 1.0]), [np.array([], dtype=int)]
        both = Exhaustion(g, no_set, [np.array([0.5, 1.5, 0.0, 0.0])])  # boundary and > 1
        nan = Exhaustion(g, no_set, [np.array([0.0, np.nan, 0.0, 0.0])])
        for part in (main_part, killing_part):
            with pytest.raises(ValueError, match="boundary"):
                part(q, both, f)
            with pytest.raises(ValueError, match="vertex functions must be finite"):
                part(q, nan, f)
        with pytest.raises(ValueError, match="vertex functions must be finite"):
            reflected_form(q, nan, f)

    def test_overflowing_term_raises_with_finite_weights(self):
        # f(v0)^2 and (f(v0) - f(v1))^2 overflow: an OverflowError, where the whole-graph
        # sums gave inf - inf = NaN; a non-finite weight still gives NaN energies.
        f = np.array([1e308, 1.0, 1.0, 1.0, 1.0])
        q = assemble(make_path(5, 1.0))
        ex = ball_exhaustion(q.graph, "v0", n_levels=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: reflected_form(q, ex, f), lambda: main_part(q, ex, f),
                         lambda: killing_part(q, ex, f), lambda: q.evaluate(f),
                         lambda: truncated_form(q, np.full(5, 0.5), f)):
                with pytest.raises(OverflowError, match="past the float range"):
                    call()
            # a zero factor keeps a term zero: f^2 overflows, but c = 0 and df = 0
            big = np.full(5, 1e200)
            assert q.evaluate(big) == 0.0
            assert truncated_form(q, np.full(5, 0.5), big).value == 0.0
            edges = [("v0", "v1", math.inf), ("v1", "v2", 1.0)]
            q_inf = assemble(WeightedGraph(["v0", "v1", "v2"], [1.0] * 3, [0.0] * 3, edges))
            assert math.isnan(q_inf.evaluate(f[:3]))
            assert math.isnan(truncated_form(q_inf, np.full(3, 0.5), f[:3]).value)

    @pytest.mark.parametrize("values", [[7e153, -7e153, 7e153], [7e153, -7e153, 0.0]])
    def test_huge_terms_give_the_old_value_or_exception(self, values):
        # Level sums near the float range take the per-level sums, where fsum may overflow.
        edges = [("a", "b", 0.25), ("b", "c", 0.25)]
        g = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, edges)
        q = assemble(g)
        f = np.array(values)
        for ex in (Exhaustion.full(g), ball_exhaustion(g, "a", n_levels=2, plateau=1)):
            new = _outcome(_new_traces, q, ex, f)
            assert new == _outcome(_old_traces, q, ex, f)
            assert (new is OverflowError) == (values[2] != 0.0)

    def test_level_sums_hand_fsum_linear_work(self, monkeypatch):
        # Summing every level's whole support would hand fsum about 35 (n + edges) terms
        # here, for f and for f x 1e144, whose terms are past the term bound unscaled.
        ex = build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=68, plateau=2)
        g = ex.graph
        q = assemble(g, boundary=["1,0"])
        f = random_function(np.random.default_rng(93), g.n)
        f[g.index["1,0"]] = 0.0
        handed = []
        fsum = math.fsum

        def counting(terms):
            terms = list(terms)
            handed.append(len(terms))
            return fsum(terms)

        # Rows handed to each energy_terms call: the killing part's Q(g^2, 1) reads only
        # the pair rows that cross the Dirichlet vertex "1,0" (it has four neighbours, and
        # c = 0), at most 4 x levels rows, while the main part's two sums read every row.
        rows = []

        def spy(a_p, b_p, w, a_x, b_x, c):
            rows.append(len(w) + len(c))
            return energy_terms(a_p, b_p, w, a_x, b_x, c)

        (block,) = _Walk(q, ex.masked(q.active), f).blocks
        monkeypatch.setattr(math, "fsum", counting)
        monkeypatch.setattr(reflection, "energy_terms", spy)
        assert g.n > 9000 and not q.c_total.any() and len(block.slot) > 7 * g.n
        for scale in (1.0, 1e144):
            handed.clear()
            rows.clear()
            reflected_form(q, ex, f * scale)
            assert sum(handed) <= 8 * (g.n + len(g.edge_b))
            # Each level is one fsum over the few floats the extraction leaves; the
            # killing part takes Q(chi_k f) from the main part and sums only Q(g^2, 1).
            assert len(handed) == 3 * ex.levels
            assert max(handed) <= 8
            assert rows[:2] == [len(block.slot)] * 2
            assert len(rows) == 3 and 0 < rows[2] <= 4 * ex.levels
        # A clamped level forms Q(g) on every row, and Q(g^2, 1) on the crossing rows only.
        rows.clear()
        killing_part(q, ex.masked(q.active), f, clamp_levels=[0.25])
        assert len(rows) == 2 and rows[0] == len(block.slot) and 0 < rows[1] <= 4 * ex.levels
        assert [_Walk(q, ex.masked(q.active), f * scale).shift for scale in (1.0, 1e144)] == [0, 8]

    def test_running_sums_are_exact(self):
        # Running terms (slot k counts at every level >= k) mixed with point terms
        # (slot levels + k counts at level k only), subnormals to 2^900, cancellations.
        def check(terms, slot, levels):
            running = _running_sums(terms, slot, levels)
            assert len(running) == levels
            for k, parts in enumerate(running):
                assert all(isinstance(v, float) and v != 0.0 for v in parts)
                exact = sum(
                    Fraction(t) for t, s in zip(terms.tolist(), slot) if s <= k or s == levels + k
                )
                assert sum(map(Fraction, parts)) == exact
                assert math.fsum(parts) == float(exact)
            return running

        rng = np.random.default_rng(94)
        for _ in range(40):
            n, levels = int(rng.integers(1, 200)), int(rng.integers(1, 6))
            terms = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1100, 900, n))
            terms = np.concatenate((terms, -terms[: n // 3], np.zeros(2)))
            check(terms, rng.integers(2 * levels, size=len(terms)), levels)
        # Zeros count toward the extraction's bound and are dropped only once they are at
        # least half of what remains: all zeros, one nonzero among 10^4 zeros, exactly
        # half zeros, and 2^900 next to subnormals, where 2^900 and -2^900 cancel.
        assert check(np.array([0.0, -0.0, 0.0]), np.array([0, 3, 5]), 3) == [[], [], []]
        lone = np.zeros(10**4 + 1)
        lone[4321] = -0.75
        slot = rng.integers(8, size=len(lone))
        slot[4321] = 2
        assert check(lone, slot, 4) == [[], [], [-0.75], [-0.75]]
        half = np.ldexp(rng.uniform(-1.0, 1.0, 64), rng.integers(-60, 60, 64))
        half[rng.permutation(64)[:32]] = 0.0
        check(half, rng.integers(10, size=64), 5)
        tiny = math.ldexp(1.0, -1074)
        wide = np.array([2.0**900, tiny, -3 * tiny, 5 * tiny, 2.0**-1050, -(2.0**900), tiny])
        for slot in (np.zeros(7, dtype=int), np.array([0, 1, 2, 3, 4, 5, 1]), np.arange(7) % 3):
            check(wide, slot, 3)
        check(np.concatenate((wide, np.zeros(7))), np.arange(14) % 6, 3)

    def test_huge_f_on_a_lattice_ball_matches_the_per_level_oracle(self):
        # f of magnitude 1e140 is inside the term bound; 1e145 and 1e150 are walked at
        # a shift, and 1e154 has level sums past the float range.
        ex = build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=60, plateau=2)
        q = assemble(ex.graph, boundary=["60,0"], extra_killing={"0,0": 0.3})
        mex = ex.masked(q.active)
        f = random_function(np.random.default_rng(98), q.n) * q.active
        assert q.n == 7813
        for scale, shift in ((1e140, 0), (1e145, 11), (1e150, 27)):
            assert _Walk(q, mex, f * scale).shift == shift
            res = reflected_form(q, ex, f * scale)
            main, grid = _per_level_oracle(q, mex, f * scale, None)
            assert _hex(res.main_trace) == _hex(main)
            assert [_hex(row) for row in res.killing_trace] == [_hex(row) for row in grid]
            assert _hex([res.main_value, res.killing_value]) == _hex([main[-1], grid[-1][-1]])
        with pytest.raises(OverflowError):
            _per_level_oracle(q, mex, f * 1e154, None)
        with pytest.raises(OverflowError, match="past the float range"):
            reflected_form(q, ex, f * 1e154)

    def test_shift_is_the_least_that_bounds_the_terms(self):
        # One edge of weight b and f = (x, 0): the term bound 2 b x^2 is exact here, and
        # the shift is the least k with 4^-k 2 b x^2 <= 2^960 and |2^-k x| < 2^511.
        def shift(b, x):
            g = WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 0.0], [("a", "b", b)])
            return _Walk(assemble(g), Exhaustion.full(g), [x, 0.0]).shift

        def least(b, x):
            bound, k = 2 * Fraction(b) * Fraction(x) ** 2, 0
            while bound / 4**k > 2**960 or abs(Fraction(x)) / 2**k >= 2**511:
                k += 1
            return k

        cases = [(0.5, 2.0**480), (0.5, math.nextafter(2.0**480, math.inf)), (0.5, 0.0),
                 (8e307, 1.0), (8e307, 1e10), (8e307, 1e-300), (1e-300, 1e200),
                 (1e-300, 2.0**510), (0.25, 1e154), (3.0, -7e153)]
        assert [shift(b, x) for b, x in cases] == [least(b, x) for b, x in cases]
        assert [shift(b, x) for b, x in cases[:2]] == [0, 1]

    def test_tiny_weights_with_huge_f(self):
        # f^2 = 1e400 is past the float range while every term is not: the walk scales f
        # so that phi f^2 stays finite, and the parts are the sums of the scaled terms.
        g = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3,
                          [("a", "b", 1e-300), ("b", "c", 1e-300)])
        q = assemble(g)
        ex = Exhaustion(g, [np.array([0]), np.arange(3)],
                        [np.array([1.0, 0.5, 0.0]), np.ones(3)])
        f = np.array([1e200, 1e200, 0.0])
        k = _Walk(q, ex, f).shift
        assert k == 154
        main, grid = _scaled_oracle(q, ex, f, None, k)
        res = reflected_form(q, ex, f)
        assert _hex(res.main_trace) == _hex(main)
        assert [_hex(row) for row in res.killing_trace] == [_hex(row) for row in grid]
        assert res.main_trace == pytest.approx([truncated_oracle(q, chi, f) for chi in ex.cutoffs])
        assert res.reflected_value == pytest.approx(q.evaluate(f)) and res.converged

    def test_subnormal_scaled_terms_next_to_huge_ones(self):
        # At level 0 only c and d carry f, and their terms, ~1e-300 unscaled, are
        # subnormal at the shift the huge terms of level 1 need: that level value is the
        # scaled sum times 2^2k, rounded coarser than the whole-graph sum, while level 1
        # is the whole-graph sum bit for bit.
        g = make_path(4, 1.0)
        q = assemble(g)
        ex = Exhaustion(g, [np.array([2]), np.arange(4)],
                        [np.array([0.0, 0.0, 1.0, 0.5]), np.ones(4)])
        f = np.array([1e150, -1e150, 7e-151, 0.0])
        k = _Walk(q, ex, f).shift
        assert k == 20
        res = reflected_form(q, ex, f)
        want = _scaled_oracle(q, ex, f, None, k)
        old = _per_level_oracle(q, ex, f, None)
        assert (_hex(res.main_trace), [_hex(r) for r in res.killing_trace]) == (
            _hex(want[0]), [_hex(r) for r in want[1]])
        assert res.main_trace[1] == old[0][1] and res.killing_trace[0][1] == old[1][0][1]
        assert 0.0 < res.main_trace[0] != old[0][0]
        assert res.main_trace[0] == pytest.approx(old[0][0], rel=1e-9)

    def test_decreasing_hand_built_cutoffs_do_not_converge(self):
        # The last level of a decreasing exhaustion is no supremum: here T = 5 at
        # the first two levels and 1.25 after, with Q(f) = 5.
        g = make_path(6, 1.0)
        q, f = assemble(g), np.arange(6.0)
        cutoffs = [np.ones(6)] * 2 + [np.full(6, 0.5)] * 3
        ex = Exhaustion(g, [np.arange(6)] * 2 + [np.array([], dtype=int)] * 3, cutoffs)
        assert q.evaluate(f) == 5.0
        res = reflected_form(q, ex, f)
        assert res.main_trace == [5.0, 5.0, 1.25, 1.25, 1.25]
        assert res.main_value == 1.25 and not res.converged
        assert not main_part(q, ex, f).converged
        assert not killing_part(q, ex, f).converged
        rising = Exhaustion(g, ex.sets[::-1], cutoffs[::-1])
        assert main_part(q, rising, f).converged and reflected_form(q, rising, f).converged

    def test_traces_match_whole_graph_loop(self):
        count = 0
        for q, ex, f in _support_instances():
            for clamp_levels in (None, [0.5, 1.0, 3.0]):
                res = reflected_form(q, ex, f, clamp_levels=clamp_levels)
                main, grid = _old_traces(q, ex, f, clamp_levels)
                assert _hex(res.main_trace) == _hex(main)
                assert [_hex(row) for row in res.killing_trace] == [_hex(row) for row in grid]
                count += 1
        assert count == 2 * (12 + 4 + 1)

    def test_truncated_form_matches_whole_graph_sums(self):
        rng = np.random.default_rng(80)
        for q, _ in form_corpus(81, 5, n_max=30):
            phi = random_cutoff(rng, q) * (rng.random(q.n) < 0.5)
            f = random_function(rng, q.n)
            assert truncated_form(q, phi, f).value.hex() == _old_truncated(q, phi, f).hex()

    @pytest.mark.parametrize("where", ["edge", "killing"])
    def test_infinite_weight_off_the_support_still_shows(self, where):
        # An inf weight on d, which no cutoff reaches, times zero is NaN, as before.
        ids = ["a", "b", "c", "d", "e"]
        b_cd = math.inf if where == "edge" else 1.0
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", b_cd), ("d", "e", 1.0)]
        g = WeightedGraph(ids, [1.0] * 5, [0.0] * 5, edges)
        extra = {"e": math.inf} if where == "killing" else None
        q = assemble(g, extra_killing=extra)
        ex = Exhaustion(g, [np.array([0]), np.array([0, 1])],
                        [np.array([1.0, 0.5, 0, 0, 0]), np.array([1.0, 1.0, 0.5, 0, 0])])
        f = np.array([1.0, -0.5, 2.0, 0.0, 0.0])
        res = reflected_form(q, ex, f)
        main, grid = _old_traces(q, ex, f)
        assert _hex(res.main_trace) == _hex(main)
        assert [_hex(row) for row in res.killing_trace] == [_hex(row) for row in grid]
        assert math.isnan(res.main_trace[0])

    @pytest.mark.parametrize("where", ["edge", "killing", "coupling"])
    def test_infinite_weight_gives_nan_without_a_warning(self, where):
        ids = ["a", "b", "c", "d"]
        b_bc = math.inf if where == "edge" else 1.0
        edges = [("a", "b", 1.0), ("b", "c", b_bc), ("c", "d", 1.0)]
        g = WeightedGraph(ids, [1.0] * 4, [0.0] * 4, edges)
        extra = {"d": math.inf} if where == "killing" else None
        couplings = [("a", "d", math.inf)] if where == "coupling" else ()
        q = assemble(g, extra_killing=extra, couplings=couplings)
        f = np.array([1.0, 2.0, 2.0, 1.0]) if where != "killing" else np.array([1.0, 2.0, 2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(q.evaluate(f))
            for ex in (Exhaustion.full(g), ball_exhaustion(g, "a", n_levels=2, plateau=1)):
                assert math.isnan(reflected_form(q, ex, f).reflected_value)

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_gives_nan_never_converged(self, weight):
        ids = [f"v{i}" for i in range(6)]
        edges = [(ids[i], ids[i + 1], weight if i == 2 else 1.0) for i in range(5)]
        g = WeightedGraph(ids, [1.0] * 6, [0.0] * 6, edges)
        q, f = assemble(g), np.arange(6.0)
        for ex in (Exhaustion.full(g), ball_exhaustion(g, "v0", n_levels=3, plateau=1)):
            res = reflected_form(q, ex, f, clamp_levels=[2.0, 5.0])
            values = [res.main_value, res.killing_value, *res.main_trace,
                      *(v for row in res.killing_trace for v in row)]
            assert len(values) == 2 + 3 * ex.levels and all(map(math.isnan, values))
            assert not res.converged
            assert not main_part(q, ex, f).converged and not killing_part(q, ex, f).converged

    def test_infinite_weight_is_nan_at_every_level(self):
        # The term sums would give T = inf - (-inf) = inf at level 0 here, NaN at level 1;
        # the whole-graph sums are NaN at both levels, as the walk's are.
        g = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3,
                          [("a", "b", math.inf), ("b", "c", 1.0)])
        q, f = assemble(g), np.array([1.0, 0.0, 0.0])
        ex = Exhaustion(g, [np.array([1]), np.arange(3)], [np.array([0.5, 1.0, 0.0]), np.ones(3)])
        assert math.isnan(_per_level_oracle(q, ex, f, None)[0][0])
        res = reflected_form(q, ex, f)
        assert all(map(math.isnan, res.main_trace + res.killing_trace[0]))
        assert not res.converged

    def test_killing_part_range_checks_cutoffs(self):
        q = assemble(make_path(3, 1.0))
        ex = Exhaustion(q.graph, [np.array([1])], [np.array([0.0, 1.5, 0.0])])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            killing_part(q, ex, np.ones(3))


def _per_level_oracle(q, mex, f, clamp_levels):
    """Main trace and killing grid from ``_truncated`` on the whole graph, level by level."""
    main = [_truncated(q, chi, f)[1] for chi in mex.cutoffs]
    if clamp_levels is None:
        top = float(np.max(np.abs(f)))
        clamp_levels = [top if top > 0 else 1.0]
    full = np.where(q.active, 1.0, 0.0)
    grid = []
    for level in clamp_levels:
        fn = np.clip(f, -level, level)
        grid.append([e - t for e, t in (_truncated(q, full, chi * fn) for chi in mex.cutoffs)])
    return main, grid


def _scaled_oracle(q, mex, f, clamp_levels, k):
    """``_per_level_oracle`` on 2^-k f and its clamp levels, each value times 2^2k (inf
    past the float range)."""
    levels = None if clamp_levels is None else list(np.ldexp(clamp_levels, -k))
    main, grid = _per_level_oracle(q, mex, np.ldexp(f, -k), levels)
    with np.errstate(over="ignore"):
        return np.ldexp(main, 2 * k).tolist(), np.ldexp(grid, 2 * k).tolist()


def _far_from_subnormal(mex, f, clamp_levels, k):
    """Whether every nonzero value of 2^-k f, its clamp levels and the cutoffs is at
    least 2^-200: with nonzero weights of at least 2^-10, no term, intermediate result
    or level value formed from 2^-k f is then subnormal."""
    scaled = np.ldexp(np.concatenate([f, clamp_levels or []]), -k)
    values = np.abs(np.concatenate([scaled, *mex.cutoffs]))
    return bool((values[values != 0.0] >= 2.0**-200).all())


_WEIGHTS = st.sampled_from([0.0, 0.25, 1.0, 3.0, 1e-3, 7.5e5])


@st.composite
def walk_cases(draw):
    """(form, exhaustion, f, clamp ladder): a random graph with killing, couplings (self-
    couplings and couplings into the boundary among them), extra killing and a Dirichlet
    mask, ball or explicit (not nested) cutoffs, f times a power of two from 2^-600 to
    2^600, and a ladder that may stop below max|f|."""
    n = draw(st.integers(2, 10))
    ids = [f"v{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
    edges = [(ids[i], ids[j], draw(_WEIGHTS.filter(bool))) for i, j in chosen]
    c = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    g = WeightedGraph(ids, [1.0] * n, c, edges)
    boundary = draw(st.lists(st.sampled_from(ids), unique=True, max_size=n - 1))
    extra = {v: draw(_WEIGHTS) for v in draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))}
    # Couplings may join a vertex to itself, or reach into the boundary.
    vertex = st.sampled_from(ids)
    ends = st.tuples(vertex, vertex) | vertex.map(lambda v: (v, v))
    if boundary:
        ends |= st.tuples(st.sampled_from(boundary), vertex)
    couplings = [(u, v, draw(_WEIGHTS)) for u, v in draw(st.lists(ends, max_size=3))]
    q = assemble(g, boundary=boundary, extra_killing=extra, couplings=couplings)
    levels = draw(st.integers(1, 5))
    if draw(st.booleans()):
        ex = ball_exhaustion(g, draw(st.sampled_from(ids)), n_levels=levels,
                             plateau=draw(st.integers(1, 3)), saturate=draw(st.booleans()))
    else:
        value = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        cutoffs = [np.array(draw(st.lists(value, min_size=n, max_size=n))) for _ in range(levels)]
        ex = Exhaustion(g, [np.flatnonzero(chi == 1.0) for chi in cutoffs], cutoffs)
    f = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-4.0, 4.0),
                               min_size=n, max_size=n))) * q.active
    # Scales near 2^480 and up take a shift, and some level sums pass the float range.
    f = np.ldexp(f, draw(st.just(0) | st.integers(-600, 600) | st.integers(470, 520)))
    clamp_levels = draw(st.none() | st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3).map(sorted))
    return q, ex, f, clamp_levels


class TestRowTable:
    """One row table serves both parts, in blocks of any size, bit for bit."""

    @settings(max_examples=120)
    @given(walk_cases(), st.sampled_from([1, 2, 5, 2**17]))
    def test_parts_match_the_per_level_oracle(self, case, block):
        # The walk's level values are those of the oracle on 2^-k f, scaled back, and a
        # level sum past the float range raises, as the oracle's fsum does.  They are the
        # oracle's on f where nothing is subnormal, except that the oracle also raises
        # where a product such as c (f(x) f(x)) overflows though its level sum does not.
        q, ex, f, clamp_levels = case
        mex = ex.masked(q.active)
        k = _Walk(q, mex, f).shift
        old = _outcome(_per_level_oracle, q, mex, f, clamp_levels)
        with mock.patch.object(reflection, "_BLOCK_ROWS", block):
            got = _outcome(_new_traces, q, ex, f, clamp_levels)
            alone = _outcome(lambda: (main_part(q, mex, f).trace,
                                      killing_part(q, mex, f, clamp_levels=clamp_levels).trace))
        assert alone == got
        if got is OverflowError:
            assert k > 0 and old is OverflowError
        else:
            assert got == _outcome(_scaled_oracle, q, mex, f, clamp_levels, k)
        if k == 0 or _far_from_subnormal(mex, f, clamp_levels, k):
            assert got == old or (k > 0 and old is OverflowError)

    def test_blocks_split_the_rows(self, monkeypatch):
        ex = build_exhaustion(SquareLatticeGenerator(c=0.1), "0,0", n_levels=4, plateau=2)
        q = assemble(ex.graph, boundary=["1,0"], couplings=[("0,0", "2,1", 0.5)])
        f = np.linspace(-1.0, 1.0, q.n) * q.active
        mex = ex.masked(q.active)
        walk = _Walk(q, mex, f)
        (whole,), (crossing,) = walk.blocks, walk.crossing
        monkeypatch.setattr(reflection, "_BLOCK_ROWS", 8)
        walk = _Walk(q, mex, f)
        blocks = walk.blocks
        assert [len(b.slot) for b in blocks[:-1]] == [8] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1].slot) <= 8
        # Consecutive slices of the pair rows followed by the vertex rows, and so are the
        # crossing tables: the rows of the boundary vertex's edges and of the coupling.
        for parts, table in ((blocks, whole), (walk.crossing, crossing)):
            for k, field in enumerate(table):
                assert np.array_equal(np.concatenate([b[k] for b in parts], axis=-1), field)
        assert len(whole.w) % 8 and len(whole.c)  # a block holds pairs and vertices
        # The crossing table: every pair row whose endpoints differ in activity, then
        # every vertex row with its slot.
        active, every = q.active[crossing.ends], q.active[whole.ends]
        assert (active[0] != active[1]).all()
        assert len(crossing.w) == np.count_nonzero(every[0] != every[1]) > 4
        assert np.array_equal(crossing.verts, whole.verts)
        assert np.array_equal(crossing.slot[len(crossing.w):], whole.slot[len(whole.w):])


@st.composite
def ball_cases(draw):
    """(form, ball exhaustion, f): build_exhaustion or ball_exhaustion, saturated or not,
    masked or not."""
    plateau = draw(st.integers(1, 3))
    n_levels = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["line", "lattice", "graph"]))
    if kind == "graph":
        g = make_path(draw(st.integers(2, 12)), draw(st.sampled_from([0.5, 1.0, 2.0])))
        ex = ball_exhaustion(g, draw(st.sampled_from(g.ids)), n_levels, plateau,
                             saturate=draw(st.booleans()))
    else:
        gen = IntegerLineGenerator(b=0.5) if kind == "line" else SquareLatticeGenerator(c=0.1)
        ex = build_exhaustion(gen, "0" if kind == "line" else "0,0", n_levels, plateau)
    n = ex.graph.n
    if draw(st.booleans()):
        ex = ex.masked(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    boundary = draw(st.lists(st.sampled_from(ex.graph.ids), unique=True, max_size=2))
    q = assemble(ex.graph, boundary=boundary)
    f = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return q, ex, f


class TestLevelRepresentation:
    """A ball exhaustion and its explicit copy are walked alike."""

    @settings(max_examples=60)
    @given(ball_cases())
    def test_explicit_copy_walks_alike(self, case):
        q, ex, f = case
        copy = Exhaustion(ex.graph, ex.sets, ex.cutoffs, ex.nest_assumed)
        for a, b in zip(ex._levels.enter_freeze(), copy._levels.enter_freeze()):
            assert np.array_equal(a, b)
        level = np.arange(3 * q.n) % ex.levels
        vertex = np.stack([np.arange(3 * q.n) % q.n, np.arange(3 * q.n)[::-1] % q.n])
        assert np.array_equal(ex._levels.values(level, vertex), copy._levels.values(level, vertex))
        got, want = (reflected_form(q, e, f) for e in (copy, ex))
        assert _hex(got.main_trace) == _hex(want.main_trace)
        assert [_hex(r) for r in got.killing_trace] == [_hex(r) for r in want.killing_trace]
        assert got.converged == want.converged


class TestMalformedExhaustion:
    def test_unequal_lengths_and_no_levels_rejected(self):
        g = make_path(4, 1.0)
        with pytest.raises(ValueError, match="one cutoff per set.*1 sets and 2 cutoffs"):
            Exhaustion(g, [np.arange(4)], [np.full(4, 0.5), np.ones(4)])
        with pytest.raises(ValueError, match="at least one level"):
            Exhaustion(g, [], [])
        ex = Exhaustion(g, [np.arange(4)] * 2, [np.full(4, 0.5), np.ones(4)])
        assert ex.levels == len(reflected_form(assemble(g), ex, np.arange(4.0)).main_trace) == 2

    @pytest.mark.parametrize("sets,cutoffs,match", [
        ([np.arange(3)], [np.ones(3)], r"cutoff 0 has shape \(3,\), expected \(4,\)"),
        ([np.arange(4)], [np.ones((4, 1))], r"cutoff 0 has shape \(4, 1\), expected \(4,\)"),
        ([np.array([1, 7])], [np.ones(4)], r"set 0 is not a 1-D array of vertex indices in \[0, 4"),
        ([np.array([-1])], [np.ones(4)], r"set 0 is not a 1-D array of vertex indices"),
        ([np.array([[1, 2]])], [np.ones(4)], r"set 0 is not a 1-D array of vertex indices"),
        ([np.array([1.5])], [np.ones(4)], r"set 0 is not a 1-D array of vertex indices"),
    ])
    def test_bad_shapes_and_indices_rejected(self, sets, cutoffs, match):
        with pytest.raises(ValueError, match=match):
            Exhaustion(make_path(4, 1.0), sets, cutoffs)

    def test_sets_and_cutoffs_given_as_lists(self):
        g = make_path(4, 1.0)
        q, f = assemble(g, boundary=["v0"]), np.array([0.0, 1.0, -1.0, 0.5])
        ex = Exhaustion(g, [[1, 2], []], [[0.0, 1.0, 1.0, 0.5], [0.0, 1.0, 1.0, 1.0]])
        arrays = Exhaustion(g, [np.array([1, 2]), np.array([], dtype=int)],
                            [np.array([0.0, 1.0, 1.0, 0.5]), np.array([0.0, 1.0, 1.0, 1.0])])
        for F in ex.sets + ex.masked(q.active).sets:
            assert F.dtype == int and F.ndim == 1
        assert ex.cutoffs[0].dtype == float
        assert [F.tolist() for F in ex.masked(q.active).sets] == [[1, 2], []]
        got, want = reflected_form(q, ex, f), reflected_form(q, arrays, f)
        assert _hex(got.main_trace) == _hex(want.main_trace)
        assert [_hex(r) for r in got.killing_trace] == [_hex(r) for r in want.killing_trace]
