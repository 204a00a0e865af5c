"""Truncated forms, main/killing decomposition, oracles, recurrence."""

import json
import math

import numpy as np
import pytest

from graphforms import (
    Exhaustion,
    IntegerLineGenerator,
    SquareLatticeGenerator,
    WeightedGraph,
    apply_contraction,
    assemble,
    ball_exhaustion,
    build_exhaustion,
    contraction_catalog,
    graph_oracle_killing,
    graph_oracle_main,
    killing_part,
    main_part,
    make_path,
    recurrence_check,
    reflected_form,
    single_vertex,
    truncated_form,
    truncated_oracle,
)
from graphforms.corpus import (
    form_corpus,
    random_cutoff,
    random_function,
    random_masked_function,
)
from graphforms.reflection import form_oracle_killing, form_oracle_main


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


class TestRecurrence:
    def test_main_part_always_recurrent(self):
        for q, ex in form_corpus(43, 3, n_max=15):
            rep = recurrence_check(q, ex)
            assert rep["recurrent_main"]

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


class TestLevelSupports:
    """Level sums over each cutoff's support equal the whole-graph sums bit for bit."""

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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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

    def test_killing_part_range_checks_cutoffs(self):
        q = assemble(make_path(3, 1.0))
        ex = Exhaustion(q.graph, [np.array([1])], [np.array([0.0, 1.5, 0.0])])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            killing_part(q, ex, np.ones(3))
