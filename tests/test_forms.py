"""Energy evaluation, bilinear values, contractions, parallelogram law."""

import math
from functools import cached_property

import numpy as np
import pytest

from graphforms import (
    OUT_OF_DOMAIN,
    GraphForm,
    ResolventHandle,
    WeightedGraph,
    absolute,
    apply_contraction,
    assemble,
    check_parallelogram,
    clamp,
    compose,
    contraction_catalog,
    identity,
    make_path,
    positive_part,
    single_vertex,
)
from graphforms.corpus import (
    form_corpus,
    random_boundary,
    random_connected_graph,
    random_masked_function,
)


class TestAssembleAndEvaluate:
    def test_path_energy(self):
        q = assemble(make_path(2, 1.0))
        assert q.evaluate([1.0, 0.0]) == 1.0

    def test_constants_have_zero_energy(self):
        q = assemble(make_path(6, 0.3))
        assert q.evaluate(np.full(6, 2.5)) == 0.0

    def test_single_vertex_killing(self):
        q = assemble(single_vertex(2.0, 3.0))
        assert q.evaluate([1.0]) == 3.0

    def test_full_boundary_rejected(self):
        g = make_path(3, 1.0)
        with pytest.raises(ValueError, match="empty domain"):
            assemble(g, boundary=["v0", "v1", "v2"])

    def test_interior_spike_on_masked_path(self):
        # P3 with mesh 0.5 has unit edge weights; ordered pairs double them.
        g = make_path(3, 0.5)
        q = assemble(g, boundary=["v0", "v2"])
        for t in (1.0, -0.5, 2.0):
            assert q.evaluate([0.0, t, 0.0]) == pytest.approx(4 * t * t, rel=1e-14)

    def test_boundary_violation_is_sentinel(self):
        q = assemble(make_path(3, 0.5), boundary=["v0", "v2"])
        assert q.evaluate([1.0, 0.0, 0.0]) == OUT_OF_DOMAIN
        assert math.isinf(OUT_OF_DOMAIN)

    def test_even_in_sign(self):
        rng = np.random.default_rng(0)
        q, _ = form_corpus(11, 1, n_max=15)[0]
        for _ in range(5):
            f = random_masked_function(rng, q)
            assert q.evaluate(-f) == q.evaluate(f)

    def test_energy_of_abs_matches(self):
        rng = np.random.default_rng(1)
        q = assemble(single_vertex(2.0, 3.0))
        f = rng.uniform(-2, 2, 1)
        assert q.evaluate(np.abs(f)) == pytest.approx(q.evaluate(f), rel=1e-14)

    def test_nan_rejected(self):
        q = assemble(make_path(2, 1.0))
        with pytest.raises(ValueError, match="finite"):
            q.evaluate([np.nan, 0.0])


class TestReadOnlyData:
    """The mask and killing arrays are read-only copies: the generator is cached
    from them, so a later write must not reach the form."""

    def test_in_place_writes_raise(self):
        q = assemble(make_path(5, 1.0), extra_killing={"v1": 0.5})
        ResolventHandle(q)
        for x in (q.active, q.killing_extra, q.c_total):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0

    def test_caller_arrays_stay_apart(self):
        mask, killing = np.ones(5, dtype=bool), np.zeros(5)
        q = GraphForm(make_path(5, 1.0), mask, killing)
        assert ResolventHandle(q).dim == 5
        mask[0] = False
        killing[1] = 3.0
        assert q.active.all() and not q.killing_extra.any() and not q.c_total.any()
        assert ResolventHandle(q).dim == 5
        assert q.evaluate(np.eye(1, 5, 0)[0]) == 1.0
        assert q.evaluate(np.eye(1, 5, 1)[0]) == 2.0


class TestBilinear:
    def test_zero_function(self):
        q = assemble(make_path(4, 1.0))
        f = np.array([1.0, 2.0, 0.5, 0.0])
        assert q.bilinear(f, np.zeros(4)) == 0.0

    def test_opposite_indicators(self):
        # edge with ordered-pair weight 1: q(e0, e1) = -1
        q = assemble(make_path(2, 1.0))
        assert q.bilinear([1.0, 0.0], [0.0, 1.0]) == -1.0

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(2)
        q, _ = form_corpus(12, 1, n_max=12)[0]
        for _ in range(10):
            f = random_masked_function(rng, q)
            g = random_masked_function(rng, q)
            assert q.bilinear(f, g) == pytest.approx(q.bilinear(g, f), abs=1e-12)
            assert q.bilinear(f, f) == q.evaluate(f)

    def test_polarization_recovers_bilinear(self):
        rng = np.random.default_rng(3)
        q, _ = form_corpus(13, 1, n_max=12)[0]
        for _ in range(10):
            f = random_masked_function(rng, q)
            g = random_masked_function(rng, q)
            pol = 0.25 * (q.evaluate(f + g) - q.evaluate(f - g))
            assert pol == pytest.approx(q.bilinear(f, g), rel=1e-10, abs=1e-10)

    def test_out_of_domain_propagates(self):
        q = assemble(make_path(3, 0.5), boundary=["v0"])
        assert q.bilinear([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == OUT_OF_DOMAIN


def _full_terms(q, f, g):
    """Every ordered-pair summand of Q(f, g), zeros included."""
    gph = q.graph
    terms = [
        2.0 * b * (f[u] - f[v]) * (g[u] - g[v])
        for u, v, b in zip(gph.edge_u, gph.edge_v, gph.edge_b)
    ]
    terms.extend(c * (f[x] * g[x]) for x, c in enumerate(q.c_total))
    terms.extend(cp.w * (f[cp.u] - f[cp.v]) * (g[cp.u] - g[cp.v]) for cp in q.couplings)
    return terms


class TestExactSums:
    def test_sums_equal_fsum_over_all_terms(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            graph = random_connected_graph(rng, n_max=30)
            ids = graph.ids
            extra = {ids[i]: float(rng.uniform(0.1, 1.0)) for i in rng.integers(0, graph.n, 3)}
            pairs = rng.integers(0, graph.n, size=(3, 2))
            couplings = [(ids[u], ids[v], float(rng.uniform(0.0, 2.0))) for u, v in pairs]
            q = assemble(
                graph,
                boundary=random_boundary(rng, graph),
                extra_killing=extra,
                couplings=couplings,
            )
            assert q.couplings and q.killing_extra.any()
            for _ in range(4):
                f = random_masked_function(rng, q)
                g = random_masked_function(rng, q)
                f[rng.random(q.n) < 0.5] = 0.0  # most summands become exact zeros
                assert q.evaluate(f) == math.fsum(_full_terms(q, f, f))
                assert q.bilinear(f, g) == math.fsum(_full_terms(q, f, g))


def _counting_pairs(monkeypatch) -> list:
    """Record each form whose pair table is built, from here on."""
    build = GraphForm.pairs.func
    builds = []

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(GraphForm, "pairs")
    monkeypatch.setattr(GraphForm, "pairs", prop)
    return builds


def _far_apart(sign: float) -> tuple:
    """A form and two functions whose nonzero terms of Q(f, g) are p (edge a-b), then
    sign p (killing at c), then -sign p (coupling b-d), with p = 1e154 * 1e154."""
    g = WeightedGraph(list("abcd"), [1.0] * 4, [0.0, 0.0, 1.0, 0.0], [("a", "b", 0.5)])
    q = assemble(g, couplings=[("b", "d", 1.0)])
    f = np.array([1e154, 0.0, 1e154, 1e154])
    return q, f, np.array([1e154, 0.0, sign * 1e154, -sign * 1e154])


class TestPairTable:
    """One read-only table of edge and coupling terms per form, read by every energy."""

    def _coupled(self, b=0.5, w=(0.5, 0.0, 1.5)):
        ids = [f"v{i}" for i in range(5)]
        g = WeightedGraph(ids, [1.0] * 5, [0.0] * 5, [(u, v, b) for u, v in zip(ids, ids[1:])])
        ends = [("v1", "v1"), ("v2", "v4"), ("v3", "v4")]
        return assemble(g, boundary=["v0"], extra_killing={"v2": 0.25},
                        couplings=[(u, v, x) for (u, v), x in zip(ends, w)])

    def test_edges_then_couplings_read_only(self):
        q = self._coupled(1e308)
        ends, w = q.pairs
        gph, edges = q.graph, len(q.graph.edge_b)
        assert ends.shape == (2, edges + 3) and ends.dtype.kind == "i"
        assert ends[:, :edges].tolist() == [gph.edge_u.tolist(), gph.edge_v.tolist()]
        assert ends[:, edges:].T.tolist() == [[cp.u, cp.v] for cp in q.couplings]
        with np.errstate(over="ignore"):
            assert w[:edges].tobytes() == (2.0 * gph.edge_b).tobytes()
        assert w[:edges].tolist() == [math.inf] * edges
        assert w[edges:].tolist() == [0.5, 0.0, 1.5]
        for a in (ends, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[..., 0] = 0

    def test_built_once_per_form(self, monkeypatch):
        from graphforms import FormPair, ball_exhaustion, check_silverstein, reflected_form

        builds = _counting_pairs(monkeypatch)
        lower, upper = self._coupled(), self._coupled()
        assert builds == []
        f = np.sin(np.arange(5.0)) * lower.active
        for _ in range(2):
            lower.evaluate(f), lower.bilinear(f, f + 1.0 * lower.active)
            reflected_form(lower, ball_exhaustion(lower.graph, "v2").masked(lower.active), f)
            check_silverstein(FormPair(lower=lower, upper=upper))
        assert builds == [lower, upper]

    def test_every_reader_reads_the_table(self):
        """A form given the table of its weights times 4 computes what the form with
        those weights does: energies, stiffness and the level walk all read it."""
        from graphforms import ball_exhaustion, reflected_form
        from graphforms.reflection import _Walk
        from graphforms.resolvent import assemble_stiffness

        q, q4 = self._coupled(), self._coupled(2.0, (2.0, 0.0, 6.0))
        ends, w = q.pairs
        q.__dict__["pairs"] = (ends, 4.0 * w)
        f = np.cos(np.arange(5.0)) * q.active
        assert q.evaluate(f) == q4.evaluate(f) != q4.evaluate(f) / 4.0
        K, K4 = assemble_stiffness(q), assemble_stiffness(q4)
        for name in ("data", "indices", "indptr"):
            assert getattr(K, name).tobytes() == getattr(K4, name).tobytes()
        ex = ball_exhaustion(q.graph, "v2", n_levels=2).masked(q.active)
        walk, walk4 = _Walk(q, ex, f), _Walk(q4, ex, f)
        assert walk.blocks[0].w.tobytes() == walk4.blocks[0].w.tobytes()
        assert reflected_form(q, ex, f).to_dict() == reflected_form(q4, ex, f).to_dict()

    def test_terms_keep_edges_vertices_couplings_order(self):
        """fsum's overflow depends on the order of its terms: p, p, -p overflows a
        partial sum, while p, -p, p does not."""
        q, f, g = _far_apart(-1.0)  # p, -p, p
        assert q.bilinear(f, g) == 1e154 * 1e154
        q, f, g = _far_apart(1.0)  # p, p, -p
        with pytest.raises(OverflowError):
            q.bilinear(f, g)


class TestContractions:
    def test_clamp_values(self):
        out = apply_contraction(clamp(1.0), np.array([2.0, -3.0, 0.5]))
        assert list(out) == [1.0, -1.0, 0.5]

    def test_identity(self):
        f = np.array([0.3, -1.2])
        assert np.array_equal(apply_contraction(identity, f), f)

    def test_abs_lowers_energy_across_sign_change(self):
        q = assemble(make_path(2, 1.0))
        f = np.array([-2.0, 2.0])
        assert q.evaluate(f) == 16.0  # (2b=1) * (f0-f1)^2 = 16
        assert q.evaluate(apply_contraction(absolute, f)) == 0.0

    def test_catalog_is_normal(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-5, 5, size=(50, 2))
        for C in contraction_catalog():
            assert float(C(np.zeros(1))[0]) == 0.0
            for x, y in xs:
                cx, cy = float(C(np.array([x]))[0]), float(C(np.array([y]))[0])
                assert abs(cx - cy) <= abs(x - y) + 1e-12

    def test_markov_property(self):
        rng = np.random.default_rng(5)
        for q, _ in form_corpus(14, 3, n_max=20):
            f = random_masked_function(rng, q)
            qf = q.evaluate(f)
            for C in contraction_catalog():
                assert q.evaluate(apply_contraction(C, f)) <= qf + 1e-12

    def test_composition(self):
        C = compose(positive_part, clamp(1.0))
        out = C(np.array([2.0, -3.0, 0.5]))
        assert list(out) == [1.0, 0.0, 0.5]


class TestAlgebraicInequalities:
    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        q, _ = form_corpus(15, 1, n_max=15)[0]
        f = random_masked_function(rng, q)
        qf = q.evaluate(f)
        for lam in (-2.0, -1.0, 0.0, 0.5, 3.0):
            assert q.evaluate(lam * f) == pytest.approx(lam * lam * qf, rel=1e-12, abs=1e-12)

    def test_lattice_stability(self):
        rng = np.random.default_rng(7)
        for q, _ in form_corpus(16, 3, n_max=20):
            f = random_masked_function(rng, q)
            g = random_masked_function(rng, q)
            bound = math.sqrt(q.evaluate(f)) + math.sqrt(q.evaluate(g))
            assert math.sqrt(q.evaluate(np.minimum(f, g))) <= bound + 1e-10
            assert math.sqrt(q.evaluate(np.maximum(f, g))) <= bound + 1e-10

    def test_bounded_product(self):
        rng = np.random.default_rng(8)
        for q, _ in form_corpus(17, 3, n_max=20):
            f = random_masked_function(rng, q, bound=1.5)
            g = random_masked_function(rng, q, bound=1.5)
            lhs = math.sqrt(q.evaluate(f * g))
            rhs = np.abs(f).max() * math.sqrt(q.evaluate(g)) + np.abs(g).max() * math.sqrt(
                q.evaluate(f)
            )
            assert lhs <= rhs + 1e-10


class TestParallelogram:
    def _pairs(self, q, count=100, seed=9):
        rng = np.random.default_rng(seed)
        return [
            (random_masked_function(rng, q), random_masked_function(rng, q))
            for _ in range(count)
        ]

    def test_exact_on_graph_forms(self):
        q, _ = form_corpus(18, 1, n_max=20)[0]
        rep = check_parallelogram(q, self._pairs(q), tol=1e-10)
        assert rep.passed

    def test_equal_arguments(self):
        q, _ = form_corpus(19, 1, n_max=10)[0]
        rng = np.random.default_rng(10)
        f = random_masked_function(rng, q)
        rep = check_parallelogram(q, [(f, f)], tol=1e-12)
        assert rep.passed  # defect reduces to |q(2f) - 4q(f)|

    def test_corrupted_evaluator_fails(self):
        # negative control: an l1 term breaks the parallelogram law
        q, _ = form_corpus(20, 1, n_max=10)[0]
        corrupted = lambda f: q.evaluate(f) + float(np.abs(f).sum())
        rep = check_parallelogram(corrupted, self._pairs(q, count=20), tol=1e-10)
        assert not rep.passed
