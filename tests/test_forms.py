"""Energy evaluation, bilinear values, contractions, parallelogram law."""

import math
import sys
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforms import (
    OUT_OF_DOMAIN,
    Exhaustion,
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
    main_part,
    make_path,
    positive_part,
    reflected_form,
    single_vertex,
    truncated_form,
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
        weights, weights4 = ([(b.w.tobytes(), c.w.tobytes()) for b, c in w._tables()]
                             for w in (walk, walk4))
        assert weights == weights4
        assert reflected_form(q, ex, f).to_dict() == reflected_form(q4, ex, f).to_dict()

    def test_either_term_order_gives_the_exact_sum(self):
        """fsum's overflow depends on the order of its terms: p, p, -p overflows a
        partial sum, while p, -p, p does not.  Both give the exact sum p, since an
        overflowing fsum is summed again at a power-of-two shift."""
        for sign in (-1.0, 1.0):
            q, f, g = _far_apart(sign)
            assert q.bilinear(f, g) == 1e154 * 1e154


def _exact_terms(q, f, g) -> list:
    """Every summand of Q(f, g) as an exact rational, from the graph data."""
    gph, F, G = q.graph, [Fraction(x) for x in f], [Fraction(x) for x in g]
    terms = [2 * Fraction(b) * (F[u] - F[v]) * (G[u] - G[v])
             for u, v, b in zip(gph.edge_u, gph.edge_v, gph.edge_b)]
    terms.extend(Fraction(c) * F[x] * G[x] for x, c in enumerate(q.c_total))
    terms.extend(Fraction(cp.w) * (F[cp.u] - F[cp.v]) * (G[cp.u] - G[cp.v]) for cp in q.couplings)
    return terms


def _weights_times(q, scale):
    g = q.graph
    edges = [(g.ids[u], g.ids[v], b * scale) for u, v, b in zip(g.edge_u, g.edge_v, g.edge_b)]
    return GraphForm(WeightedGraph(g.ids, g.m, g.c * scale, edges), q.active,
                     q.killing_extra * scale)


# Corpus forms, and the same forms with weights times 2^-12: with those, a product such
# as f(x)^2 may pass the float range where the energy does not.
_RULE_CORPUS = [r for q, _ in form_corpus(42, 10, n_min=2, n_max=12)
                for r in (q, _weights_times(q, 2.0**-12))]


@st.composite
def scaled_cases(draw):
    """A corpus form, two functions in its domain, each times its own power of two from
    2^-300 to 2^540, and a cutoff in its domain.  Nonzero values are at least 2^-20 before
    scaling, so that no term underflows: each term is then its exact value rounded."""
    q = draw(st.sampled_from(_RULE_CORPUS))

    def values(elements):
        return np.array(draw(st.lists(elements, min_size=q.n, max_size=q.n))) * q.active

    def function():
        f = values(st.sampled_from([0.0, 0.5, 1.0, -2.5]) | st.floats(2.0**-20, 4.0)
                   | st.floats(-4.0, -(2.0**-20)))
        return np.ldexp(f, draw(st.integers(-300, 540) | st.integers(505, 515)))

    return q, function(), function(), values(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))


class TestOneOverflowRule:
    """Energies, bilinear values and truncated forms: NaN for a non-finite weight, else
    the exact term sum correctly rounded, and OverflowError only past the float range."""

    @staticmethod
    def _check(value, terms):
        exact, size = sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))
        tol = size * Fraction(1, 10**12)  # |exact| itself for Q(f), whose terms are >= 0
        if abs(exact) - tol > 2**1024:
            assert value is OverflowError
        elif abs(exact) + tol < sys.float_info.max or value is not OverflowError:
            assert value is not OverflowError and abs(Fraction(value) - exact) <= tol

    @settings(max_examples=150)
    @given(scaled_cases())
    def test_exact_sums_and_truncated_forms(self, case):
        q, f, g, phi = case

        def outcome(call):
            try:
                return call()
            except OverflowError:
                return OverflowError

        self._check(outcome(lambda: q.evaluate(f)), _exact_terms(q, f, f))
        self._check(outcome(lambda: q.bilinear(f, g)), _exact_terms(q, f, g))
        one_level = Exhaustion(q.graph, [np.flatnonzero(phi == 1.0)], [phi])
        truncated = outcome(lambda: truncated_form(q, phi, f).value)
        walked = outcome(lambda: main_part(q, one_level, f).value)
        assert truncated is walked is OverflowError or truncated.hex() == walked.hex()

    def test_motivating_inputs(self):
        # A product f(x)^2 past the float range, where the energy 2^1022 is not.
        q = assemble(single_vertex(1.0, 0.25))
        assert q.evaluate([2.0**512]) == 2.0**1022
        assert reflected_form(q, Exhaustion.full(q.graph), [2.0**512]).killing_value == 2.0**1022
        # An infinite weight: the energy is NaN, as its main and killing parts are.
        g = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3,
                          [("a", "b", math.inf), ("b", "c", 1.0)])
        q, f = assemble(g), np.array([1.0, 0.0, 0.0])
        res = reflected_form(q, Exhaustion.full(g), f)
        assert all(map(math.isnan, [q.evaluate(f), q.bilinear(f, f), res.main_value,
                                    res.killing_value]))
        # The third, terms whose fsum overflows in one order, is TestPairTable's.


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
