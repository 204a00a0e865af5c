"""Resolvent applications, approximating forms, coefficient tables."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforms import (
    Exhaustion,
    GraphFormatError,
    ResolventHandle,
    SquareLatticeGenerator,
    assemble,
    build_generator,
    classify_recurrence,
    default_alpha_ladder,
    generator_ball,
    make_path,
    single_vertex,
    truncate,
    truncated_coefficients,
    truncated_form,
    truncated_form_via_resolvent,
)
from graphforms import resolvent
from graphforms.corpus import (
    form_corpus,
    random_boundary,
    random_connected_graph,
    random_cutoff,
    zero_killing,
)
from graphforms.forms import Coupling, GraphForm
from graphforms.graph import WeightedGraph
from graphforms.resolvent import _series_terms, assemble_stiffness


def single_vertex_handle(**kw):
    return ResolventHandle(assemble(single_vertex(2.0, 3.0)), **kw)


class TestResolventApply:
    def test_single_vertex_scalar(self):
        # L = c/m = 1.5, so G_1 f = f / 2.5
        h = single_vertex_handle()
        assert h.apply(1.0, np.ones(1))[0] == pytest.approx(0.4, abs=1e-14)

    def test_zero_input(self):
        h = single_vertex_handle()
        assert np.all(h.apply(3.0, np.zeros(1)) == 0.0)

    def test_against_dense_inverse(self):
        # path with unit ordered-pair weight: K = [[1,-1],[-1,1]], m = 1
        q = assemble(make_path(2, 1.0))
        h = ResolventHandle(q)
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for alpha in (0.5, 1.0, 4.0):
            expect = np.linalg.solve(K + alpha * np.eye(2), np.array([1.0, -2.0]))
            got = h.apply(alpha, np.array([1.0, -2.0]))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_lu_matches_dense_solve_on_corpus(self):
        # alpha returns to 0.7 after 13.0, so a rebuilt factor is checked too
        rng = np.random.default_rng(0)
        for q, _ in form_corpus(21, 4, n_max=40):
            h = ResolventHandle(q)
            K = h.generator.stiffness.toarray()
            m = h.generator.mass
            f = rng.uniform(-1, 1, h.dim)
            for alpha in (0.7, 13.0, 0.7):
                A = K + alpha * np.diag(m)
                np.testing.assert_allclose(
                    h.apply(alpha, f), np.linalg.solve(A, m * f), atol=1e-9, rtol=1e-9
                )
                np.testing.assert_allclose(
                    h.resolvent_matrix(alpha),
                    np.linalg.solve(A, np.diag(m)),
                    atol=1e-9,
                    rtol=1e-9,
                )

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            single_vertex_handle().apply(0.0, np.ones(1))

    def test_small_alpha_on_lattice_with_one_dirichlet_vertex(self):
        # ill-conditioned K + alpha M: n = 1861, one rim vertex masked, alpha = 1e-3
        gen = SquareLatticeGenerator()
        q = assemble(truncate(gen, generator_ball(gen, "0,0", 30)), boundary=["30,0"])
        h = ResolventHandle(q)
        alpha = 1e-3
        u = h.apply(alpha, np.ones(h.dim))
        assert h.dim == 1860
        assert float((alpha * u).min()) >= 0.0
        assert float((alpha * u).max()) <= 1.0 + 1e-10
        K, m = h.generator.stiffness, h.generator.mass
        residual = np.linalg.norm(m - (K @ u + alpha * m * u)) / np.linalg.norm(m)
        assert residual <= 1e-10


class TestCachedPattern:
    """K + alpha M is refreshed on a pattern built once per form."""

    @staticmethod
    def forms():
        g = make_path(6, 0.5)
        # zero-weight coupling: its explicit zeros must not reach the factor
        yield assemble(g, boundary=["v5"], couplings=[("v0", "v3", 0.0), ("v1", "v4", 2.0)])
        # K_aa = -1 at vertex a, so K_aa + alpha m_a cancels at alpha = 1
        edges = [("a", "b", -0.5), ("b", "c", 2.0)]
        bad = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, edges)
        yield GraphForm(bad, np.ones(3, dtype=bool))
        yield assemble(single_vertex(1.0, 0.0))  # K = [[0]]: a stored zero diagonal
        for q, _ in form_corpus(26, 12, n_max=30):
            yield q

    def test_factored_matrix_equals_sparse_sum(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)  # every handle factors by SuperLU
        handed = []
        splu = scipy.sparse.linalg.splu

        def spy(A, **kw):
            handed.append(A)
            return splu(A, **kw)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        for q in self.forms():
            h = ResolventHandle(q)
            for alpha in (1e-3, 1.0, 1e3):
                handed.clear()
                h._factor(alpha)
                (A,) = handed
                expect = (h.generator.stiffness + sp.diags(alpha * h.generator.mass)).tocsc()
                for name in ("indptr", "indices", "data"):
                    got, want = getattr(A, name), getattr(expect, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_revisited_alpha_equals_fresh_handle(self):
        rng = np.random.default_rng(27)
        for q in self.forms():
            h = ResolventHandle(q)
            f = rng.uniform(-1, 1, h.dim)
            for alpha in (1.0, 1e3, 1.0):
                fresh = ResolventHandle(q)
                assert np.array_equal(h.apply(alpha, f), fresh.apply(alpha, f))
                assert np.array_equal(h.resolvent_matrix(alpha), fresh.resolvent_matrix(alpha))


def factored_dims(monkeypatch) -> list:
    """Wrap splu so that each factorization appends its matrix dimension to the list."""
    dims = []
    splu = scipy.sparse.linalg.splu

    def spy(A, **kw):
        dims.append(A.shape[0])
        return splu(A, **kw)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return dims


class TestFactorChoice:
    """Up to SMALL_DIM active vertices a handle factors K + alpha M by dense Cholesky,
    above it and where that fails by SuperLU."""

    @staticmethod
    def solves(h, alpha, f, rhs):
        return h.apply(alpha, f), h.resolvent_matrix(alpha), h.solve_columns(alpha, rhs)

    def test_dense_and_superlu_match_exact_solves(self, monkeypatch):
        rng = np.random.default_rng(45)
        dims = factored_dims(monkeypatch)
        for q, _ in form_corpus(45, 12, n_max=6):
            h = ResolventHandle(q)
            f, rhs = rng.uniform(0.0, 1.0, h.dim), rng.uniform(0.0, 1.0, (h.dim, 3))
            for alpha in (1e-3, 1.0, 1e3):
                dense = self.solves(h, alpha, f, rhs)
                assert not dims
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(resolvent, "SMALL_DIM", 0)
                    superlu = self.solves(ResolventHandle(q), alpha, f, rhs)
                assert dims == [h.dim]  # one factor serves all three calls
                dims.clear()
                mass = h.generator.mass
                exact = (exact_solve(h, alpha, mass * f), exact_solve(h, alpha, np.diag(mass)),
                         exact_solve(h, alpha, rhs))
                for got_dense, got_superlu, want in zip(dense, superlu, exact):
                    want = np.array(want, dtype=float)
                    for got in (got_dense, got_superlu):
                        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_size_picks_the_factor(self, monkeypatch):
        dims = factored_dims(monkeypatch)
        alphas = (1e-3, 1.0, 1.0, 1e3)
        for n in (resolvent.SMALL_DIM, resolvent.SMALL_DIM + 1):
            h = ResolventHandle(assemble(make_path(n, 1.0), extra_killing={"v0": 0.5}))
            for alpha in alphas:
                u = h.apply(alpha, np.ones(n))
                assert float((alpha * u).max()) <= 1.0 + 1e-10
            # above SMALL_DIM, the alphas where rho <= 1/2 take the series
            assert dims == ([] if n == resolvent.SMALL_DIM
                            else [n] * len(factored_alphas(h, alphas)))

    def test_non_finite_small_handle_is_a_value_error(self, monkeypatch):
        dims = factored_dims(monkeypatch)
        # an infinite weight, and K_ii + alpha m_i = 1e308 + 1e308 on finite data
        huge = WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 0.0], [("a", "b", 0.5e308)])
        for q, alpha in ((infinite_weight_path("edge"), 1.0),
                         (infinite_weight_path("killing"), 1.0),
                         (assemble(huge), 1e308)):
            h = ResolventHandle(q)
            assert h.dim <= resolvent.SMALL_DIM
            with (pytest.raises(ValueError, match="K \\+ alpha M is not finite; check the weights"),
                  np.errstate(over="ignore")):
                h.apply(alpha, np.ones(h.dim))
        assert not dims

    def test_cancelled_diagonal_falls_back_to_superlu(self, monkeypatch):
        q = list(TestCachedPattern.forms())[1]  # K_aa + alpha m_a = 0 at alpha = 1
        h = ResolventHandle(q)
        dims = factored_dims(monkeypatch)
        f = np.array([1.0, -2.0, 0.5])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolvent, "SMALL_DIM", 0)
            want = ResolventHandle(q).apply(1.0, f)
        dims.clear()
        assert np.array_equal(h.apply(1.0, f), want)
        assert dims == [3]
        h.apply(1e3, f)  # positive definite there: a dense factor
        assert dims == [3]


def _mask(form, vertices) -> np.ndarray:
    return np.ones(form.n, dtype=bool) if vertices is None else vertices


def _ordered_terms(form) -> list:
    """The (row, col, value) terms of K in assembly order: for the edges and then the
    couplings, (u, u, w), then (v, v, w), then (u, v, -w), then (v, u, -w); then the
    killing (x, x, c_x)."""
    g = form.graph
    ends = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), (2.0 * g.edge_b).tolist()))
    ends += [(cp.u, cp.v, cp.w) for cp in form.couplings]
    return ([(u, u, w) for u, v, w in ends] + [(v, v, w) for u, v, w in ends]
            + [(u, v, -w) for u, v, w in ends] + [(v, u, -w) for u, v, w in ends]
            + list(zip(range(form.n), range(form.n), form.c_total.tolist())))


def summed_in_order(form, vertices=None) -> tuple:
    """(indptr, indices, data) of K on ``vertices``, each entry summed term by term in
    assembly order, from its first term on."""
    position = {int(x): k for k, x in enumerate(np.flatnonzero(_mask(form, vertices)))}
    entries = {}
    for r, c, x in _ordered_terms(form):
        if r in position and c in position:
            key = (position[r], position[c])
            entries[key] = entries[key] + x if key in entries else x
    keys = sorted(entries)
    counts = np.bincount([r for r, _ in keys], minlength=len(position))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    indices = np.array([c for _, c in keys], dtype=np.int32)
    return indptr, indices, np.array([entries[k] for k in keys])


def coo_stiffness(form, vertices=None) -> sp.csr_matrix:
    """K as scipy builds it from its terms: a full-space COO matrix converted to CSR, then
    fancy-indexed to ``vertices``.  The conversion sums each row after sorting it by
    column, which is stable only up to 16 entries."""
    rows, cols, vals = zip(*_ordered_terms(form))
    n = form.n
    K = sp.coo_matrix((np.array(vals), (np.array(rows), np.array(cols))), shape=(n, n)).tocsr()
    idx = np.flatnonzero(_mask(form, vertices))
    return K[idx][:, idx].tocsr()


def assert_matches_coo(K, form, vertices=None):
    """K equals coo_stiffness bit for bit on each row with at most 16 terms before
    summing; on longer rows the off-diagonal entries are equal and the diagonal is
    within one ulp."""
    want = coo_stiffness(form, vertices)
    for name in ("indptr", "indices"):
        a, b = getattr(K, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    terms = np.bincount([r for r, _, _ in _ordered_terms(form)], minlength=form.n)
    row = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    short = (terms[_mask(form, vertices)] <= 16)[row] | (K.indices != row)
    assert K.data[short].tobytes() == want.data[short].tobytes()
    got, expect = K.data[~short], want.data[~short]
    assert np.all((got == expect) | (abs(got - expect) <= np.spacing(abs(expect)))
                  | (np.isnan(got) & np.isnan(expect)))


def assert_same_arrays(K, arrays):
    for name, want in zip(("indptr", "indices", "data"), arrays):
        got = getattr(K, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


_WEIGHTS = st.sampled_from([0.0, 5e-324, 2.5e-310, 1e300, 0.25, 1.0, 3.0]) | st.floats(0.0, 8.0)


@st.composite
def stiffness_inputs(draw):
    """A random form and vertex mask.  The graph has an isolated vertex, weights
    include zero, subnormal and 1e300 values and at most one inf or NaN, couplings may
    lie on an edge in either orientation or repeat a pair, and the mask may keep a
    single vertex."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, draw(_WEIGHTS)) for u, v in edges]
    c = [draw(_WEIGHTS) for _ in range(n + 1)]  # vertex n is isolated
    vertex = st.integers(0, n)
    cps = draw(st.lists(st.tuples(vertex, vertex, _WEIGHTS), max_size=4))
    if edges and draw(st.booleans()):  # on an edge, in each orientation
        u, v, _ = draw(st.sampled_from(edges))
        cps += [(u, v, draw(_WEIGHTS)), (v, u, draw(_WEIGHTS))]
    if cps and draw(st.booleans()):  # twice on one pair
        u, v, _ = draw(st.sampled_from(cps))
        cps.append((u, v, draw(_WEIGHTS)))
    bad = draw(st.sampled_from([None, math.inf, math.nan]))
    if bad is not None:
        at = draw(st.integers(0, len(edges) + len(c) + len(cps) - 1))
        if at < len(edges):
            edges[at] = edges[at][:2] + (bad,)
        elif at < len(edges) + len(c):
            c[at - len(edges)] = bad
        else:
            cps[at - len(edges) - len(c)] = cps[at - len(edges) - len(c)][:2] + (bad,)
    g = WeightedGraph([str(x) for x in range(n + 1)], [1.0] * (n + 1), c, edges)
    killing = [draw(_WEIGHTS) if draw(st.booleans()) else 0.0 for _ in range(n + 1)]
    form = GraphForm(g, np.ones(n + 1, dtype=bool), killing, [Coupling(*cp) for cp in cps])
    if draw(st.booleans()):
        mask = np.zeros(n + 1, dtype=bool)
        mask[draw(vertex)] = True
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1)))
    return form, (mask if mask.any() else None)


class TestAssembleStiffness:
    """One numpy pass builds K on a vertex set, as the terms summed in order give it."""

    @settings(max_examples=200)
    @given(stiffness_inputs())
    def test_matches_the_ordered_sums_and_scipy(self, inputs):
        form, mask = inputs
        with np.errstate(invalid="ignore", over="ignore"):
            K = assemble_stiffness(form, mask)
            assert_same_arrays(K, summed_in_order(form, mask))
            assert_matches_coo(K, form, mask)
            assert_same_arrays(assemble_stiffness(form), summed_in_order(form))


class TestGeneratorOperator:
    def test_restriction_selects_the_active_entries(self):
        # The generator's K is the stiffness matrix on the active vertices, as the
        # ordered sums give it, and as scipy's COO assembly does on short rows.
        forms = list(TestCachedPattern.forms()) + [q for q, _ in form_corpus(28, 20, n_max=40)]
        for q in forms:
            K = build_generator(q).stiffness
            assert_same_arrays(K, summed_in_order(q, q.active))
            assert_matches_coo(K, q, q.active)

    def test_energy_matches_form(self):
        rng = np.random.default_rng(1)
        for q, _ in form_corpus(22, 3, n_max=20):
            gen = build_generator(q)
            idx = gen.active_index
            f = np.zeros(q.n)
            g = np.zeros(q.n)
            f[idx] = rng.uniform(-1, 1, gen.dim)
            g[idx] = rng.uniform(-1, 1, gen.dim)
            energy = float(f[idx] @ (gen.stiffness @ g[idx]))  # <L f, g>_m = f^T K g
            assert energy == pytest.approx(q.bilinear(f, g), rel=1e-10, abs=1e-10)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(2)
        q, _ = form_corpus(23, 1, n_max=20)[0]
        gen = build_generator(q)
        for _ in range(10):
            f = rng.uniform(-1, 1, gen.dim)
            g = rng.uniform(-1, 1, gen.dim)
            lf, lg = (gen.stiffness @ f) / gen.mass, (gen.stiffness @ g) / gen.mass  # L = M^-1 K
            a = float(np.sum(gen.mass * lf * g))
            b = float(np.sum(gen.mass * f * lg))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            assert float(np.sum(gen.mass * lf * f)) >= -1e-12

    def test_norm_estimate_is_the_gershgorin_bound(self):
        forms = [q for q, _ in form_corpus(24, 20, n_max=30)] + list(TestCachedPattern.forms())
        for q in forms:
            gen = build_generator(q)
            K = gen.stiffness.toarray()
            bound = gen.norm_estimate()
            rows = np.abs(K).sum(axis=1) / gen.mass
            assert bound == pytest.approx(float(rows.max(initial=0.0)))
            s = 1.0 / np.sqrt(gen.mass)
            spectrum = np.linalg.eigvalsh(s[:, None] * K * s[None, :]) if gen.dim else [0.0]
            assert max(abs(x) for x in spectrum) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("weight", ["edge", "killing"])
    def test_non_finite_bound_is_rejected_by_the_ladder(self, weight):
        edges = [("a", "b", np.inf if weight == "edge" else 1.0), ("b", "c", 1.0)]
        c = [np.inf if weight == "killing" else 0.0, 0.0, 0.0]
        h = ResolventHandle(assemble(WeightedGraph(["a", "b", "c"], [1.0] * 3, c, edges)))
        assert h.generator.norm_estimate() == np.inf
        with pytest.raises(ValueError, match="norm bound is not finite"):
            default_alpha_ladder(h)
        with pytest.raises(ValueError, match="norm bound is not finite"):
            truncated_form_via_resolvent(h, np.ones(3), np.ones(3))


class TestSubMarkov:
    def test_alpha_resolvent_of_one(self):
        for q, _ in form_corpus(24, 3, n_max=25):
            h = ResolventHandle(q)
            ones = np.ones(h.dim)
            for alpha in (0.5, 1.0, 100.0):
                u = alpha * h.apply(alpha, ones)
                assert float(u.min()) >= -1e-10
                assert float(u.max()) <= 1.0 + 1e-10

    def test_positivity_preserving(self):
        rng = np.random.default_rng(3)
        for q, _ in form_corpus(25, 3, n_max=25):
            h = ResolventHandle(q)
            f = rng.uniform(0, 2, h.dim)
            for alpha in (0.5, 5.0):
                assert float(h.apply(alpha, f).min()) >= -1e-10


class TestApproximatingForm:
    def test_single_vertex_values(self):
        h = single_vertex_handle()
        assert h.approximating_form(1.0, np.ones(1)) == 1.2
        assert h.approximating_form(1.0, np.zeros(1)) == 0.0

    def test_large_alpha_limit(self):
        # alpha E^(alpha)(1) = 3 / (1 + 1.5/alpha) -> Q(1) = 3
        h = single_vertex_handle()
        alpha = 1e6
        assert alpha * h.approximating_form(alpha, np.ones(1)) == pytest.approx(3.0, abs=1e-5)

    def test_monotone_ladder_converges_to_energy(self):
        rng = np.random.default_rng(4)
        for q, _ in form_corpus(26, 3, n_max=12):
            h = ResolventHandle(q)
            idx = h.generator.active_index
            f_full = np.zeros(q.n)
            f_full[idx] = rng.uniform(-2, 2, h.dim)
            vals = [a * h.approximating_form(a, f_full[idx]) for a in default_alpha_ladder(h)]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-10 * max(1.0, abs(a))
            assert vals[-1] == pytest.approx(q.evaluate(f_full), rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        q, _ = form_corpus(27, 1, n_max=15)[0]
        h = ResolventHandle(q)
        for _ in range(5):
            f = rng.uniform(-2, 2, h.dim)
            assert h.approximating_form(2.0, f) >= -1e-12

    def test_resolvent_identity(self):
        q, _ = form_corpus(28, 1, n_max=12)[0]
        h = ResolventHandle(q)
        for alpha, beta in ((0.5, 2.0), (1.0, 10.0)):
            Ga, Gb = h.resolvent_matrix(alpha), h.resolvent_matrix(beta)
            np.testing.assert_allclose(Ga - Gb, (beta - alpha) * (Ga @ Gb), atol=1e-8)


class TestTruncatedCoefficients:
    def test_full_cutoff_no_killing_no_rest(self):
        # phi = 1, singleton partition covering all active vertices of a
        # killing-free graph: every c_i and c_i_phi vanishes.
        q = assemble(make_path(4, 1.0))
        h = ResolventHandle(q)
        table = truncated_coefficients(
            h, 1.0, np.ones(4), [[f"v{i}"] for i in range(4)]
        )
        np.testing.assert_allclose(table.c, 0.0, atol=1e-12)
        np.testing.assert_allclose(table.c_phi, 0.0, atol=1e-12)
        np.testing.assert_allclose(table.b, table.b_phi, atol=1e-12)

    def test_zero_cutoff(self):
        q = assemble(make_path(3, 1.0))
        h = ResolventHandle(q)
        table = truncated_coefficients(h, 1.0, np.zeros(3), [["v0"], ["v1"]])
        np.testing.assert_allclose(table.b_phi, 0.0, atol=1e-15)
        np.testing.assert_allclose(table.c_phi, 0.0, atol=1e-15)

    def test_two_routes_agree(self):
        # coefficient through the LU path vs a dense solve of (K + M) G = M
        q = assemble(make_path(2, 1.0))
        h = ResolventHandle(q)
        t = truncated_coefficients(h, 1.0, np.ones(2), [["v0"], ["v1"]])
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        G = np.linalg.solve(K + np.eye(2), np.eye(2))
        assert t.b[0, 1] == pytest.approx(G[0, 1], abs=1e-10)
        assert t.b[0, 1] == pytest.approx(t.b_phi[0, 1], abs=1e-14)

    def test_bounds_and_reconstruction(self):
        rng = np.random.default_rng(6)
        for q, _ in form_corpus(29, 3, n_max=12):
            h = ResolventHandle(q)
            act = h.generator.active_index
            k = min(3, len(act))
            chosen = rng.choice(act, size=k, replace=False)
            phi = random_cutoff(rng, q)
            table = truncated_coefficients(h, 2.0, phi, [[int(v)] for v in chosen])
            assert (table.b_phi >= -1e-10).all() and (table.b_phi <= table.b + 1e-10).all()
            assert (table.c_phi >= -1e-10).all() and (table.c_phi <= table.c + 1e-10).all()
            values = rng.uniform(-2, 2, k)
            f = np.zeros(h.dim)
            pos = {v: i for i, v in enumerate(act)}
            for val, v in zip(values, chosen):
                f[pos[int(v)]] = val
            assert table.reconstruct(values) == pytest.approx(
                h.approximating_form(2.0, f), abs=1e-10
            )

    def test_overlapping_partition_rejected(self):
        q = assemble(make_path(3, 1.0))
        h = ResolventHandle(q)
        with pytest.raises(ValueError, match="disjoint"):
            truncated_coefficients(h, 1.0, np.ones(3), [["v0", "v1"], ["v1"]])


def column_loop_coefficients(h, alpha, phi, partition):
    """(b, b_phi, c, c_phi) from one vector solve per column and dense indicators:
    the reference for the labelled multi-column table."""
    act, mass = h.generator.active_index, h.generator.mass
    pos = {v: i for i, v in enumerate(act)}
    phi_a = phi[act]
    ones = []
    for A in partition:
        one = np.zeros(h.dim)
        for v in A:
            i = pos.get(h.form.graph._resolve(v))
            if i is not None:
                one[i] = 1.0
        ones.append(one)
    union = np.clip(np.sum(ones, axis=0), 0.0, 1.0) if ones else np.zeros(h.dim)
    k = len(ones)
    b, b_phi = np.zeros((k, k)), np.zeros((k, k))
    g_plain = [h._solve(alpha, mass * one) for one in ones]
    g_trunc = [h._solve(alpha, mass * (phi_a * one)) for one in ones]
    for i in range(k):
        for j in range(k):
            if i != j:
                b[i, j] = alpha * float(np.sum(mass * ones[i] * g_plain[j]))
                b_phi[i, j] = alpha * float(np.sum(mass * (phi_a * ones[i]) * g_trunc[j]))
    gu = h._solve(alpha, mass * union)
    grest = h._solve(alpha, mass * (phi_a * (1.0 - union)))
    c = np.array([float(np.sum(mass * one * (union - alpha * gu))) for one in ones])
    c_phi = np.array([alpha * float(np.sum(mass * (phi_a * one) * grest)) for one in ones])
    return b, b_phi, c, c_phi


def random_partition(rng, q, k):
    """k disjoint vertex sets, boundary vertices included, each vertex an id or an index."""
    chosen = rng.permutation(q.n)[: rng.integers(k, q.n + 1)]
    cuts = np.sort(rng.choice(np.arange(1, len(chosen)), size=k - 1, replace=False))
    ids = q.graph.ids
    return [
        [ids[v] if rng.random() < 0.5 else int(v) for v in part]
        for part in np.split(chosen, cuts)
    ]


class TestCoefficientColumns:
    """A table takes one multi-column solve and labelled sums over its sets."""

    ALPHAS = (1e-3, 1.0, 1e3)

    @staticmethod
    def cases(seed, count, n_max):
        rng = np.random.default_rng(seed)
        for q, _ in form_corpus(seed, count, n_max=n_max):
            yield q, rng.uniform(0.0, 1.0, q.n) * q.active, random_partition(rng, q, min(4, q.n))

    def test_matches_the_column_loop(self):
        worst = 0.0
        for q, phi, partition in self.cases(40, 30, 40):
            h = ResolventHandle(q)
            for alpha in self.ALPHAS:
                t = truncated_coefficients(h, alpha, phi, partition)
                want = column_loop_coefficients(h, alpha, phi, partition)
                for got, ref in zip((t.b, t.b_phi, t.c, t.c_phi), want):
                    assert got.shape == ref.shape
                    gap = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
                    worst = max(worst, float(gap.max(initial=0.0)))
        assert worst <= 1e-14

    def test_matches_exact_rational_solves(self):
        for q, phi, partition in self.cases(41, 12, 6):
            h = ResolventHandle(q)
            act, mass = h.generator.active_index, h.generator.mass
            member = [np.isin(act, [q.graph._resolve(v) for v in A]) for A in partition]
            union = np.any(member, axis=0)
            for alpha in self.ALPHAS:
                t = truncated_coefficients(h, alpha, phi, partition)

                def pair_sum(weights, i, rhs):
                    x = exact_solve(h, alpha, rhs)
                    return sum(Fraction(w) * x[r] for r, w in enumerate(weights) if member[i][r])

                pm = mass * phi[act]
                k = len(partition)
                exact = {
                    "b": [[alpha * pair_sum(mass, i, mass * member[j]) if i != j else 0
                           for j in range(k)] for i in range(k)],
                    "b_phi": [[alpha * pair_sum(pm, i, pm * member[j]) if i != j else 0
                               for j in range(k)] for i in range(k)],
                    "c_phi": [alpha * pair_sum(pm, i, pm * ~union) for i in range(k)],
                }
                gu = exact_solve(h, alpha, mass * union)
                exact["c"] = [
                    sum(Fraction(mass[r]) * (1 - Fraction(alpha) * gu[r])
                        for r in range(h.dim) if member[i][r])
                    for i in range(k)
                ]
                for name, want in exact.items():
                    want = np.array(want, dtype=float)
                    np.testing.assert_allclose(getattr(t, name), want, rtol=1e-12, atol=1e-15)

    def test_one_factor_and_one_solve_per_table(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)  # every handle factors by SuperLU
        factors, solves = [], []
        splu = scipy.sparse.linalg.splu

        class CountingLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(np.shape(rhs))
                return self.lu.solve(rhs)

        def spy(A, **kw):
            factors.append(A.shape)
            return CountingLU(splu(A, **kw))

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        for q, phi, partition in self.cases(42, 5, 30):
            for alpha in self.ALPHAS:
                h = ResolventHandle(q)
                factors.clear()
                solves.clear()
                truncated_coefficients(h, alpha, phi, partition)
                assert factors == [(h.dim, h.dim)]
                assert solves == [(h.dim, 2 * len(partition) + 2)]

    def test_one_dense_factor_and_one_solve_per_table(self, monkeypatch):
        from scipy.linalg import lapack

        factors, solves = [], []
        dpotrf, dpotrs = lapack.dpotrf, lapack.dpotrs
        monkeypatch.setattr(lapack, "dpotrf", lambda A, **kw: factors.append(A.shape)
                            or dpotrf(A, **kw))
        monkeypatch.setattr(lapack, "dpotrs", lambda c, rhs, **kw: solves.append(np.shape(rhs))
                            or dpotrs(c, rhs, **kw))
        for q, phi, partition in self.cases(42, 5, 30):
            for alpha in self.ALPHAS:
                h = ResolventHandle(q)
                assert h.dim <= resolvent.SMALL_DIM
                factors.clear()
                solves.clear()
                truncated_coefficients(h, alpha, phi, partition)
                assert factors == [(h.dim, h.dim)]
                assert solves == [(h.dim, 2 * len(partition) + 2)]

    def test_one_generator_per_form(self, monkeypatch):
        built = []
        build = resolvent.build_generator
        monkeypatch.setattr(resolvent, "build_generator", lambda q: built.append(q) or build(q))
        q = lattice_ball_form(4, boundary=["4,0"])
        phi = np.clip(np.random.default_rng(43).uniform(-0.5, 1.5, q.n), 0.0, 1.0) * q.active
        handles = [ResolventHandle(q) for _ in range(4)]
        for h in handles:
            h.apply(1.0, np.ones(h.dim))
            truncated_coefficients(h, 0.5, phi, [["0,0"], ["1,0", "0,1"]])
            truncated_form_via_resolvent(h, phi, np.ones(q.n))
        classify_recurrence(q, Exhaustion.full(q.graph))
        assert built == [q]
        assert all(h.generator is q.generator for h in handles)

    def test_interleaved_alphas_on_two_handles_match_fresh_handles(self):
        rng = np.random.default_rng(44)
        for q, phi, partition in self.cases(44, 8, 30):
            h1, h2 = ResolventHandle(q), ResolventHandle(q)
            f = rng.uniform(-1, 1, h1.dim)
            for a1, a2 in ((1.0, 1e3), (1e3, 1e-3), (1e-3, 1.0), (1.0, 1.0)):
                for h, alpha in ((h1, a1), (h2, a2), (h1, a2)):
                    fresh = ResolventHandle(q)
                    assert np.array_equal(h.apply(alpha, f), fresh.apply(alpha, f))
                    got = truncated_coefficients(h, alpha, phi, partition)
                    want = truncated_coefficients(ResolventHandle(q), alpha, phi, partition)
                    for name in ("b", "b_phi", "c", "c_phi"):
                        assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_partition_shapes(self):
        q = lattice_ball_form(3, boundary=["3,0", "0,3"])
        h = ResolventHandle(q)
        phi = np.full(q.n, 0.5) * q.active
        empty = truncated_coefficients(h, 1.0, phi, [])
        assert empty.b.shape == empty.b_phi.shape == (0, 0)
        assert empty.c.shape == empty.c_phi.shape == (0,)
        # a set of boundary vertices only has no active member: all its coefficients vanish
        sets = [["0,0", "1,0"], ["3,0", "0,3"], ["2,1"]]
        t = truncated_coefficients(h, 1.0, phi, sets)
        for name in ("b", "b_phi"):
            table = getattr(t, name)
            assert (table[1] == 0.0).all() and (table[:, 1] == 0.0).all()
        assert t.c[1] == t.c_phi[1] == 0.0
        without = truncated_coefficients(h, 1.0, phi, [sets[0], sets[2]])
        keep = np.array([0, 2])
        for name in ("b", "b_phi"):
            assert np.array_equal(getattr(t, name)[np.ix_(keep, keep)], getattr(without, name))
        for name in ("c", "c_phi"):
            assert np.array_equal(getattr(t, name)[keep], getattr(without, name))
        # ids and indices name the same vertices
        index = q.graph.index
        mixed = [[index["0,0"], "1,0"], [index["3,0"], "0,3"], [np.int64(index["2,1"])]]
        same = truncated_coefficients(h, 1.0, phi, mixed)
        for name in ("b", "b_phi", "c", "c_phi"):
            assert np.array_equal(getattr(same, name), getattr(t, name)), name

    def test_rejected_partitions_and_alphas(self):
        h = ResolventHandle(lattice_ball_form(3))
        phi = np.full(h.form.n, 0.5)
        with pytest.raises(GraphFormatError, match="unknown vertex id 'nowhere'"):
            truncated_coefficients(h, 1.0, phi, [["0,0"], ["1,0", "nowhere"]])
        with pytest.raises(GraphFormatError, match="out of range"):
            truncated_coefficients(h, 1.0, phi, [[h.form.n]])
        index = h.form.graph.index
        with pytest.raises(ValueError, match="disjoint"):
            truncated_coefficients(h, 1.0, phi, [["0,0", "1,0"], [index["1,0"]]])
        for alpha in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="must be positive"):
                truncated_coefficients(h, alpha, phi, [["0,0"]])


class TestSharedDataIsReadOnly:
    def test_in_place_writes_raise(self):
        q = lattice_ball_form(3, boundary=["3,0"])
        h = ResolventHandle(q)
        f = np.linspace(-1, 1, h.dim)
        before = (h.apply(1.0, f), h.approximating_form(50.0, f))
        gen = q.generator
        pattern, diag = gen.shift_pattern
        W = gen.splitting[1]
        arrays = [gen.mass, gen.active_index, diag, *gen.splitting[::2], gen._dense_stiffness[0]]
        for K in (gen.stiffness, pattern, W):
            arrays += [K.data, K.indices, K.indptr]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7
        fresh = ResolventHandle(q)
        assert np.array_equal(fresh.apply(1.0, f), before[0])
        assert fresh.approximating_form(50.0, f) == before[1]


class TestLadder:
    def test_full_cutoff_recovers_energy(self):
        rng = np.random.default_rng(7)
        q, _ = form_corpus(30, 1, n_max=10)[0]
        # strip the mask and killing: phi = 1 is then admissible
        q0 = assemble(zero_killing(q.graph))
        h = ResolventHandle(q0)
        f = rng.uniform(-2, 2, q0.n)
        res = truncated_form_via_resolvent(h, np.ones(q0.n), f)
        assert res.limit == pytest.approx(q0.evaluate(f), rel=1e-6)
        assert res.converged

    def test_pure_killing_has_zero_truncation(self):
        q = assemble(single_vertex(2.0, 3.0))
        h = ResolventHandle(q)
        res = truncated_form_via_resolvent(h, np.ones(1), np.array([1.7]))
        assert all(abs(v) <= 1e-10 for v in res.values)

    def test_zero_function(self):
        q = assemble(make_path(3, 1.0))
        h = ResolventHandle(q)
        res = truncated_form_via_resolvent(h, np.ones(3), np.zeros(3))
        assert all(v == 0.0 for v in res.values)


def lattice_ball_form(radius, boundary=()):
    gen = SquareLatticeGenerator()
    return assemble(truncate(gen, generator_ball(gen, "0,0", radius)), boundary=list(boundary))


def lu_bilinear(h, alpha, u, v):
    """E^(alpha)(u, v) through the handle's factor, whatever rho(alpha) is."""
    w = h._factor(alpha)(h.generator.stiffness @ v)
    return float(np.sum(h.generator.mass * u * w)), w


def exact_solve(h, alpha, rhs):
    """(K + alpha M) w = rhs in rational arithmetic, for the float data as given.

    For a (dim, k) rhs, one list of k Fractions per row of the solution.
    """
    K, m, n = h.generator.stiffness.toarray(), h.generator.mass, h.dim
    rhs = np.asarray(rhs, dtype=float)
    rows = [
        [Fraction(K[i, j]) + (Fraction(alpha) * Fraction(m[i]) if i == j else 0) for j in range(n)]
        + [Fraction(x) for x in np.atleast_1d(rhs[i])]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                t = rows[r][c] / rows[c][c]
                rows[r] = [a - t * b for a, b in zip(rows[r], rows[c])]
    w = [[x / rows[i][i] for x in rows[i][n:]] for i in range(n)]
    return w if rhs.ndim == 2 else [row[0] for row in w]


def dominance_threshold(h):
    """Least alpha with rho(alpha) <= 1/2: max_i (2 sum_j |K_ij| - K_ii) / m_i."""
    diag, _, offsum = h.generator.splitting
    return float(((2.0 * offsum - diag) / h.generator.mass).max())


def rho(h, alpha):
    """rho(alpha) = max_i sum_{j != i} |K_ij| / (K_ii + alpha m_i) (see the module docstring)."""
    diag, _, offsum = h.generator.splitting
    return float((offsum / (diag + alpha * h.generator.mass)).max(initial=0.0))


def factored_alphas(h, alphas):
    """The alphas that a handle above SMALL_DIM factors, for vector solves at ``alphas`` in
    turn: each with rho > 1/2, unless the factor of the last one it factored serves it."""
    out = []
    for alpha in alphas:
        if rho(h, alpha) > 0.5 and (not out or out[-1] != alpha):
            out.append(alpha)
    return out


class TestSeriesRoute:
    """Approximating forms above the diagonal take the Neumann series."""

    @staticmethod
    def forms():
        for q, _ in form_corpus(31, 40, n_max=40):
            yield q
        yield lattice_ball_form(12)
        yield lattice_ball_form(12, boundary=["12,0", "0,5"])
        yield assemble(make_path(30, 0.7), extra_killing={"v4": 0.3})

    def test_every_default_rung_is_below_one_third(self):
        for q in self.forms():
            h = ResolventHandle(q)
            for alpha in default_alpha_ladder(h):
                assert rho(h, alpha) <= 1.0 / 3.0

    def test_agrees_with_lu_on_every_ladder_rung(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)  # the corpus forms take the series too
        rng = np.random.default_rng(32)
        for q in self.forms():
            h = ResolventHandle(q)
            for alpha in default_alpha_ladder(h):
                u, v = rng.uniform(-2, 2, (2, h.dim))
                rhs = h.generator.stiffness @ v
                assert h._series_solve(alpha, rhs) is not None
                lu, w = lu_bilinear(h, alpha, u, v)
                scale = float(np.sum(np.abs(h.generator.mass * u * w)))
                assert abs(h.approximating_bilinear(alpha, u, v) - lu) <= 1e-14 * scale

    def test_within_four_units_of_the_exact_solution(self):
        rng = np.random.default_rng(33)
        worst = 0.0
        for q, _ in form_corpus(34, 60, n_max=6):
            h = ResolventHandle(q)
            if h.dim == 0:
                continue
            threshold = dominance_threshold(h)
            # the default ladder, and alphas where rho is just below 1/2
            near = [a for a in (threshold * 1.000001, threshold * 1.1) if a > 0]
            alphas = default_alpha_ladder(h)[:3] + near
            for alpha in alphas:
                rhs = h.generator.stiffness @ rng.uniform(-2, 2, h.dim)
                w = h._series_solve(alpha, rhs)
                if w is None:
                    assert not alpha > threshold
                    continue
                exact = exact_solve(h, alpha, rhs)
                top = max(abs(e) for e in exact)
                if top == 0:
                    assert not w.any()
                    continue
                err = max(abs(Fraction(float(x)) - e) for x, e in zip(w, exact))
                worst = max(worst, float(err / top) * 2.0**53)
        assert worst <= 4.0

    def test_term_count_is_the_least_that_reaches_unit_roundoff(self):
        def tail(rho, n):
            rho = Fraction(rho)
            return (1 + rho) * rho ** (n + 1) / (1 - rho)

        unit = Fraction(2) ** -53
        assert _series_terms(0.0) == 0
        assert _series_terms(0.5) == 54
        for rho in (1e-300, 1e-17, 1e-8, 0.01, 0.1, 0.25, 0.3, 0.4649, 0.49, 0.5):
            n = _series_terms(rho)
            assert tail(rho, n) <= unit
            assert n == 0 or tail(rho, n - 1) > unit

    def test_below_the_diagonal_takes_the_lu(self, monkeypatch):
        # Without killing and boundary, sum_j |K_ij| = K_ii, so rho > 1/2 exactly
        # when alpha m_i < K_ii for some i.
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)  # the series is tried at every size
        rng = np.random.default_rng(35)
        for q in (assemble(make_path(7, 0.5)), lattice_ball_form(4)):
            h = ResolventHandle(q)
            threshold = dominance_threshold(h)
            diag = h.generator.splitting[0]
            assert threshold == float((diag / h.generator.mass).max())
            u, v = rng.uniform(-2, 2, (2, h.dim))
            rhs = h.generator.stiffness @ v
            for alpha in (1e-3, 0.5 * threshold, threshold * (1 - 1e-12)):
                assert h._series_solve(alpha, rhs) is None
                assert h.approximating_bilinear(alpha, u, v) == lu_bilinear(h, alpha, u, v)[0]
            assert h._series_solve(threshold * (1 + 1e-12), rhs) is not None

    def test_rho_just_above_one_half_takes_the_lu(self):
        # Killing on a path: rho sits below 1 for every alpha, and crosses 1/2 at
        # the threshold.
        h = ResolventHandle(assemble(make_path(5, 1.0), extra_killing={"v2": 0.3}))
        threshold = dominance_threshold(h)
        rhs = h.generator.stiffness @ np.linspace(-1, 1, h.dim)
        for alpha, taken in ((threshold * (1 - 1e-9), False), (threshold * (1 + 1e-9), True)):
            assert (rho(h, alpha) <= 0.5) is taken
            assert (h._series_solve(alpha, rhs) is not None) is taken

    @pytest.mark.parametrize("weight", ["edge", "killing"])
    def test_non_finite_weight_takes_the_lu(self, monkeypatch, weight):
        edges = [("a", "b", np.inf if weight == "edge" else 1.0), ("b", "c", 1.0)]
        c = [np.inf if weight == "killing" else 0.0, 0.0, 0.0]
        h = ResolventHandle(assemble(WeightedGraph(["a", "b", "c"], [1.0] * 3, c, edges)))
        solved = []
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)  # the series is tried at every size
        monkeypatch.setattr(h, "_factor", lambda alpha: solved.append(alpha) or (lambda rhs: rhs))
        with np.errstate(invalid="ignore"):
            assert h._series_solve(1e6, h.generator.stiffness @ np.ones(3)) is None
            h.approximating_bilinear(1e6, np.ones(3), np.ones(3))
        assert solved == [1e6]

    def test_no_edges_is_one_division(self):
        g = WeightedGraph(["a", "b", "c"], [1.0, 2.0, 0.5], [0.3, 0.0, 7.0], [])
        h = ResolventHandle(assemble(g))
        rhs = np.array([0.7, -1.1, 3.3])
        # below the diagonal too: rho = 0 there
        for alpha in (1e-3, 1.0, 1e3):
            d = h.generator.stiffness.diagonal() + alpha * h.generator.mass
            assert np.array_equal(h._series_solve(alpha, rhs), rhs / d)

    def test_ladder_factors_nothing_and_lu_routes_are_unchanged(self, monkeypatch):
        import scipy.sparse.linalg as spla

        handed = []
        splu = spla.splu

        def spy(A, **kw):
            handed.append(kw)
            return splu(A, **kw)

        q = lattice_ball_form(10, boundary=["10,0"])
        h = ResolventHandle(q)
        rng = np.random.default_rng(36)
        phi = np.clip(rng.uniform(-0.5, 1.5, q.n), 0.0, 1.0) * q.active
        f = rng.uniform(-2, 2, q.n)
        monkeypatch.setattr(spla, "splu", spy)
        truncated_form_via_resolvent(h, phi, f)
        assert handed == []

        # apply takes the series above the diagonal (rho(1e3) <= 1/2) and the LU
        # below it; multi-column solves keep the one LU factor and never read the series.
        def refuse(*args):
            raise AssertionError("series route taken")

        K, m = h.generator.stiffness, h.generator.mass
        for alpha in (1e-2, 1.0, 1e3):
            lu = splu((K + sp.diags(alpha * m)).tocsc(), permc_spec="MMD_AT_PLUS_A")
            x = rng.uniform(-1, 1, h.dim)
            series = h._series_solve(alpha, m * x)
            assert (series is None) is (alpha < 1e3)
            assert np.array_equal(h.apply(alpha, x), lu.solve(m * x) if series is None else series)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ResolventHandle, "_series_solve", refuse)
                assert np.array_equal(h.resolvent_matrix(alpha), lu.solve(np.diag(m)))
                truncated_coefficients(h, alpha, phi, [["0,0"], ["1,0", "0,1"]])
        assert len(handed) == 3


@st.composite
def boundary_cases(draw):
    """A random form with killing and a Dirichlet mask, and an alpha on either side of
    the rho = 1/2 threshold (near it, far below or far above)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, 3, 20)
    q = assemble(g, boundary=random_boundary(rng, g),
                 extra_killing={v: float(rng.uniform(0.0, 1.0)) for v in g.ids[:2]})
    threshold = dominance_threshold(ResolventHandle(q))
    scale = draw(st.sampled_from([1e-3, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 1e3]))
    return q, (threshold if threshold > 0 else 1.0) * scale, rng


def factor_gap_bound(h, alpha, b, w):
    """A bound on |s - w| for the series solution s of (K + alpha M) s = b and a solution
    w of any accuracy, where rho(alpha) <= 1/2, in rationals.

    s lies within four units of max |w*| of the exact solution w* (the bound that
    TestSeriesRoute pins), and |w - w*| <= e = ||b - A w||_inf / min_i (A_ii -
    sum_{j != i} |A_ij|) by Varah's bound on the diagonally dominant A = K + alpha M.
    """
    K, m = h.generator.stiffness.toarray(), h.generator.mass
    rows = [[Fraction(x) for x in row] for row in K]
    for i in range(h.dim):
        rows[i][i] += Fraction(alpha) * Fraction(m[i])
    margin = min(row[i] - sum(abs(x) for j, x in enumerate(row) if j != i)
                 for i, row in enumerate(rows))
    w_exact = [Fraction(float(x)) for x in w]
    residual = max(abs(Fraction(float(bi)) - sum(a * x for a, x in zip(row, w_exact)))
                   for bi, row in zip(b, rows))
    e = residual / margin
    return 4 * Fraction(resolvent._UNIT_ROUNDOFF) * (max(map(abs, w_exact)) + e) + e


class TestSolveBoundary:
    """_solve is the one boundary of vector solves: above SMALL_DIM, apply, a one-column
    solve_columns and approximating_bilinear take the Neumann series exactly where it
    applies, and agree with the factor's solution; wider solves take the factor."""

    @settings(max_examples=80)
    @given(boundary_cases())
    def test_series_exactly_where_it_applies(self, case):
        q, alpha, rng = case
        h = ResolventHandle(q)
        m, K, factor = h.generator.mass, h.generator.stiffness, h._factor
        x, u, v = rng.uniform(-2, 2, (3, h.dim))
        rhs = rng.uniform(-2, 2, (h.dim, 3))
        taken = h._series_solve(alpha, m * x) is not None
        assert taken is (rho(h, alpha) <= 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolvent, "SMALL_DIM", 0)
            factored = []
            mp.setattr(h, "_factor", lambda a: factored.append(a) or factor(a))
            w = h._solve(alpha, K @ v)
            assert h.approximating_bilinear(alpha, u, v) == float(np.sum(m * u * w))
            for got, b in ((h.apply(alpha, x), m * x), (w, K @ v),
                           (h.solve_columns(alpha, rhs[:, :1])[:, 0], rhs[:, 0])):
                want = factor(alpha)(b)
                if taken:
                    gap = max(abs(Fraction(s) - Fraction(t)) for s, t in zip(got.tolist(), want))
                    assert gap <= factor_gap_bound(h, alpha, b, want)
                else:
                    assert np.array_equal(got, want)
            assert factored == ([] if taken else [alpha] * 4)

            def refuse(*args):
                raise AssertionError("series route taken")

            mp.setattr(ResolventHandle, "_series_solve", refuse)
            for k in (2, 3):
                assert np.array_equal(h.solve_columns(alpha, rhs[:, :k]), factor(alpha)(rhs[:, :k]))


class TestVectorSizes:
    """Every entry point rejects a vector of the wrong length with apply's message."""

    @staticmethod
    def handle():
        # n = 13 vertices, 12 active
        return ResolventHandle(lattice_ball_form(2, boundary=["2,0"]))

    def test_approximating_bilinear(self):
        h = self.handle()
        ok = np.ones(h.dim)
        for u, v in ((np.ones(1), ok), (ok, np.ones(1)), (ok, np.ones(h.dim + 1))):
            with pytest.raises(ValueError, match=r"expected 12 active values, got \(\d+,\)"):
                h.approximating_bilinear(2.0, u, v)

    def test_truncated_form_via_resolvent(self):
        h = self.handle()
        phi = h.extend(np.full(h.dim, 0.5))
        with pytest.raises(ValueError, match=r"expected 13 values, got \(1,\)"):
            truncated_form_via_resolvent(h, phi, np.ones(1))
        with pytest.raises(ValueError, match=r"expected 13 values, got \(12,\)"):
            truncated_form_via_resolvent(h, phi[:12], np.ones(13))

    @pytest.mark.parametrize("size", [1, 14])
    def test_truncated_coefficients(self, size):
        with pytest.raises(ValueError, match=rf"expected 13 values, got \({size},\)"):
            truncated_coefficients(self.handle(), 1.0, np.full(size, 0.5), [["0,0"]])


class TestNonFiniteInputs:
    """A non-finite cutoff or function is rejected, as ``truncated_form`` rejects it."""

    handle = staticmethod(TestVectorSizes.handle)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cutoff(self, bad):
        h = self.handle()
        phi = h.extend(np.full(h.dim, 0.5))
        phi[h.generator.active_index[3]] = bad
        for check in (
            lambda: truncated_form_via_resolvent(h, phi, np.ones(13)),
            lambda: truncated_coefficients(h, 1.0, phi, [["0,0"]]),
            lambda: truncated_form(h.form, phi, np.ones(13)),
        ):
            with pytest.raises(ValueError, match="vertex functions must be finite"):
                check()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_function(self, bad):
        h = self.handle()
        f = np.ones(13)
        f[5] = bad
        with pytest.raises(ValueError, match="vertex functions must be finite"):
            truncated_form_via_resolvent(h, h.extend(np.full(h.dim, 0.5)), f)

    def test_cutoff_off_the_active_set(self):
        h = self.handle()
        with pytest.raises(ValueError, match="vanish off the active set"):
            truncated_coefficients(h, 1.0, np.full(13, 0.5), [["0,0"]])


def infinite_weight_path(weight="edge"):
    """The 3-vertex path a - b - c with b(a, b) or c(a) infinite."""
    edges = [("a", "b", np.inf if weight == "edge" else 1.0), ("b", "c", 1.0)]
    c = [np.inf if weight == "killing" else 0.0, 0.0, 0.0]
    return assemble(WeightedGraph(["a", "b", "c"], [1.0] * 3, c, edges))


class TestFactorInputs:
    """The LU path rejects what it cannot factor with a classified error."""

    @pytest.mark.parametrize("weight", ["edge", "killing"])
    def test_infinite_weight_is_a_value_error(self, weight):
        h = ResolventHandle(infinite_weight_path(weight))
        for call in (lambda: h.apply(1.0, np.ones(3)),
                     lambda: h.resolvent_matrix(1.0),
                     lambda: h.solve_columns(1.0, np.eye(3))):
            with pytest.raises(ValueError, match="not finite; check the weights"):
                call()

    def test_solve_columns_matches_column_solves(self):
        h = ResolventHandle(lattice_ball_form(3, boundary=["3,0"]))
        rhs = np.random.default_rng(0).normal(size=(h.dim, 5))
        X = h.solve_columns(0.3, rhs)
        for j in range(5):
            np.testing.assert_allclose(X[:, j], h._solve(0.3, rhs[:, j]), rtol=1e-14, atol=1e-15)
        for bad in (rhs[:, 0], rhs[1:]):
            with pytest.raises(ValueError, match="rows of right-hand sides"):
                h.solve_columns(0.3, bad)
        with pytest.raises(ValueError, match="must be positive"):
            h.solve_columns(0.0, rhs)
