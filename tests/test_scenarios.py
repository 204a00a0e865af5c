"""Counterexample study, recurrence classification, monotone equivalence."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforms import (
    CounterexampleSetup,
    Exhaustion,
    MonotoneFormSpec,
    SquareLatticeGenerator,
    WeightedGraph,
    assemble,
    build_exhaustion,
    build_generator,
    classify_recurrence,
    effective_killing,
    killing_difference_spec,
    make_path,
    monotone_equivalence_test,
    run_counterexample,
    single_vertex,
)
from graphforms.corpus import form_corpus, induced_active_graph, saturating_exhaustion
from graphforms.resolvent import assemble_stiffness
from graphforms.scenarios import NOT_REFUTED, REFUTED, EquivalenceReport


_GRID_VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _grid(dim):
    return [np.array(p) for p in itertools.product(_GRID_VALUES, repeat=dim)]


def _grid_witnesses(spec, tol):
    """First grid refutations of monotonicity and of nonnegative definiteness.

    Pairs are ordered g outer, f inner.  Every pair is screened at once with
    array values of q, padded by a slack far above their rounding error, and
    only the surviving candidates are confirmed with ``spec.q`` in that order.
    """
    grid = _grid(spec.dim)
    P = np.array(grid)
    B = P @ spec.matrix @ P.T  # B[i, j] ~ q(P_i, P_j)
    q = np.diag(B)
    slack = 1e-9 * (1.0 + np.abs(spec.matrix).sum())
    absP = np.abs(P)
    # Index [j, i] pairs g = P_j with f = P_i.
    dominated = np.all(absP[None, :, :] <= absP[:, None, :], axis=2)
    same_sign = np.all(P[None, :, :] * P[:, None, :] >= 0.0, axis=2)

    mono_witness = {}
    for j, i in np.argwhere(dominated & (q[None, :] > q[:, None] + (tol - slack))):
        f, g = grid[i], grid[j]
        qg = spec.q(g)
        if spec.q(f) > qg + tol:
            mono_witness = {"f": f.tolist(), "g": g.tolist(), "q_f": spec.q(f), "q_g": qg}
            break
    nonneg_witness = {}
    for j, i in np.argwhere(same_sign & (B.T < slack - tol)):
        f, g = grid[i], grid[j]
        val = spec.q(f, g)
        if val < -tol:
            nonneg_witness = {"f": f.tolist(), "g": g.tolist(), "q_fg": val}
            break
    return mono_witness, nonneg_witness


def loop_grid_witnesses(spec, tol):
    """Pair-by-pair grid search, the reference for the array-screened grid."""
    mono_witness = {}
    nonneg_witness = {}
    grid = _grid(spec.dim)
    for g in grid:
        qg = spec.q(g)
        for f in grid:
            if not mono_witness and np.all(np.abs(f) <= np.abs(g)):
                if spec.q(f) > qg + tol:
                    mono_witness = {"f": f.tolist(), "g": g.tolist(), "q_f": spec.q(f), "q_g": qg}
            if not nonneg_witness and np.all(f * g >= 0.0):
                val = spec.q(f, g)
                if val < -tol:
                    nonneg_witness = {"f": f.tolist(), "g": g.tolist(), "q_fg": val}
        if mono_witness and nonneg_witness:
            break
    return mono_witness, nonneg_witness


def random_spec(rng, dim):
    """Nonnegative symmetric spec: diagonal, coupled, or coupled at the tolerance scale."""
    kind = rng.integers(3)
    if kind == 0:
        return MonotoneFormSpec(np.diag(rng.uniform(0.0, 2.0, dim)))
    L = rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.6)
    A = L @ L.T
    if kind == 2:
        A = np.diag(np.diag(A) + 1.0) + 1e-10 * rng.uniform(-2.0, 2.0) * (A - np.diag(np.diag(A)))
    return MonotoneFormSpec(A)


def search_equivalence_test(spec, samples=500, seed=42, tol=1e-10):
    """Refutation search, the oracle for the coefficient rule.

    The grid {-1, -0.5, 0, 0.5, 1}^n is screened in dimension <= 3, then
    seeded random pairs are tried; a refutation needs a float margin above tol.
    """
    rng = np.random.default_rng(seed)
    mono_witness, nonneg_witness = _grid_witnesses(spec, tol) if spec.dim <= 3 else ({}, {})

    for _ in range(samples):
        if mono_witness and nonneg_witness:
            break
        g = rng.uniform(-1.0, 1.0, size=spec.dim)
        shrink = rng.uniform(0.0, 1.0, size=spec.dim)
        signs = rng.choice([-1.0, 1.0], size=spec.dim)
        f = signs * shrink * np.abs(g)
        if not mono_witness and spec.q(f) > spec.q(g) + tol:
            mono_witness = {
                "f": f.tolist(), "g": g.tolist(), "q_f": spec.q(f), "q_g": spec.q(g),
            }
        sigma = rng.choice([-1.0, 1.0], size=spec.dim)
        u = sigma * np.abs(rng.uniform(0, 1, size=spec.dim))
        v = sigma * np.abs(rng.uniform(0, 1, size=spec.dim))
        u[rng.random(spec.dim) < 0.3] = 0.0
        v[rng.random(spec.dim) < 0.3] = 0.0
        if not nonneg_witness:
            val = spec.q(u, v)
            if val < -tol:
                nonneg_witness = {"f": u.tolist(), "g": v.tolist(), "q_fg": val}

    monotone = REFUTED if mono_witness else NOT_REFUTED
    nonneg = REFUTED if nonneg_witness else NOT_REFUTED
    return EquivalenceReport(
        monotone=monotone,
        nonneg_definite=nonneg,
        agree=monotone == nonneg,
        monotone_witness=mono_witness,
        nonneg_witness=nonneg_witness,
    )


class TestCounterexample:
    @pytest.mark.parametrize("n", [5, 51, 201])
    def test_contradiction_reproduced(self, n):
        rep = run_counterexample(CounterexampleSetup(n=n))
        assert rep.silverstein_ext1
        assert rep.silverstein_ext2
        assert abs(rep.ext1_at_one) <= 1e-12
        assert abs(rep.gap - 1.0) <= 1e-9
        assert rep.contradiction_reproduced
        assert not rep.defects

    def test_constant_outside_base_domain(self):
        setup = CounterexampleSetup(n=9)
        _, base, _, _ = setup.build()
        assert math.isinf(base.evaluate(np.ones(9)))

    def test_base_agrees_with_extensions_on_domain(self):
        setup = CounterexampleSetup(n=21)
        _, base, ext1, ext2 = setup.build()
        rng = np.random.default_rng(0)
        f = rng.uniform(-1, 1, 21)
        f[0] = f[-1] = 0.0
        assert ext1.evaluate(f) == pytest.approx(base.evaluate(f), rel=1e-12)
        assert ext2.evaluate(f) == pytest.approx(base.evaluate(f), rel=1e-12)

    def test_even_or_small_grid_rejected(self):
        with pytest.raises(ValueError):
            CounterexampleSetup(n=10)
        with pytest.raises(ValueError):
            CounterexampleSetup(n=3)

    def test_summary_mentions_contradiction(self):
        rep = run_counterexample(CounterexampleSetup(n=5))
        assert "CONTRADICTION_REPRODUCED" in rep.summary()


class TestClassifyRecurrence:
    def test_free_connected_graph(self):
        g = make_path(6, 1.0)
        rep = classify_recurrence(assemble(g), saturating_exhaustion(g))
        assert rep["main_recurrent"]
        assert rep["reflected_recurrent"]
        assert not rep["base_kernel_trivial"]  # constants lie in the kernel

    def test_killing_breaks_recurrence(self):
        q, ex = form_corpus(44, 1, n_max=12)[0]
        rep = classify_recurrence(q, ex)
        ceff_total = float(
            np.sum(effective_killing(q.graph, q.active, q.killing_extra, q.couplings))
        )
        assert rep["reflected_value_at_1"] == pytest.approx(ceff_total, rel=1e-10, abs=1e-12)
        assert rep["reflected_recurrent"] == (ceff_total == 0.0)

    def test_tiny_killing_is_not_recurrent(self):
        # The reflected value at 1 is the total effective killing, 1e-12 > 0 here.
        q = assemble(make_path(5, 1.0), extra_killing={"v0": 1e-12})
        rep = classify_recurrence(q, saturating_exhaustion(q.graph))
        assert rep["reflected_value_at_1"] > 0.0
        assert rep["main_recurrent"] and not rep["reflected_recurrent"]
        assert rep["base_kernel_trivial"]

    def test_flags_are_exact_zeros_on_the_corpus(self):
        for seed in range(2):
            for q, ex in form_corpus(seed, 30, n_max=12):
                rep = classify_recurrence(q, ex)
                ceff = effective_killing(q.graph, q.active, q.killing_extra, q.couplings)
                assert rep["reflected_recurrent"] == (rep["reflected_value_at_1"] == 0.0)
                assert rep["reflected_recurrent"] == (not (ceff[q.active] > 0.0).any())
                assert rep["main_recurrent"]

    def test_single_vertex_transient(self):
        q = assemble(single_vertex(2.0, 3.0))
        rep = classify_recurrence(q, Exhaustion.full(q.graph))
        assert rep["base_kernel_trivial"]  # L = 1.5 > 0
        assert not rep["reflected_recurrent"]

    def test_counterexample_midpoint_killing_persists(self):
        setup = CounterexampleSetup(n=21)
        _, _, _, ext2 = setup.build()
        rep = classify_recurrence(ext2, saturating_exhaustion(ext2.graph))
        assert rep["main_recurrent"] and not rep["reflected_recurrent"]


def dense_smallest_eigenvalue(q):
    """Smallest eigenvalue of M^{-1/2} K M^{-1/2} by dense eigvalsh, and the 1-norm."""
    gen = build_generator(q)
    scale = 1.0 / np.sqrt(gen.mass)
    sym = gen.stiffness.toarray() * scale[:, None] * scale[None, :]
    return float(np.linalg.eigvalsh(sym)[0]), float(np.abs(sym).sum(axis=0).max())


def two_paths(killing_on_second=0.0):
    """Paths a0-a1-a2 (killing 1 at a0) and b0-b1-b2-b3 (killing at b3), no edge between."""
    ids = ["a0", "a1", "a2", "b0", "b1", "b2", "b3"]
    c = [1.0, 0, 0, 0, 0, 0, killing_on_second]
    edges = [("a0", "a1", 1.0), ("a1", "a2", 0.5), ("b0", "b1", 2.0), ("b1", "b2", 1.0),
             ("b2", "b3", 0.25)]
    return WeightedGraph(ids, [1.0, 2.0, 0.5, 1.0, 1.0, 3.0, 1.0], c, edges)


def lattice_form(radius, boundary=()):
    ex = build_exhaustion(SquareLatticeGenerator(), "0,0", radius - 1, 1)
    return assemble(ex.graph, boundary=boundary), ex


@functools.cache
def oracle_cases():
    """(name, form, exhaustion): every way the kernel can gain or lose killing."""
    cases = []
    for k, (q, ex) in enumerate(form_corpus(71, 24, n_max=60)):
        cases.append((f"corpus-{k}", q, ex))
        # No edges into the boundary: a component is killed only through c.
        cut = assemble(induced_active_graph(q.graph, q.active),
                       boundary=[q.graph.ids[i] for i in np.flatnonzero(~q.active)])
        cases.append((f"corpus-cut-{k}", cut, ex))
    rim = [f"{i},{25 - abs(i)}" for i in range(-25, 26)] + [f"{i},{abs(i) - 25}" for i in range(-24, 25)]
    for radius, boundary in [(31, ()), (31, ["31,0"]), (25, rim), (12, ["0,0"])]:
        q, ex = lattice_form(radius, boundary)
        cases.append((f"lattice-{radius}-{len(boundary)}", q, ex))
    g = two_paths()
    cases.append(("unkilled-component", assemble(g), saturating_exhaustion(g)))
    cases.append(("both-killed", assemble(two_paths(0.5)), saturating_exhaustion(g)))
    # Killing that only an edge into the boundary, or only a coupling, gives.
    cases.append(("edge-into-boundary", assemble(g, boundary=["b3"]), saturating_exhaustion(g)))
    gz = WeightedGraph(g.ids + ["z"], list(g.m) + [1.0], list(g.c) + [0.0],
                       [(g.ids[u], g.ids[v], b) for u, v, b in zip(g.edge_u, g.edge_v, g.edge_b)])
    cases.append(("coupling-only-killing",
                  assemble(gz, boundary=["z"], couplings=[("b1", "z", 0.7), ("a2", "z", 0.1)]),
                  saturating_exhaustion(gz)))
    # A weight-0 coupling must not join the unkilled path to the killed one.
    cases.append(("zero-coupling", assemble(g, couplings=[("a2", "b0", 0.0)]),
                  saturating_exhaustion(g)))
    cases.append(("positive-coupling", assemble(g, couplings=[("a2", "b0", 0.5)]),
                  saturating_exhaustion(g)))
    cases.append(("extra-killing", assemble(g, extra_killing={"b2": 0.4}),
                  saturating_exhaustion(g)))
    # Active dimensions 1 and 2.
    one = single_vertex(2.0, 3.0)
    cases.append(("dim-1", assemble(one), Exhaustion.full(one)))
    cases.append(("dim-1-free", assemble(single_vertex(2.0, 0.0)), Exhaustion.full(one)))
    p3 = make_path(3, 0.5)
    cases.append(("dim-2", assemble(p3, boundary=["v2"]), saturating_exhaustion(p3)))
    cases.append(("dim-2-killed", assemble(p3, boundary=["v0"], extra_killing={"v1": 0.2}),
                  saturating_exhaustion(p3)))
    p2 = make_path(2, 1.0)
    cases.append(("dim-2-free", assemble(p2), saturating_exhaustion(p2)))
    return cases


def oracle_case(name):
    return next((q, ex) for n, q, ex in oracle_cases() if n == name)


class TestClassifyOracle:
    """Component verdict and sparse eigenvalue against dense eigvalsh (n <= 1985)."""

    @pytest.mark.parametrize("name", [name for name, _, _ in oracle_cases()])
    def test_matches_dense_eigvalsh(self, name):
        q, ex = oracle_case(name)
        rep = classify_recurrence(q, ex)
        lam, norm = dense_smallest_eigenvalue(q)
        gate = 1e-10 * max(1.0, norm)
        assert rep["kernel_certified"] is True
        assert rep["base_kernel_trivial"] == (lam > gate)
        assert abs(rep["smallest_eigenvalue"] - lam) <= gate
        if not rep["base_kernel_trivial"]:
            assert rep["smallest_eigenvalue"] == 0.0

    def test_cases_cover_both_verdicts(self):
        verdicts = [classify_recurrence(q, ex)["base_kernel_trivial"]
                    for _, q, ex in oracle_cases()]
        assert 10 <= sum(verdicts) <= len(verdicts) - 10

    @pytest.mark.parametrize(
        "name,trivial",
        [("unkilled-component", False), ("both-killed", True), ("edge-into-boundary", True),
         ("coupling-only-killing", True),
         ("zero-coupling", False), ("positive-coupling", True), ("extra-killing", True),
         ("dim-1", True), ("dim-1-free", False), ("dim-2", True), ("dim-2-free", False),
         ("lattice-31-0", False), ("lattice-31-1", True), ("lattice-12-1", True)],
    )
    def test_expected_verdicts(self, name, trivial):
        assert classify_recurrence(*oracle_case(name))["base_kernel_trivial"] is trivial

    def test_killing_below_rounding_level(self):
        # K's diagonal absorbs the killing, so the stored matrix is the singular Laplacian.
        g = make_path(50, 1.0)
        q = assemble(g, extra_killing={"v0": 1e-30})
        rep = classify_recurrence(q, saturating_exhaustion(g))
        lam, norm = dense_smallest_eigenvalue(q)
        assert rep["base_kernel_trivial"] is True
        assert rep["smallest_eigenvalue"] == 0.0
        assert abs(lam) <= 1e-10 * norm

    @pytest.mark.parametrize("n", [1, 3])
    def test_small_positive_eigenvalue_is_a_trivial_kernel(self, n):
        # The dense route called the kernel nontrivial whenever lambda <= 1e-10.
        g = make_path(n, 1.0) if n > 1 else single_vertex(1.0, 0.0)
        q = assemble(g, extra_killing={g.ids[0]: 3e-11})
        rep = classify_recurrence(q, Exhaustion.full(g))
        lam, _ = dense_smallest_eigenvalue(q)
        assert 0.0 < lam <= 1e-10
        assert rep["base_kernel_trivial"] is True
        assert rep["smallest_eigenvalue"] == pytest.approx(lam, rel=1e-6)

    def test_no_dense_linear_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        for name in ("eigvalsh", "eigh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(scipy.sparse.csc_matrix, "toarray", refuse)
        monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", refuse)
        for name in ("lattice-12-1", "lattice-31-0", "corpus-3", "zero-coupling",
                     "coupling-only-killing", "dim-1", "dim-2", "dim-2-free"):
            classify_recurrence(*oracle_case(name))

    def test_same_bits_every_run(self):
        q, ex = lattice_form(12, ["0,0"])
        first = classify_recurrence(q, ex)["smallest_eigenvalue"]
        assert first > 0.0
        assert all(classify_recurrence(q, ex)["smallest_eigenvalue"].hex() == first.hex()
                   for _ in range(3))

    @pytest.mark.parametrize(
        "graph",
        [WeightedGraph(["a", "b"], [1.0, 1.0], [-0.5, 1.0], [("a", "b", 1.0)]),
         WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 1.0], [("a", "b", -1.0)]),
         WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 1.0], [("a", "b", math.inf)]),
         WeightedGraph(["a", "b"], [0.0, 1.0], [0.0, 1.0], [("a", "b", 1.0)])],
    )
    def test_invalid_weights_rejected(self, graph):
        with pytest.raises(ValueError, match="nonnegative weights"):
            classify_recurrence(assemble(graph), Exhaustion.full(graph))


def exact_q(A, f, g):
    """f A g in rational arithmetic."""
    n = len(f)
    return sum(Fraction(f[k]) * Fraction(A[k, l]) * Fraction(g[l]) for k in range(n) for l in range(n))


def holds_no_negative_zero(witness):
    values = [*witness.get("f", []), *witness.get("g", [])]
    values += [v for key, v in witness.items() if key.startswith("q_")]
    return not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values)


_DIAGONALS = st.floats(0.0, 2.0) | st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e-11])


@st.composite
def spec_matrices(draw):
    """Valid spec matrices of dims 1-6, exactly symmetric except for "skew".

    diagonal: A_ii from [0, 2], 0.0, -0.0, 1e-300, 1e300 and -1e-11;
    tiny: off-diagonals of 0.0, -0.0 and +-1e-300 as well; coupled: L L^T
    plus a diagonal; faint: couplings at the 1e-10 scale; skew: A_ij = -A_ji
    = t with |t| <= 2e-13, within the spec's symmetry slack.  The first three
    keep A_ii = 1e300, which the spec's nonnegativity gate allows for by
    scaling with ||A||.
    """
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["diagonal", "coupled", "faint", "tiny", "skew"]))
    d = np.array(draw(st.lists(_DIAGONALS, min_size=n, max_size=n)))
    u = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    u = u.reshape(n, n)
    if kind == "diagonal":
        A = np.diag(d)
    elif kind == "tiny":
        off = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]), min_size=n * n, max_size=n * n))
        A = np.diag(d) + np.triu(np.reshape(off, (n, n)), 1)
    elif kind == "coupled":
        A = u @ u.T + np.diag(d)
    elif kind == "faint":
        A = np.diag(1.0 + np.minimum(d, 2.0)) + 1e-10 * u
    else:
        t = np.triu(1e-13 * u, 1)
        return np.diag(np.clip(d, 0.0, 2.0)) + t - t.T
    return np.triu(A) + np.triu(A, 1).T


class TestMonotoneEquivalence:
    def test_positive_off_diagonal_refuted_deterministically(self):
        spec = MonotoneFormSpec(np.array([[1.0, 0.5], [0.5, 1.0]]))
        rep = monotone_equivalence_test(spec)
        assert rep.monotone == REFUTED
        assert rep.monotone_witness  # explicit pair recorded
        f = np.array(rep.monotone_witness["f"])
        g = np.array(rep.monotone_witness["g"])
        assert np.all(np.abs(f) <= np.abs(g))
        assert spec.q(f) > spec.q(g)
        # both verdicts agree, as the lattice-domain equivalence demands
        assert rep.agree

    def test_diagonal_not_refuted(self):
        spec = MonotoneFormSpec(np.diag([0.3, 0.0, 2.0]))
        rep = monotone_equivalence_test(spec)
        assert rep.monotone == NOT_REFUTED
        assert rep.nonneg_definite == NOT_REFUTED
        assert rep.agree

    def test_killing_difference_forms_not_refuted(self):
        for k, (q, _) in enumerate(form_corpus(45, 6, n_max=25)):
            spec = killing_difference_spec(q, seed=k)
            rep = monotone_equivalence_test(spec)
            assert rep.monotone == NOT_REFUTED
            assert rep.nonneg_definite == NOT_REFUTED

    def test_edge_form_verdicts_agree(self):
        # a form with an off-diagonal edge term is not monotone, and its
        # refutation must show up on both branches simultaneously
        q = assemble(make_path(2, 1.0), extra_killing={"v0": 1.0, "v1": 1.0})
        K = assemble_stiffness(q).toarray()
        spec = MonotoneFormSpec(K)
        rep = monotone_equivalence_test(spec)
        assert rep.monotone == REFUTED
        assert rep.nonneg_definite == REFUTED
        assert rep.agree

    @settings(max_examples=150)
    @given(spec_matrices())
    def test_rule_matches_the_search(self, A):
        spec = MonotoneFormSpec(A)
        rep = monotone_equivalence_test(spec).to_dict()
        oracle = search_equivalence_test(spec, samples=100).to_dict()
        for verdict in ("monotone", "nonneg_definite"):
            assert oracle[verdict] == NOT_REFUTED or rep[verdict] == REFUTED
        mono, nonneg = rep["monotone_witness"], rep["nonneg_witness"]
        assert bool(mono) == (rep["monotone"] == REFUTED)
        assert bool(nonneg) == (rep["nonneg_definite"] == REFUTED)
        if mono:
            f, g = mono["f"], mono["g"]
            assert all(abs(x) <= abs(y) for x, y in zip(f, g))
            assert exact_q(A, f, f) > exact_q(A, g, g)
        if nonneg:
            f, g = nonneg["f"], nonneg["g"]
            assert all(x * y >= 0.0 for x, y in zip(f, g))
            assert exact_q(A, f, g) == Fraction(nonneg["q_fg"]) < 0
        assert holds_no_negative_zero(mono) and holds_no_negative_zero(nonneg)
        if np.array_equal(A, A.T):
            assert rep["agree"]

    def test_grid_screen_matches_pair_by_pair_search(self):
        # The oracle's array-screened grid finds the pair-by-pair loop's
        # witnesses, and the coefficient rule refutes whatever the search refutes.
        rng = np.random.default_rng(20)
        refuted = {REFUTED: 0, NOT_REFUTED: 0}
        for k in range(40):
            spec = random_spec(rng, int(rng.integers(1, 4)))
            assert _grid_witnesses(spec, 1e-10) == loop_grid_witnesses(spec, 1e-10)
            oracle = search_equivalence_test(spec, samples=30, seed=k)
            rep = monotone_equivalence_test(spec)
            assert oracle.monotone == NOT_REFUTED or rep.monotone == REFUTED
            assert oracle.nonneg_definite == NOT_REFUTED or rep.nonneg_definite == REFUTED
            refuted[oracle.monotone] += 1
        assert min(refuted.values()) >= 8

    def test_diagonal_report_matches_the_search(self):
        # A diagonal A >= 0 gets the report the search gives.
        rng = np.random.default_rng(21)
        for k in range(60):
            dim = k % 6 + 1
            d = rng.uniform(0.0, 2.0, dim) * (rng.random(dim) < 0.7)
            d[rng.random(dim) < 0.2] = [0.0, -0.0, 1e-300, 1e300][k % 4]
            spec = MonotoneFormSpec(np.diag(d))
            got = monotone_equivalence_test(spec).to_dict()
            assert got == search_equivalence_test(spec, samples=200, seed=k).to_dict()
            assert got["monotone"] == got["nonneg_definite"] == NOT_REFUTED

    def test_first_witness_in_row_major_order(self):
        # (0, 2) precedes the negative A_11 in row-major order
        A = np.array([[2.0, 0.0, 0.5], [0.0, -1e-11, 0.0], [0.5, 0.0, 1.0]])
        rep = monotone_equivalence_test(MonotoneFormSpec(A))
        assert rep.monotone_witness == {
            "f": [1.0, 0.0, 1.0], "g": [1.0, 0.0, -1.0], "q_f": 4.0, "q_g": 2.0,
        }
        assert rep.nonneg_witness == {"f": [1.0, 0.0, 0.0], "g": [0.0, 0.0, -1.0], "q_fg": -0.5}

    def test_refutations_below_the_old_tolerance(self):
        rep = monotone_equivalence_test(MonotoneFormSpec(np.diag([1.0, -1e-11])))
        assert rep.monotone_witness == {"f": [0.0, 0.0], "g": [0.0, 1.0], "q_f": 0.0, "q_g": -1e-11}
        assert rep.nonneg_witness == {"f": [0.0, 1.0], "g": [0.0, 1.0], "q_fg": -1e-11}
        rep = monotone_equivalence_test(MonotoneFormSpec(np.array([[1.0, 1e-300], [1e-300, 1.0]])))
        assert rep.monotone == rep.nonneg_definite == REFUTED
        # q(f) = 2 + 2e-300 and q(g) = 2 - 2e-300 round to the same float
        assert rep.monotone_witness["q_f"] == rep.monotone_witness["q_g"] == 2.0
        assert rep.nonneg_witness == {"f": [1.0, 0.0], "g": [0.0, -1.0], "q_fg": -1e-300}

    def test_antisymmetric_slack_is_the_only_disagreement(self):
        A = np.array([[1.0, 1e-13], [-1e-13, 1.0]])
        rep = monotone_equivalence_test(MonotoneFormSpec(A))
        assert (rep.monotone, rep.nonneg_definite, rep.agree) == (NOT_REFUTED, REFUTED, False)

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("monotone_equivalence_test drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for A in (np.diag([0.0, 1.0, 2.0]), np.array([[1.0, 0.5], [0.5, 1.0]])):
            spec = MonotoneFormSpec(A)
            assert monotone_equivalence_test(spec).to_dict() == monotone_equivalence_test(spec).to_dict()

    @settings(max_examples=150)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n),
        st.lists(st.floats(0.0, 2.0) | st.floats(0.0, 1e300) | st.sampled_from([1e300]),
                 min_size=n, max_size=n))))
    def test_gate_accepts_gram_plus_diagonal(self, drawn):
        # L L^T + diag(d) >= 0 passes whatever the scale, as 1 1^T + diag(0, 0, 1e300 - 1) does.
        u, d = drawn
        L = np.reshape(u, (len(d), len(d)))
        A = L @ L.T + np.diag(d)
        MonotoneFormSpec(np.triu(A) + np.triu(A, 1).T)

    def test_gate_scales_with_the_norm(self):
        MonotoneFormSpec(np.ones((3, 3)) + np.diag([0.0, 0.0, 1e300 - 1.0]))
        MonotoneFormSpec(np.diag([1.0, -1e-11]))  # within the 1e-10 floor
        for A in ([[1.0, 2.0], [2.0, 1.0]], [[1e300, 2e300], [2e300, 1e300]]):
            with pytest.raises(ValueError, match="nonnegative"):
                MonotoneFormSpec(np.array(A))

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            MonotoneFormSpec(np.array([[1.0, 0.2], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            MonotoneFormSpec(np.array([[-1.0]]))
        rep = monotone_equivalence_test(MonotoneFormSpec(np.eye(7)))
        assert rep.monotone == rep.nonneg_definite == NOT_REFUTED
