"""Domination criteria, Silverstein extensions, maximality of the main part."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphforms import (
    CounterexampleSetup,
    FormPair,
    ResolventHandle,
    SquareLatticeGenerator,
    assemble,
    build_exhaustion,
    check_form_inequality_nonneg,
    check_order_ideal,
    check_resolvent_domination,
    check_silverstein,
    generator_ball,
    make_path,
    run_counterexample,
    truncate,
    truncated_coefficients,
    verify_maximality,
)
from graphforms.corpus import (
    domination_pair_corpus,
    induced_active_graph,
    random_connected_graph,
    random_function,
    saturating_exhaustion,
    zero_killing,
)
import graphforms.domination as dom
import graphforms.resolvent as resolvent
import graphforms.selftest as selftest
from graphforms.domination import _DEFAULT_ALPHAS, _max_inner, check_extension
from graphforms.graph import WeightedGraph
from graphforms.resolvent import assemble_stiffness
from test_resolvent import exact_solve, factored_alphas, factored_dims, rho


def dense_coefficient_check(pair, tol=1e-10):
    """Dense reference for the coefficient path: (worst, witness vertex ids or None)."""
    idx = np.flatnonzero(pair.lower.active)
    D = (
        assemble_stiffness(pair.lower).toarray()[np.ix_(idx, idx)]
        - assemble_stiffness(pair.upper).toarray()[np.ix_(idx, idx)]
    )
    i, j = np.unravel_index(np.argmin(D), D.shape)
    worst = float(D[i, j])
    ids = pair.lower.graph.ids
    return worst, None if worst >= -tol else (ids[idx[i]], ids[idx[j]])


def sampled_inequality(pair, samples=200, seed=42, tol=1e-10):
    """Sampling reference for the cone inequality: (refuted, least gap).

    The least Q(f, g) - Q~(f, g) over seeded uniform nonnegative f, g on the
    lower mask; it can refute the inequality but never certify it.
    """
    rng = np.random.default_rng(seed)
    idx = np.flatnonzero(pair.lower.active)
    worst = math.inf
    for _ in range(samples):
        f = np.zeros(pair.lower.n)
        g = np.zeros(pair.lower.n)
        f[idx] = rng.uniform(0.0, 1.0, size=len(idx))
        g[idx] = rng.uniform(0.0, 1.0, size=len(idx))
        worst = min(worst, pair.lower.bilinear(f, g) - pair.upper.bilinear(f, g))
    return worst < -tol, worst


def sampled_extension(pair, samples=50, seed=42, rel_tol=1e-10):
    """Sampling reference for agreement on the lower domain: (ok, worst).

    Compares the energies of seeded random functions on the lower mask.  A NaN
    energy (a non-finite weight) slips through max(), so it misreads that case.
    """
    rng = np.random.default_rng(seed)
    idx = np.flatnonzero(pair.lower.active)
    worst = 0.0
    for _ in range(samples):
        f = np.zeros(pair.lower.n)
        f[idx] = rng.uniform(-2.0, 2.0, size=len(idx))
        lo = pair.lower.evaluate(f)
        up = pair.upper.evaluate(f)
        if math.isinf(up):
            return False, math.inf
        worst = max(worst, abs(lo - up) / (1.0 + abs(lo)))
    return worst <= rel_tol, worst


def _resolvent_full(handle, alpha):
    """Resolvent matrix embedded by zero on inactive rows and columns."""
    n = handle.form.n
    G = np.zeros((n, n))
    idx = handle.generator.active_index
    G[np.ix_(idx, idx)] = handle.resolvent_matrix(alpha)
    return G


def dense_differences(pair, alphas=_DEFAULT_ALPHAS):
    """Entrywise oracle for criterion (i): |G| - G~ as n x n arrays, one per alpha."""
    h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)
    return [np.abs(_resolvent_full(h_low, a)) - _resolvent_full(h_up, a) for a in alphas]


def rank(pair) -> int:
    """r, the number of nonzero rows of the pair's C (check_resolvent_domination)."""
    key, _, _, rows = pair._difference
    return len(np.unique(key // len(rows)))


def assert_matches_oracle(pair, alphas=_DEFAULT_ALPHAS, tol=1e-9):
    """A certified criterion (i) against the n x n comparison: the same verdict, and the
    violation that the route promises against the largest entry over the columns it
    covers.  That is the entry itself within 1e-12, except for a "box" pass of r > 1,
    which reports a bound between it and tol, a "box" failure of r > 1 above
    DENSE_BUDGET, which reports an entry above tol, and "ideal", which reports a
    positive lower bound on it."""
    ok, worst = check_resolvent_domination(pair, alphas=alphas, tol=tol)
    diffs = dense_differences(pair, alphas)
    a, b = pair.lower.active, pair.upper.active
    assert worst["certified"], worst
    assert ok == (max(D.max() for D in diffs) <= tol), worst
    # "ideal" reads the columns of G at the lower vertices the upper set lacks.
    cols = a & ~b if worst["kind"] == "ideal" else a
    top, v = max(D[:, cols].max() for D in diffs), worst["violation"]
    within = pair.upper.generator.dim * pair.lower.generator.dim <= dom.DENSE_BUDGET
    if worst["kind"] == "ideal":
        assert 0.0 < v <= top + 1e-12, (worst, top)
    elif worst["kind"] == "box" and rank(pair) > 1 and ok:
        assert top - 1e-12 <= v <= tol, (worst, top)
    elif worst["kind"] == "box" and rank(pair) > 1 and not within:
        assert tol < v <= top + 1e-12, (worst, top)
    else:
        assert abs(v - top) <= 1e-12, (worst, top)
    return worst


def lattice_pair(radius, rim_boundary=False, killing=None):
    """Lattice ball forms: lower with a Dirichlet rim or none, upper free with extra
    killing (a weight for every vertex, or a dict)."""
    gen = SquareLatticeGenerator()
    g = truncate(gen, generator_ball(gen, "0,0", radius))
    rim = [v for v in g.ids if sum(abs(int(t)) for t in v.split(",")) == radius]
    if killing is not None and not isinstance(killing, dict):
        killing = {v: killing for v in g.ids}
    return FormPair(assemble(g, boundary=rim if rim_boundary else []),
                    assemble(g, extra_killing=killing))


def counterexample_pairs(n):
    _, base, ext1, ext2 = CounterexampleSetup(n=n).build()
    return [FormPair(base, ext1), FormPair(base, ext2), FormPair(ext1, base)]


def dirichlet_neumann_pair(n=3, h=0.5):
    g = make_path(n, h)
    lower = assemble(g, boundary=["v0", f"v{n-1}"])
    upper = assemble(g)
    return FormPair(lower=lower, upper=upper)


class TestResolventDomination:
    def test_identical_forms(self):
        q = assemble(make_path(4, 1.0))
        ok, worst = check_resolvent_domination(FormPair(lower=q, upper=q))
        assert ok
        assert worst["violation"] <= 1e-12

    def test_dirichlet_below_neumann(self):
        ok, _ = check_resolvent_domination(dirichlet_neumann_pair())
        assert ok

    def test_reversed_pair_fails_with_witness(self):
        pair = dirichlet_neumann_pair()
        ok, worst = check_resolvent_domination(FormPair(lower=pair.upper, upper=pair.lower))
        assert not ok
        assert worst["violation"] > 1e-9
        assert worst["alpha"] is not None

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(ValueError, match="vertex index space"):
            FormPair(lower=assemble(make_path(3, 1.0)), upper=assemble(make_path(4, 1.0)))
        renamed = WeightedGraph(["v0", "v2", "v1"], [1.0] * 3, [0.0] * 3, [])
        with pytest.raises(ValueError, match="vertex index space"):
            FormPair(lower=assemble(make_path(3, 1.0)), upper=assemble(renamed))
        FormPair(lower=assemble(make_path(3, 1.0)), upper=assemble(make_path(3, 1.0)))

    def test_one_graph_compares_no_ids(self):
        # Forms on one graph share its ids: a grid ball's pair never formats them.
        g = build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=3, plateau=1).graph
        FormPair(lower=assemble(g, boundary=["1,0"]), upper=assemble(g))
        assert "ids" not in vars(g)

    def test_probe_path_agrees_with_dense(self, monkeypatch):
        # Above the dense budget a pair of rank r >= |a| is probed; the verdicts
        # still match the oracle, but only the violation is a certificate.
        # The probes are the 13 basis vectors and the ones vector (probe_13), whose
        # value bounds that of every sign vector, here 16 seeded ones.
        import graphforms.domination as dom

        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        monkeypatch.setattr(dom, "DENSE_BUDGET", 0)
        killing = lattice_pair(2, killing=0.1)  # r = n = 13
        alphas, n = (0.5, 1.0, 10.0), killing.lower.n
        rng = np.random.default_rng(42)
        signs = [rng.choice([-1.0, 1.0], size=n) for _ in range(16)]

        def refuse(*args, **kwargs):
            raise AssertionError("the probe route drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for pair, verdict in ((FormPair(killing.upper, killing.lower), True), (killing, False)):
            ok, worst = check_resolvent_domination(pair, alphas=alphas)
            whole = max(D.max() for D in dense_differences(pair, alphas))
            assert ok == (whole <= 1e-9) == verdict
            assert worst["kind"].startswith("probe_") and not worst["certified"]
            assert 0 <= int(worst["kind"][len("probe_"):]) <= 13
            h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)

            def value(alpha, f):
                u = h_low.extend(h_low.apply(alpha, h_low.restrict(f)))
                w = h_up.extend(h_up.apply(alpha, h_up.restrict(np.abs(f))))
                return float((np.abs(u) - w).max())

            for alpha in alphas:
                ones = value(alpha, np.ones(n))
                assert worst["violation"] >= ones
                assert all(ones >= value(alpha, f) for f in signs), alpha

    @pytest.mark.parametrize("dense, multiply", [(0, 0), (-1, 0), (-1, -1)],
                             ids=["within", "multiply", "above"])
    def test_route_follows_rank_and_budget(self, monkeypatch, dense, multiply):
        # The route depends on r, on |b| |a| against DENSE_BUDGET and, for
        # 2 < r < |a| above it, on r |b| |a| against PRODUCT_BUDGET; not on n.
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        cases = [  # (pair, r, |b| |a|, route within DENSE_BUDGET, routes above it)
            (dirichlet_neumann_pair(n=6), 2, 6 * 4, "box", ("box", "box")),
            # r = 12 < |a|: box up to r |b| |a| multiplies, probes above
            (lattice_pair(3, rim_boundary=True), 12, 25 * 13, "box", ("box", None)),
            (lattice_pair(2, killing=0.1), 13, 13 * 13, "blocks", (None, None)),  # r = |a|
        ]
        for pair, r, size, within, above in cases:
            monkeypatch.setattr(dom, "DENSE_BUDGET", size + dense)
            monkeypatch.setattr(dom, "PRODUCT_BUDGET", r * size + multiply)
            kind = within if dense == 0 else above[multiply == -1]
            if kind is None:
                _, worst = check_resolvent_domination(pair, alphas=(0.5, 10.0))
                assert worst["kind"].startswith("probe_") and not worst["certified"]
            else:
                assert assert_matches_oracle(pair, alphas=(0.5, 10.0))["kind"] == kind
        monkeypatch.setattr(dom, "DENSE_BUDGET", cases[1][2] + dense)
        monkeypatch.setattr(dom, "PRODUCT_BUDGET", cases[1][1] * cases[1][2] + multiply)
        d = check_silverstein(cases[1][0]).to_dict()
        assert d["resolvent_certified"] is (multiply == 0)
        # The flag has its own key; resolvent_worst keeps its three keys.
        assert sorted(d["resolvent_worst"]) == ["alpha", "kind", "violation"]


class TestIdentityRoutes:
    """Criterion (i) through E G - G~ E = U V^T M_a against the n x n comparison."""

    def test_corpus_matches_dense_oracle(self):
        kinds = set()
        for seed in range(5):
            for pair in domination_pair_corpus(seed, 50):
                kinds.add(assert_matches_oracle(pair)["kind"])
        assert kinds >= {"ideal", "rank0", "box", "blocks"}

    @pytest.mark.parametrize("n", [51, 201, 255, 301])  # |b| |a| above DENSE_BUDGET from 301
    def test_counterexample_pairs_certified(self, monkeypatch, n):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        ext1, ext2, reversed_pair = counterexample_pairs(n)
        assert assert_matches_oracle(ext1)["kind"] == "box"
        assert assert_matches_oracle(ext2)["kind"] == "box"
        assert assert_matches_oracle(reversed_pair)["kind"] == "ideal"

    def test_rank2_box_below_the_budget(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        monkeypatch.setattr(dom, "DENSE_BUDGET", 0)
        pairs = counterexample_pairs(51)[:2] + [dirichlet_neumann_pair(n=7)]
        pairs += domination_pair_corpus(3, 30)
        ranks = [rank(p) if check_order_ideal(p) else None for p in pairs]
        kinds = [check_resolvent_domination(p, alphas=(1.0,))[1]["kind"] for p in pairs]
        assert ranks[:3] == [2] * 3 and ranks.count(2) >= 6
        for pair, r, kind in zip(pairs, ranks, kinds):
            if r == 2:
                assert kind == "box"
                assert_matches_oracle(pair)

    def test_lower_set_outside_the_upper_one(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        pair = dirichlet_neumann_pair()
        worst = assert_matches_oracle(FormPair(lower=pair.upper, upper=pair.lower))
        assert worst["kind"] == "ideal" and worst["violation"] > 1e-9
        # a \ b = {v2} is position 1 of a's coordinates, not position 0
        g = make_path(4, 1.0)
        pair = FormPair(assemble(g, boundary=["v0"]), assemble(g, boundary=["v2"]))
        assert assert_matches_oracle(pair)["kind"] == "ideal"

    def test_ideal_covers_every_vertex_the_upper_set_lacks(self, monkeypatch):
        # The lower bound m_j / (K_jj + alpha m_j) on G_jj is below tol at v0, for a
        # tiny m_0; at v3 it is not, and at the least alpha it is the violation.
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        g = make_path(4, 1.0)
        g = WeightedGraph(g.ids, [1e-12, 1.0, 1.0, 1.0], g.c, [("v0", "v1", 1.0),
                          ("v1", "v2", 1.0), ("v2", "v3", 1.0)])
        pair = FormPair(assemble(g), assemble(g, boundary=["v0", "v3"]))
        worst = assert_matches_oracle(pair)
        K = pair.lower.generator.stiffness.diagonal()
        assert worst == {"violation": 1.0 / (K[3] + 1e-3), "alpha": 1e-3, "kind": "ideal",
                         "certified": True}
        rep = check_silverstein(pair)
        assert not rep.resolvent_ok and not rep.defects

    def test_ideal_route_is_a_certified_failure(self):
        # A tiny measure at the vertex only the upper form masks keeps its column of G
        # below tol, but G_jj > 0 there while G~ vanishes: (i) fails, certified, as (ii)
        # does.  The violation is the lower bound m_j / (K_jj + alpha m_j) on G_jj, and
        # nothing is solved.
        g = make_path(3, 1.0)
        g = WeightedGraph(g.ids, [1e-12, 1.0, 1.0], g.c, [("v0", "v1", 1.0), ("v1", "v2", 1.0)])
        path = make_path(7, 1.0)
        m = np.ones(7)
        m[3] = 1e-12
        path = WeightedGraph(path.ids, m, path.c, zip(path.edge_u, path.edge_v, path.edge_b))
        for pair, boundary in ((FormPair(assemble(g), assemble(g, boundary=["v0"])), "v0"),
                               (FormPair(assemble(path), assemble(path, boundary=["v3"])), "v3")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ResolventHandle, "solve_columns", None)
                ok, worst = check_resolvent_domination(pair)
            assert not ok and worst["kind"] == "ideal" and worst["certified"]
            j = pair.lower.graph.index[boundary]
            column = max(D[:, j].max() for D in dense_differences(pair))
            K_jj = pair.lower.generator.stiffness.diagonal()[j]
            assert worst["alpha"] == 1e-3
            assert worst["violation"] == 1e-12 / (K_jj + 1e-3 * 1e-12)
            assert 0.0 < worst["violation"] <= column <= 1e-9
            rep = check_silverstein(pair)
            assert not rep.ideal_ok and not rep.resolvent_ok and not rep.defects
            assert rep.to_dict()["resolvent_certified"]

    def test_equal_stiffness_is_rank0(self):
        g = make_path(5, 1.0)
        for lower, upper in ((assemble(g), assemble(g)),
                             (assemble(g, boundary=["v0"]), assemble(g, boundary=["v0"]))):
            ok, worst = check_resolvent_domination(FormPair(lower, upper))
            assert ok and worst == {"violation": 0.0, "alpha": None, "kind": "rank0",
                                    "certified": True}
            assert assert_matches_oracle(FormPair(lower, upper))["kind"] == "rank0"

    def test_disconnected_upper_graph(self):
        # two components: G~ vanishes between them, and so does G
        ids = [f"v{i}" for i in range(6)]
        edges = [("v0", "v1", 1.0), ("v1", "v2", 0.5), ("v3", "v4", 2.0), ("v4", "v5", 1.0)]
        m, c = [1.0, 0.5, 2.0, 1.0, 1.5, 0.7], [0.0, 0.2, 0.0, 0.0, 0.0, 0.1]
        g = WeightedGraph(ids, m, c, edges)
        for boundary in (["v0"], ["v2", "v3"], ["v0", "v1", "v2"]):
            assert_matches_oracle(FormPair(assemble(g, boundary=boundary), assemble(g)))
        worst = assert_matches_oracle(FormPair(assemble(g), assemble(g, extra_killing={"v4": 1.0})))
        assert worst["kind"] == "box" and worst["violation"] > 1e-9  # r = 1

    def test_violating_lattice_pair(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        pair = lattice_pair(3, killing=0.1)
        worst = assert_matches_oracle(pair)
        assert worst["kind"] == "blocks" and worst["violation"] > 1e-9
        # one killed vertex beats the Dirichlet rim on the diagonal there
        worst = assert_matches_oracle(lattice_pair(4, rim_boundary=True, killing={"0,0": 1.0}))
        assert worst["kind"] == "box" and worst["violation"] > 1e-9  # r = 17 < |a| = 25


@st.composite
def extension_pairs(draw):
    """Random Silverstein extension pairs: the upper form's Dirichlet vertices plus
    extra ones for the lower form, a coupling from the lower domain into the extra
    vertices in both forms, and killing on the extra vertices that only the upper
    form keeps, with a coupling among them when there are two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, 4, 12)
    order = [g.ids[i] for i in rng.permutation(g.n)]
    n_up = draw(st.integers(0, g.n - 2))
    n_extra = draw(st.integers(1, g.n - 1 - n_up))
    upper_bd, extra = order[:n_up], order[n_up:n_up + n_extra]
    a = order[n_up + n_extra:]
    killing = {v: float(rng.uniform(0.0, 1.0)) for v in a}
    cps = [(a[0], extra[0], draw(st.floats(0.0, 2.0)))] if draw(st.booleans()) else []
    moved = dict(killing, **{v: float(rng.uniform(0.0, 2.0)) for v in extra})
    cps_up = cps + [(extra[0], extra[1], 1.0)] if len(extra) > 1 else cps
    lower = assemble(g, boundary=upper_bd + extra, extra_killing=killing, couplings=cps)
    return FormPair(lower, assemble(g, boundary=upper_bd, extra_killing=moved, couplings=cps_up))


class TestOneFactorRoute:
    """Extension pairs take V = -U_a U_S^{-1} from the upper factor alone."""

    @staticmethod
    def two_factor(pair, **kw):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dom, "_schur_route", lambda *args: lambda alpha, U: (None, math.inf))
            return check_resolvent_domination(pair, **kw)

    @settings(max_examples=40)
    @given(extension_pairs())
    def test_matches_two_factor_route_and_oracle(self, pair):
        assert check_extension(pair)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolvent, "SMALL_DIM", 0)
            dims = factored_dims(mp)
            _, worst = check_resolvent_domination(pair)
            if worst["kind"] == "box":
                # one upper factor per alpha, but a one-column U takes the series where
                # rho <= 1/2
                alphas = (factored_alphas(ResolventHandle(pair.upper), _DEFAULT_ALPHAS)
                          if rank(pair) == 1 else _DEFAULT_ALPHAS)
                assert dims == [pair.upper.generator.dim] * len(alphas)
            assert assert_matches_oracle(pair) == worst
            ok2, worst2 = self.two_factor(pair)
        assert ok2 and worst2["kind"] == worst["kind"] and worst2["certified"]
        assert abs(worst["violation"] - worst2["violation"]) <= 1e-12

    @pytest.mark.parametrize("pair", [lattice_pair(4, rim_boundary=True), dirichlet_neumann_pair(7),
                                      *counterexample_pairs(51)[:2]],
                             ids=["lattice-rim", "path", "ext1", "ext2"])
    def test_bound_covers_the_difference(self, pair):
        # delta bounds the one-factor entries' error; the two-factor ones are nearer still.
        h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)
        K = h_up.generator.stiffness
        pos = np.flatnonzero(pair.lower.active[pair.upper.active])
        # S: the upper vertices outside a that couple to a; C_S^T = K~[a, S]
        S = np.setdiff1d(np.flatnonzero(np.diff(K[:, pos].tocsr().indptr)), pos)
        m_a = h_low.generator.mass
        for alpha in _DEFAULT_ALPHAS:
            rhs = np.zeros((h_up.dim, len(S)))
            rhs[S, np.arange(len(S))] = 1.0
            U = h_up.solve_columns(alpha, rhs)
            V, delta = dom._schur_route(h_up.generator, S, pos)(alpha, U)
            V2 = h_low.solve_columns(alpha, K[S][:, pos].T.toarray())
            P = U @ (V * m_a[:, None]).T
            assert abs(P.max() - 1e-9) > delta  # this alpha counts
            assert np.abs(P - U @ (V2 * m_a[:, None]).T).max() <= delta

    def test_failed_cholesky_falls_back(self):
        pair = lattice_pair(3, rim_boundary=True)
        h_up = ResolventHandle(pair.upper)
        S = np.array([0, 1])
        U = -h_up.solve_columns(1.0, np.eye(h_up.dim)[:, S])  # U_S negative definite
        route = dom._schur_route(h_up.generator, S, np.arange(2, h_up.dim))
        assert route(1.0, U) == (None, math.inf)

    def test_fallback_through_the_lower_factor(self, monkeypatch):
        # A delta above every margin sends each alpha through A's own factor, which
        # gives exactly the two-factor report.
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        pair = lattice_pair(4, rim_boundary=True)
        dims = factored_dims(monkeypatch)
        one = check_resolvent_domination(pair)
        assert one[1]["kind"] == "box" and dims == [41] * 13
        route = dom._schur_route
        monkeypatch.setattr(dom, "_schur_route",
                            lambda *args: lambda alpha, U: (route(*args)(alpha, U)[0], math.inf))
        dims.clear()
        forced = check_resolvent_domination(pair)
        assert sorted(dims) == [25] * 13 + [41] * 13
        assert forced == self.two_factor(pair)
        assert forced[0] == one[0] and abs(forced[1]["violation"] - one[1]["violation"]) <= 1e-12

    def test_factorizations_per_pair(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        calls = []
        route = dom._schur_route
        monkeypatch.setattr(dom, "_schur_route",
                            lambda *args: lambda alpha, U: calls.append(1) or route(*args)(alpha, U))
        dims = factored_dims(monkeypatch)
        # extension: one factor per alpha, of the upper form
        _, worst = check_resolvent_domination(lattice_pair(4, rim_boundary=True))
        assert worst["kind"] == "box" and dims == [41] * 13 and len(calls) == 13
        # not an extension (the lower form kills at the centre): both forms, no Schur step
        dims.clear()
        calls.clear()
        _, worst = check_resolvent_domination(
            lattice_pair(4, rim_boundary=True, killing={"0,0": 1.0}))
        assert worst["kind"] == "box" and sorted(dims) == [25] * 13 + [41] * 13
        assert not calls
        # both counterexample pairs are extensions: the base form (dim 49) is never factored
        dims.clear()
        assert run_counterexample(CounterexampleSetup(n=51)).contradiction_reproduced
        assert dims == [51] * 26


def rank1_path_pairs():
    """Rank-1 pairs on a 16-vertex path: two extension pairs, v0 freed from a lower
    Dirichlet set with and without v15 (criterion (i) holds), and a killing pair (the
    upper form kills at v4, so (i) fails)."""
    g = make_path(16, 1.0)
    return [FormPair(assemble(g, boundary=["v0"]), assemble(g)),
            FormPair(assemble(g, boundary=["v0", "v15"]), assemble(g, boundary=["v15"])),
            FormPair(assemble(g), assemble(g, extra_killing={"v4": 1.0}))]


class TestSeriesRungs:
    """Above SMALL_DIM, criterion (i)'s one-column solves cross _solve, so for r = 1 U
    and V take the Neumann series at the rungs where rho <= 1/2."""

    @pytest.mark.parametrize("pair, ok", zip(rank1_path_pairs(), (True, True, False)),
                             ids=["extension", "extension-rim", "killing"])
    def test_matches_the_factor_route_and_oracle(self, monkeypatch, pair, ok):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        taken = []
        series = ResolventHandle._series_solve

        def spy(h, alpha, rhs):
            w = series(h, alpha, rhs)
            taken.append((h.form, alpha, w is not None))
            return w

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ResolventHandle, "_series_solve", spy)
            got = check_resolvent_domination(pair)
        worst = got[1]
        h_up = ResolventHandle(pair.upper)
        rungs = [alpha for alpha in _DEFAULT_ALPHAS if rho(h_up, alpha) <= 0.5]
        assert 0 < len(rungs) < len(_DEFAULT_ALPHAS)
        assert [alpha for form, alpha, w in taken if form is pair.upper and w] == rungs
        assert got[0] is ok and worst["kind"] == "box"
        assert assert_matches_oracle(pair) == worst
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ResolventHandle, "_series_solve", lambda *args: None)
            forced_ok, forced = check_resolvent_domination(pair)
        assert (forced_ok, forced["kind"], forced["certified"]) == (ok, "box", True)
        assert abs(forced["violation"] - worst["violation"]) <= 1e-12
        if pair.upper.active.all() and ok:
            # Every entry of G - G~ is < 0 and the largest is far below rounding size.
            # The series, cut at its term count, leaves U's farthest entry an exact zero
            # at a rung where the factor gives a tiny positive one: the product there is
            # 0.0, not a tiny negative float, and the first maximum moves to that rung.
            assert worst["violation"] == 0.0 > forced["violation"]
            assert worst["alpha"] in rungs and worst["alpha"] < forced["alpha"]
        else:
            assert forced["alpha"] == worst["alpha"]

    def test_bound_covers_the_series_difference(self, monkeypatch):
        # At every series rung, delta covers the one-factor entries' distance from the
        # two-factor ones, V from A's own factor.
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        pair = rank1_path_pairs()[0]
        h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)
        pos = np.flatnonzero(pair.lower.active[pair.upper.active])
        S = np.array([0])  # v0, the freed vertex
        C_S = h_up.generator.stiffness[S][:, pos].T.toarray()
        m_a = h_low.generator.mass
        rungs = [alpha for alpha in _DEFAULT_ALPHAS if rho(h_up, alpha) <= 0.5]
        assert rungs
        for alpha in rungs:
            U = h_up.solve_columns(alpha, np.eye(h_up.dim, 1))
            assert np.array_equal(U[:, 0], h_up._series_solve(alpha, np.eye(h_up.dim)[0]))
            V, delta = dom._schur_route(h_up.generator, S, pos)(alpha, U)
            P = U @ (V * m_a[:, None]).T
            assert abs(P.max() - 1e-9) > delta  # this alpha counts
            V2 = h_low._factor(alpha)(C_S)
            assert np.abs(P - U @ (V2 * m_a[:, None]).T).max() <= delta


@st.composite
def rank_r_pairs(draw):
    """Random pairs of rank r > 2, most with r < |a|: Dirichlet vertices that only
    the lower form has, and the upper form's killing on a few vertices either
    raised there in the lower form (criterion (i) holds) or moved among them
    (it mostly fails)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, 8, 16)
    order = [g.ids[i] for i in rng.permutation(g.n)]
    n_bd, n_spots = draw(st.integers(0, 3)), draw(st.integers(3, 5))
    boundary, spots = order[:n_bd], order[n_bd:n_bd + n_spots]
    up = rng.uniform(0.1, 1.0, size=n_spots)
    low = up + rng.uniform(0.0, 1.0, size=n_spots) if draw(st.booleans()) else np.roll(up, 1)
    return FormPair(assemble(g, boundary=boundary, extra_killing=dict(zip(spots, low.tolist()))),
                    assemble(g, extra_killing=dict(zip(spots, up.tolist()))))


def exact_violation(pair, alphas):
    """Criterion (i)'s violation in rational arithmetic: the largest entry of G - G~
    over all n rows and the columns in a (in a \\ b when a is not in b)."""
    a, b = pair.lower.active, pair.upper.active
    h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)
    low, up = h_low.generator, h_up.generator
    cols = np.flatnonzero(~b[a]) if not b[a].all() else np.arange(low.dim)
    rows_a = {int(i): k for k, i in enumerate(low.active_index)}
    worst = None
    for alpha in alphas:
        rhs = np.zeros((low.dim, len(cols)))
        rhs[cols, np.arange(len(cols))] = low.mass[cols]
        G = exact_solve(h_low, alpha, rhs)
        if not b[a].all():  # G~ vanishes on these columns
            entries = [x for row in G for x in row]
        else:
            rhs = np.zeros((up.dim, low.dim))
            rhs[np.flatnonzero(a[b]), np.arange(low.dim)] = low.mass
            G_up = exact_solve(h_up, alpha, rhs)
            entries = [(G[rows_a[i]][j] if i in rows_a else 0) - G_up[k][j]
                       for k, i in enumerate(up.active_index.tolist()) for j in range(low.dim)]
        if len(entries) < pair.lower.n * len(cols):  # rows where both resolvents vanish
            entries.append(Fraction(0))
        worst = max(entries) if worst is None else max(worst, *entries)
    return worst


@st.composite
def small_pairs(draw):
    """(pair, route) on at most 12 vertices, with killing and a coupling in both forms.

    The upper form masks a lower active vertex ("ideal"), equals the lower one
    ("rank0"), or one of them raises the killing of one ("box", r = 1), some
    ("box", 2 <= r < |a|) or all ("blocks") lower active vertices.  Half the pairs of
    r = 1 free a lower Dirichlet vertex next to the active set instead (an extension
    pair), and half of those of some vertices change the weight of a coupling
    between two active vertices.
    """
    shape = draw(st.sampled_from(["ideal", "rank0", "one", "some", "blocks"]))
    route = {"one": "box", "some": "box"}.get(shape, shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_connected_graph(rng, 3, 12)
    order = [g.ids[i] for i in rng.permutation(g.n)]
    k = draw(st.integers(0, g.n - 3))  # |a| >= 3
    boundary, a = order[:k], order[k:]
    killing = {v: float(rng.uniform(0.0, 1.0)) for v in order if rng.random() < 0.5}
    partner = draw(st.sampled_from(a[1:] if shape == "some" else order[:k] + a[1:]))
    cps = [(a[0], partner, float(rng.uniform(0.1, 2.0)))]
    up_boundary, up_killing, up_cps = boundary, dict(killing), cps
    inside = {g.index[v] for v in a}
    freed = [v for v in boundary if any(j in inside for j, _ in g.neighbors(g.index[v]))]
    if shape == "ideal":
        up_boundary = boundary + [a[draw(st.integers(0, len(a) - 1))]]
    elif shape == "one" and freed and draw(st.booleans()):
        up_boundary = [v for v in boundary if v != freed[0]]
    elif shape == "some" and draw(st.booleans()):
        up_cps = [(a[0], partner, 1.5 * cps[0][2])]  # rows a[0] and partner differ
    elif shape != "rank0":
        r = {"one": 1, "some": draw(st.integers(2, len(a) - 1)), "blocks": len(a)}[shape]
        # raised in the lower form (criterion (i) holds) or in the upper one
        raised = killing if draw(st.booleans()) else up_killing
        for v in a[:r]:
            raised[v] = raised.get(v, 0.0) + float(rng.uniform(0.1, 1.0))
    lower = assemble(g, boundary=boundary, extra_killing=killing, couplings=cps)
    upper = assemble(g, boundary=up_boundary, extra_killing=up_killing, couplings=up_cps)
    return FormPair(lower, upper), route


class TestSmallRoute:
    """Forms of at most resolvent.SMALL_DIM active vertices are factored densely,
    and their pairs take the SuperLU factors' routes and values."""

    @settings(max_examples=80)
    @given(small_pairs(), st.lists(st.sampled_from(_DEFAULT_ALPHAS), min_size=1, max_size=2,
                                   unique=True))
    def test_matches_sparse_route_and_exact_resolvents(self, case, alphas):
        pair, route = case
        with pytest.MonkeyPatch.context() as mp:
            dims = factored_dims(mp)
            ok, worst = check_resolvent_domination(pair, alphas=alphas)
            assert not dims
            mp.setattr(resolvent, "SMALL_DIM", 0)
            ok_sparse, worst_sparse = check_resolvent_domination(pair, alphas=alphas)
        assert worst["kind"] == worst_sparse["kind"] == route
        assert ok == ok_sparse and worst["certified"] == worst_sparse["certified"]
        exact, v = exact_violation(pair, alphas), worst["violation"]
        if route == "ideal":  # a lower bound on G_jj
            assert 0.0 < v <= exact * (1 + 1e-10), (worst, float(exact))
        elif route == "box" and rank(pair) > 1 and ok:  # a bound at most tol
            assert exact - 1e-10 * (1 + abs(exact)) <= v <= 1e-9, (worst, float(exact))
        else:  # within DENSE_BUDGET, failures report the maximum
            assert abs(v - exact) <= 1e-10 * (1 + abs(exact)), (worst, float(exact))

    @staticmethod
    def spied(monkeypatch) -> tuple:
        """Factor dimensions of splu and the calls of _schur_route, as lists."""
        schur, route = [], dom._schur_route
        monkeypatch.setattr(dom, "_schur_route", lambda *args: schur.append(args) or route(*args))
        return factored_dims(monkeypatch), schur

    def test_dispatch_at_the_floor(self, monkeypatch):
        dims, schur = self.spied(monkeypatch)
        for n in (resolvent.SMALL_DIM, resolvent.SMALL_DIM + 1):
            # an extension pair of rank 1 with |b| = n active vertices
            g = make_path(n, 1.0)
            pair = FormPair(assemble(g, boundary=["v0"]), assemble(g))
            ok, worst = check_resolvent_domination(pair)
            assert ok and worst["kind"] == "box" and worst["certified"]
            if n == resolvent.SMALL_DIM:
                assert not dims and not schur
            else:  # one upper-form factor per alpha where rho > 1/2, and the one-factor route
                factored = factored_alphas(ResolventHandle(pair.upper), _DEFAULT_ALPHAS)
                assert dims == [n] * len(factored) and len(schur) == 1

    def test_selftest_domination_checks_factor_nothing(self, monkeypatch):
        dims, schur = self.spied(monkeypatch)
        names = {"check_criterion_equivalence", "check_domination_reflexivity",
                 "check_domination_transitivity"}
        checks = [fn for fn in selftest.REGISTRY if fn.__name__ in names]
        assert len(checks) == 3
        corpora = {}
        for fn in checks:
            assert fn(corpora).passed
        assert not dims and not schur

    def test_failed_factor_takes_the_sparse_path(self, monkeypatch):
        from scipy.linalg import lapack

        # Not an extension pair (the lower form kills at the centre), so the forced
        # SuperLU route takes no Schur step either and factors both forms.
        pair = lattice_pair(4, rim_boundary=True, killing={"0,0": 1.0})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolvent, "SMALL_DIM", 0)
            sparse = check_resolvent_domination(pair)
        assert sparse[1]["kind"] == "box"
        dpotrf = lapack.dpotrf  # info 1: "not positive definite"
        monkeypatch.setattr(lapack, "dpotrf", lambda *a, **kw: (dpotrf(*a, **kw)[0], 1))
        dims = factored_dims(monkeypatch)
        assert check_resolvent_domination(pair) == sparse
        assert sorted(dims) == [25] * len(_DEFAULT_ALPHAS) + [41] * len(_DEFAULT_ALPHAS)


class TestOneFactorSite:
    """K + alpha M is factored in two places: densely in ResolventHandle._dense_factor,
    by SuperLU in ResolventHandle._factor."""

    def test_every_factorization_has_one_of_three_callers(self, monkeypatch):
        from scipy.linalg import lapack

        callers = set()

        def spy(module, name):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                callers.add((name, sys._getframe(1).f_code.co_qualname))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        spy(scipy.sparse.linalg, "splu")
        spy(lapack, "dpotrf")
        spy(lapack, "dposv")
        spy(lapack, "dpotri")
        corpora = {}
        for fn in selftest.REGISTRY:
            if fn.__name__ in {"check_criterion_equivalence", "check_domination_reflexivity",
                               "check_domination_transitivity"}:
                assert fn(corpora).passed
        assert run_counterexample(CounterexampleSetup(n=51)).contradiction_reproduced
        assert check_silverstein(lattice_pair(10, rim_boundary=True)).resolvent_ok
        q = assemble(make_path(5, 1.0), boundary=["v4"])
        truncated_coefficients(ResolventHandle(q), 1.0, np.full(5, 0.5) * q.active, [["v0"]])
        # "blocks" with |b| = 145, above SMALL_DIM: dense inverses of both forms
        assert not check_resolvent_domination(lattice_pair(8, killing=0.1))[0]
        # the handle's factors, the dense one inverted in place by resolvent_matrix, the
        # Cholesky factor of the r x r block U_S (not of K + alpha M), and the factor of
        # the recurrence eigensolver
        allowed = {("splu", "ResolventHandle._factor"),
                   ("dpotrf", "ResolventHandle._dense_factor"),
                   ("dpotri", "ResolventHandle.resolvent_matrix"),
                   ("dpotrf", "_schur_route.<locals>.factor"), ("splu", "_smallest_eigenvalue")}
        assert callers <= allowed, callers - allowed
        assert allowed - {("splu", "_smallest_eigenvalue")} <= callers


class TestDenseBlocks:
    """The "blocks" route reads G~ E as columns of the upper form's resolvent matrix when
    |b| <= resolvent.DENSE_DIM: one dense inversion per form and alpha above SMALL_DIM."""

    def test_corpus_pairs_match_exact_resolvents(self, monkeypatch):
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)  # every form is inverted densely
        dims = factored_dims(monkeypatch)
        alphas = (1e-3, 1.0, 1e3)
        blocks = []
        for pair in (p for seed in range(5) for p in domination_pair_corpus(seed, 50)):
            ok, worst = check_resolvent_domination(pair, alphas=alphas)
            if worst["kind"] == "blocks":
                assert not dims and worst["certified"]
                blocks.append(pair)
                exact = exact_violation(pair, alphas)
                assert ok == (exact <= Fraction(1e-9))
                assert abs(worst["violation"] - exact) <= 1e-12 * (1 + abs(exact)), worst
            dims.clear()
        # mask pairs (the same killing, other Dirichlet vertices) and killing pairs
        masks = [np.array_equal(p.lower.graph.c, p.upper.graph.c) for p in blocks]
        assert len(blocks) >= 10 and any(masks) and not all(masks)

    @pytest.mark.parametrize("radius", [8, 10])  # n = 145 and 221
    def test_lattice_killing_pairs_match_superlu(self, monkeypatch, radius):
        pair = lattice_pair(radius, killing=0.1)
        for p in (pair, FormPair(pair.upper, pair.lower)):
            with pytest.MonkeyPatch.context() as mp:
                dims = factored_dims(mp)
                ok, worst = check_resolvent_domination(p)
                assert not dims  # no SuperLU factor: two dense inverses per alpha
                mp.setattr(resolvent, "DENSE_DIM", 0)
                ok_sparse, sparse = check_resolvent_domination(p)
                assert dims == [pair.lower.n] * 2 * len(_DEFAULT_ALPHAS)
            assert ok == ok_sparse and worst["kind"] == sparse["kind"] == "blocks"
            assert worst["certified"] and sparse["certified"]
            assert worst["alpha"] == sparse["alpha"]
            assert abs(worst["violation"] - sparse["violation"]) <= 1e-12 * abs(sparse["violation"])
        assert not check_resolvent_domination(pair)[0]


class TestProductRoute:
    """Where its bound exceeds tol, the box route forms U V^T M_a in row blocks, on scipy's
    BLAS."""

    @settings(max_examples=30)
    @given(rank_r_pairs(), st.integers(1, 3))
    def test_row_blocks_match_one_block_and_oracle(self, pair, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolvent, "SMALL_DIM", 0)
            with pytest.MonkeyPatch.context() as budget:
                # blocks of `rows` rows of W U^T, each |b| long, above the dense budget
                budget.setattr(dom, "DENSE_BUDGET", rows * pair.upper.generator.dim)
                budget.setattr(dom, "_PRODUCT_BLOCK", rows * pair.upper.generator.dim)
                blocked = check_resolvent_domination(pair)
                assume(blocked[1]["kind"] == "box")
                assert assert_matches_oracle(pair) == blocked[1]
            one = check_resolvent_domination(pair)
        assert one[1]["kind"] == "box" and one[0] == blocked[0]
        if one[0]:
            assert max(one[1]["violation"], blocked[1]["violation"]) <= 1e-9
        else:  # above the budget, the failure stops at an entry above tol
            assert 1e-9 < blocked[1]["violation"] <= one[1]["violation"] + 1e-12

    def test_no_numpy_linear_algebra(self, monkeypatch):
        # Each alpha's dense steps run on scipy's BLAS and LAPACK, as SuperLU's
        # solves do; numpy links another OpenBLAS build.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy's LAPACK called")

        for name in ("cholesky", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        # n = 313: r = 48, |b| |a| = 313 * 265 > DENSE_BUDGET, r |b| |a| = 4.0e6
        rim = lattice_pair(12, rim_boundary=True)
        assert rim.upper.n * rim.lower.generator.dim > dom.DENSE_BUDGET
        g = make_path(6, 1.0)
        one_vertex = FormPair(assemble(g, boundary=["v0"]), assemble(g))
        for pair in (rim, one_vertex):
            assert check_extension(pair)[0]
            ok, worst = check_resolvent_domination(pair)
            assert ok and worst["kind"] == "box" and worst["certified"]

    def test_import_leaves_scipy_linalg_out(self):
        # Neither import loads any scipy module: scipy is imported where it is first used.
        root = Path(__file__).resolve().parents[1]
        code = ("import importlib, sys; importlib.import_module(sys.argv[1]); "
                "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        for module in ("graphforms", "graphforms.cli"):
            proc = subprocess.run([sys.executable, "-c", code, module], capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                                  timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "", f"import {module} loaded {proc.stdout}"


class TestProbeRoute:
    """The probes go through each form's factor as one multi-column solve per alpha."""

    @pytest.mark.parametrize("small_dim", [resolvent.SMALL_DIM, 0])
    def test_batched_probes_match_the_vector_loop(self, monkeypatch, small_dim):
        monkeypatch.setattr(resolvent, "SMALL_DIM", small_dim)
        monkeypatch.setattr(dom, "DENSE_BUDGET", 0)  # killing everywhere: r = |a|, probes
        records = []
        record = dom._record

        def spy(worst, v, alpha, kind):
            records.append((v.hex(), alpha, kind))
            record(worst, v, alpha, kind)

        monkeypatch.setattr(dom, "_record", spy)
        pair = lattice_pair(2, killing=0.1)
        ok, worst = check_resolvent_domination(pair)
        assert not ok and not worst["certified"] and worst["kind"].startswith("probe_")
        # One factor solve per probe and form, the first largest value kept.
        h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)

        def resolve(h, alpha, f):  # G_alpha f through the factor, as the probes' solve
            return h.extend(h._factor(alpha)(h.generator.mass * h.restrict(f)))

        n = pair.lower.n
        probes = [np.eye(1, n, k)[0] for k in range(min(n, 64))] + [np.ones(n)]
        expect = []
        for alpha in _DEFAULT_ALPHAS:
            values = [float((np.abs(resolve(h_low, alpha, f))
                             - resolve(h_up, alpha, np.abs(f))).max()) for f in probes]
            k = values.index(max(values))
            expect.append((values[k].hex(), alpha, f"probe_{k}"))
        assert records == expect


class TestOneAssemblyPath:
    """Every stiffness matrix comes from assemble_stiffness's one pass, and D = K - K~
    from one key-space sum: no COO matrix and no sparse subtraction."""

    def test_no_coo_matrix_and_no_sparse_subtraction(self, monkeypatch):
        import scipy.sparse as sp

        seen = []

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        def defining(cls, name):
            return next(c for c in cls.__mro__ if name in vars(c))

        spy(defining(sp.coo_matrix, "__init__"), "__init__")
        for name in ("__sub__", "__rsub__", "__isub__"):
            spy(defining(sp.csr_matrix, name), name)
        for check in (selftest.check_criterion_equivalence, selftest.check_domination_reflexivity,
                      selftest.check_domination_transitivity):
            assert check().passed
        assert run_counterexample(CounterexampleSetup(n=51)).contradiction_reproduced
        assert seen == []

    def test_difference_is_scipys(self):
        # D = K - K~ on the lower active set, key for key and bit for bit, non-ideal pairs too.
        non_ideal = 0
        for pair in domination_pair_corpus(42, 50):
            K_low = pair.lower.generator.stiffness
            want = K_low - assemble_stiffness(pair.upper, pair.lower.active)
            want.sum_duplicates()
            k = want.shape[0]
            want_key = np.repeat(np.arange(k) * k, np.diff(want.indptr)) + want.indices
            key, value, _ = dom._lower_difference(pair)
            for got, expect in ((key, want_key), (value, want.data)):
                assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
            non_ideal += not check_order_ideal(pair)
        assert non_ideal

    def test_one_difference_feeds_all_three_criteria(self):
        # D is -C on a's rows, key for key, and criterion (i) reads C from the pair.
        ranked = 0
        for pair in domination_pair_corpus(42, 50):
            a, b = pair.lower.active, pair.upper.active
            na, nc = int(a.sum()), int((a | b).sum())
            key, value, scale, rows = pair._difference
            assert np.array_equal(rows, np.flatnonzero(a[a | b])) and value.all()
            C = np.zeros((nc, na))
            C.flat[key] = value
            d_key, d_value, d_scale = dom._lower_difference(pair)
            assert np.array_equal(d_key, np.flatnonzero(C[rows]))
            assert d_value.tobytes() == (-C[rows]).flat[d_key].tobytes()
            S = np.zeros((nc, na))
            S.flat[key] = scale
            assert d_scale.tobytes() == S[rows].flat[d_key].tobytes()
            if not b[a].all() or not len(key):
                continue
            # Without C's entries criterion (i) sees equal resolvents.
            blank = FormPair(pair.lower, pair.upper)
            blank.__dict__["_difference"] = (key[:0], value[:0], scale[:0], rows)
            assert check_resolvent_domination(blank)[1]["kind"] == "rank0"
            assert check_resolvent_domination(pair)[1]["kind"] != "rank0"
            ranked += 1
        assert ranked

class TestCriterionInputs:
    """Criterion (i) needs M-matrices; other weights get a classified error."""

    def test_infinite_weight(self):
        ids = ["a", "b", "c"]
        finite, infinite = (
            assemble(WeightedGraph(ids, [1.0] * 3, [0.0] * 3, [("a", "b", w), ("b", "c", 1.0)]))
            for w in (1.0, math.inf)
        )
        for pair in (FormPair(infinite, finite), FormPair(finite, infinite),
                     FormPair(infinite, infinite)):
            for check in (check_resolvent_domination, check_silverstein):
                with pytest.raises(ValueError, match="not finite; check the weights"):
                    check(pair)

    def test_huge_weight_between_inactive_vertices(self):
        """The check reads the graph's b = 1e308, not the pair table's 2b = inf: an edge
        that no active row sees leaves an answer."""
        ids = ["a", "b", "c", "d"]
        g = WeightedGraph(ids, [1.0] * 4, [0.0] * 4,
                          [("a", "b", 1e308), ("b", "c", 1.0), ("c", "d", 1.0)])
        lower, upper = assemble(g, boundary=["a", "b", "d"]), assemble(g, boundary=["a", "b"])
        assert lower.pairs[1][0] == math.inf
        ok, worst = check_resolvent_domination(FormPair(lower, upper))
        assert ok and worst["certified"]

    def test_negative_weight(self):
        g = make_path(3, 1.0)
        negative = assemble(WeightedGraph(g.ids, g.m, g.c, [("v0", "v1", -0.5), ("v1", "v2", 0.5)]))
        with pytest.raises(ValueError, match="nonnegative weights and a positive measure"):
            check_resolvent_domination(FormPair(negative, assemble(g)))

    @pytest.mark.parametrize("alphas", [(), (-1.0,), (0.0,), (math.inf,), (math.nan,),
                                        (1.0, -1.0)])
    def test_alphas_checked_before_any_route(self, monkeypatch, alphas):
        # Nothing checked is no certificate, and rank0 solves nothing to reject alpha with.
        g = make_path(4, 1.0)
        pair = dirichlet_neumann_pair()
        for small_dim in (resolvent.SMALL_DIM, 0):
            monkeypatch.setattr(resolvent, "SMALL_DIM", small_dim)
            for p in (FormPair(assemble(g), assemble(g)), pair, FormPair(pair.upper, pair.lower)):
                with pytest.raises(ValueError, match="needs positive finite alphas"):
                    check_resolvent_domination(p, alphas=alphas)

    def test_stiffness_assembled_once_per_form(self, monkeypatch):
        # One build per (form, vertex set): each generator's on its own active set, and
        # for a pair whose lower active set a is not in the upper one b, the upper
        # form's on a | b for the pair difference; one difference per pair.
        assembled, differences = [], []
        original = resolvent.assemble_stiffness
        difference = FormPair._difference

        def spy(form, vertices=None):
            assembled.append((form, vertices))
            return original(form, vertices)

        def counted(pair):
            differences.append(pair)
            return difference.func(pair)

        def builds(*expected):
            assert len(assembled) == len(expected)
            for (form, vertices), (want_form, want_vertices) in zip(assembled, expected):
                assert form is want_form
                if want_vertices is want_form.active:
                    assert vertices is want_vertices
                else:
                    assert np.array_equal(vertices, want_vertices)
            assembled.clear()

        spied = cached_property(counted)
        spied.__set_name__(FormPair, "_difference")
        monkeypatch.setattr(FormPair, "_difference", spied)
        monkeypatch.setattr(resolvent, "assemble_stiffness", spy)
        pair = lattice_pair(2, killing=0.1)
        lower, upper = pair.lower, pair.upper
        check_silverstein(pair)
        builds((lower, lower.active), (upper, upper.active))
        assert differences == [pair]
        # The counterexample's base form is shared by its pairs and assembled once.
        pairs = counterexample_pairs(11)
        for pair in pairs:
            check_silverstein(pair)
        base, ext1, ext2 = pairs[0].lower, pairs[0].upper, pairs[1].upper
        assert pairs[2].lower is ext1 and pairs[2].upper is base
        assert not check_order_ideal(pairs[2])
        builds((base, base.active), (ext1, ext1.active), (ext2, ext2.active),
               (base, ext1.active | base.active))
        assert differences[1:] == pairs


@st.composite
def inner_cases(draw):
    """(U, W, tol) with r = 1-4 columns and up to 40 rows each: normal rows, or in one or
    both arrays collinear, repeated, duplicate or zero-length rows, or small integers
    with tied entries, or columns of opposite signs in U and W.  tol lies at an
    entry's quantile, nudged off it or not, or between the largest entry and the box
    bound of the whole arrays, where a pass needs the blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, nu, nw = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    arrays = [rng.normal(size=(nu, r)), rng.normal(size=(nw, r))]
    shape = draw(st.sampled_from(["normal", "collinear", "repeated", "duplicates", "zero rows",
                                  "signed", "ties"]))
    for k in draw(st.sampled_from([[0], [1], [0, 1]])):
        X = arrays[k]
        n = len(X)
        if shape == "collinear":
            X = rng.normal() + np.outer(rng.normal(size=n), rng.normal(size=r))
        elif shape == "repeated":
            X = np.repeat(X[:1], n, axis=0)
        elif shape == "duplicates":
            X = np.repeat(X[:max(1, n // 3)], 3, axis=0)[:n]
        elif shape == "zero rows":
            X[:n // 2] = 0.0
        elif shape == "ties":
            X = rng.integers(-2, 3, size=X.shape).astype(float)
        arrays[k] = X
    if shape == "signed":  # U_k W_k <= 0 in every column k, as U >= 0 >= M_a V under (ii)
        sign = rng.choice([-1.0, 1.0], size=r)
        arrays = [np.abs(arrays[0]) * sign, -np.abs(arrays[1]) * sign]
    U, W = arrays
    P, q = U @ W.T, draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return U, W, float(np.quantile(P, q)) + draw(st.sampled_from([0.0, 1e-6, -1e-6]))
    box = sum(max(x * y for x in (U[:, k].max(), U[:, k].min())
                  for y in (W[:, k].max(), W[:, k].min())) for k in range(r))
    return U, W, float(P.max() + q * (box - P.max()))


class TestMaxInner:
    """_max_inner's contract against brute force, and the box bound's certified passes."""

    @settings(max_examples=150)
    @given(inner_cases(), st.sampled_from([-1, 0]), st.integers(1, 64))
    def test_contract_against_brute_force(self, case, side, block):
        # DENSE_BUDGET just below or at |U| |W|, and blocks of a few entries
        U, W, tol = case
        P = U @ W.T
        M, eps = P.max(), 1e-12 * (1.0 + np.abs(P).max())
        within = side == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dom, "DENSE_BUDGET", P.size + side)
            mp.setattr(dom, "_PRODUCT_BLOCK", block)
            v = _max_inner(U, W, tol)
        if v <= tol:  # a bound on every entry
            assert M <= v + eps
        else:  # an entry
            assert np.abs(P - v).min() <= eps and v <= M + eps
        if U.shape[1] == 1 or within and v > tol:  # the maximum
            assert abs(v - M) <= eps

    @settings(max_examples=150)
    @given(inner_cases(), st.booleans())
    def test_one_block_is_the_maximum(self, case, fortran):
        # |U| |W| <= _PRODUCT_BLOCK: one dgemm forms W U^T, whatever tol is, and the
        # result is its largest entry
        U, W, tol = case
        if fortran:  # as the solves return them
            U, W = np.asfortranarray(U), np.asfortranarray(W)
        P = W @ U.T
        assert P.size <= dom._PRODUCT_BLOCK
        eps = 1e-12 * (1.0 + np.abs(P).max())
        for t in (tol, -math.inf, math.inf):
            assert abs(_max_inner(U, W, t) - P.max()) <= eps

    @pytest.mark.parametrize("kind", ["rank1", "rank2"])
    def test_matches_brute_force(self, kind, monkeypatch):
        # tol = -inf: every pass decides against it, so the result is the maximum,
        # from the column extremes for r = 1 and from the products for r = 2; blocks
        # of 64 entries keep these arrays of up to 39 x 39 entries on the box route
        monkeypatch.setattr(dom, "_PRODUCT_BLOCK", 64)
        rng = np.random.default_rng(0)
        r = int(kind[-1])
        for k in range(200):
            nu, nw = (int(x) for x in rng.integers(1, 40, size=2))
            U, W = rng.normal(size=(nu, r)), rng.normal(size=(nw, r))
            shape = k % 6
            if shape == 1:  # collinear
                W = rng.normal() + np.outer(rng.normal(size=nw), rng.normal(size=r))
            elif shape == 2:  # one point, repeated
                W = np.repeat(W[:1], nw, axis=0)
            elif shape == 3:  # duplicates
                W = np.repeat(W[: max(1, nw // 3)], 3, axis=0)
            elif shape == 4:  # ties on a small lattice
                W = rng.integers(-2, 3, size=(nw, r)).astype(float)
            elif shape == 5:  # directions of zero length, and all on a circle
                U[: nu // 2] = 0.0
                if r == 2:
                    theta = rng.uniform(0.0, 2.0 * math.pi, nw)
                    W = np.column_stack([np.cos(theta), np.sin(theta)])
            assert abs(_max_inner(U, W, -math.inf) - (U @ W.T).max()) <= 1e-12

    def test_certified_pass_forms_no_product(self, monkeypatch):
        # Pairs that satisfy (ii) have C_S <= 0, so V <= 0 <= U and the box bound is
        # <= 0: above one block no block of U V^T M_a is formed.  A failure forms its
        # blocks, and so does any pair within one block.
        blas = resolvent._linalg()[0]
        dgemm, callers = blas.dgemm, []

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_qualname.split(".")[0])
            return dgemm(*args, **kwargs)

        monkeypatch.setattr(blas, "dgemm", spy)
        monkeypatch.setattr(resolvent, "SMALL_DIM", 0)
        assert check_resolvent_domination(dirichlet_neumann_pair(7))[0]
        assert "_max_inner" in callers  # one block of 7 x 5 entries
        callers.clear()
        monkeypatch.setattr(dom, "_PRODUCT_BLOCK", 16)  # below every |U| |W| from here on
        for pair in (lattice_pair(4, rim_boundary=True), dirichlet_neumann_pair(7),
                     *counterexample_pairs(51)[:2]):
            ok, worst = check_resolvent_domination(pair)
            assert ok and worst["kind"] == "box" and worst["violation"] <= 0.0 and rank(pair) > 1
        assert "_max_inner" not in callers and "_schur_route" in callers  # its own products
        ok, worst = check_resolvent_domination(
            lattice_pair(4, rim_boundary=True, killing={"0,0": 1.0}))
        assert not ok and worst["kind"] == "box" and "_max_inner" in callers

    def test_rank2_failure_above_the_budget(self):
        # A free path against the same path with killing at two vertices: r = 2 and
        # |b| |a| = n^2 above DENSE_BUDGET.  The violation is an entry of U V^T M_a above
        # tol, checked against every entry, in blocks of rows.
        n, alpha = 20001, 1e-3
        path = make_path(n, 2.0 / (n - 1))
        pair = FormPair(assemble(path), assemble(path, extra_killing={"v1000": 1.0,
                                                                      "v15000": 1.0}))
        assert rank(pair) == 2 and n * n > dom.DENSE_BUDGET
        ok, worst = check_resolvent_domination(pair, alphas=(alpha,))
        assert not ok and worst["kind"] == "box" and worst["certified"]
        h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)
        S = [1000, 15000]
        rhs = np.zeros((n, 2))
        rhs[S, [0, 1]] = 1.0
        U = h_up.solve_columns(alpha, rhs)
        C_S = (h_up.generator.stiffness - h_low.generator.stiffness)[S].T.toarray()
        W = h_low.solve_columns(alpha, C_S) * h_low.generator.mass[:, None]
        v, top, near = worst["violation"], -math.inf, math.inf
        Wt = np.ascontiguousarray(W.T)
        for i in range(0, n, 50):
            block = U[i:i + 50] @ Wt
            top = max(top, block_max := block.max())
            if block_max >= v - 1e-12 * v:  # else no entry of the block is near v
                near = min(near, np.abs(block - v).min())
        assert 1e-9 < v <= top * (1 + 1e-12) and near <= 1e-12 * v


class TestDisagreementDefect:
    """(i)/(ii) disagree only as a defect when both verdicts are certificates."""

    @pytest.mark.parametrize(
        "res_ok, res_certified, defect",
        [
            (True, True, True),  # exact comparison says ok, (ii) refutes
            (True, False, False),  # a probed "ok" is no certificate
        ],
    )
    def test_ok_against_refuted_inequality(self, monkeypatch, res_ok, res_certified, defect):
        import graphforms.domination as dom

        pair = dirichlet_neumann_pair()
        reversed_pair = FormPair(lower=pair.upper, upper=pair.lower)  # (ii) refutes
        worst = {"violation": 0.0, "alpha": 1.0, "kind": "basis", "certified": res_certified}
        monkeypatch.setattr(dom, "check_resolvent_domination", lambda p: (res_ok, worst))
        rep = check_silverstein(reversed_pair)
        assert rep.inequality.certified and not rep.ideal_ok
        assert bool(rep.defects) is defect

    @pytest.mark.parametrize("res_certified", [True, False])
    def test_violation_found_is_a_certificate(self, monkeypatch, res_certified):
        import graphforms.domination as dom

        worst = {"violation": 1.0, "alpha": 1.0, "kind": "probe_0", "certified": res_certified}
        monkeypatch.setattr(dom, "check_resolvent_domination", lambda p: (False, worst))
        rep = check_silverstein(dirichlet_neumann_pair())  # (ii) holds
        assert rep.defects and "disagree" in rep.defects[0]


class TestOrderIdeal:
    def test_nested_masks(self):
        g = make_path(4, 1.0)
        lower = assemble(g, boundary=["v0", "v3"])
        upper = assemble(g, boundary=["v0"])
        assert check_order_ideal(FormPair(lower=lower, upper=upper))

    def test_incomparable_masks(self):
        g = make_path(4, 1.0)
        a = assemble(g, boundary=["v0"])
        b = assemble(g, boundary=["v3"])
        assert not check_order_ideal(FormPair(lower=a, upper=b))

    def test_equal_masks(self):
        g = make_path(4, 1.0)
        q = assemble(g, boundary=["v1"])
        assert check_order_ideal(FormPair(lower=q, upper=q))

    def test_one_containment_flag_per_pair(self, monkeypatch):
        """Criteria (i)-(iii) and the report all read the pair's one cached flag."""
        nested = FormPair._nested.func
        tested = []

        def counted(pair):
            tested.append(pair)
            return nested(pair)

        spied = cached_property(counted)
        spied.__set_name__(FormPair, "_nested")
        monkeypatch.setattr(FormPair, "_nested", spied)
        g = make_path(4, 1.0)
        a, b, ab = (assemble(g, boundary=v) for v in (["v0", "v3"], ["v3"], ["v0"]))
        pairs = [FormPair(lower=a, upper=ab), FormPair(lower=b, upper=ab)]
        for pair, want in zip(pairs, (True, False)):
            rep = check_silverstein(pair)
            assert rep.ideal_ok is check_order_ideal(pair) is pair._nested is want
            assert (rep.resolvent_worst["kind"] == "ideal") is not want
            assert check_extension(pair)[0] is (want and rep.extension_worst == 0.0)
        assert tested == pairs


class TestFormInequality:
    def test_equal_forms_certified(self):
        q = assemble(make_path(4, 1.0))
        res = check_form_inequality_nonneg(FormPair(lower=q, upper=q))
        assert res.ok and res.certified and res.method == "coefficient"
        assert res.worst_value == pytest.approx(0.0, abs=1e-15)

    def test_mask_removal_certified(self):
        res = check_form_inequality_nonneg(dirichlet_neumann_pair())
        assert res.ok and res.certified

    def test_enlarged_edge_refuted(self):
        ids = ["a", "b"]
        g1 = WeightedGraph(ids, [1, 1], [0, 0], [("a", "b", 0.5)])
        g2 = WeightedGraph(ids, [1, 1], [0, 0], [("a", "b", 1.0)])
        pair = FormPair(lower=assemble(g1), upper=assemble(g2))
        res = check_form_inequality_nonneg(pair)
        assert res.refuted and res.certified
        assert res.witness["bilinear_gap"] < 0
        # the explicit witness also refutes through plain sampling
        refuted, gap = sampled_inequality(pair, samples=500)
        assert refuted and gap < 0

    def test_sparse_coefficients_match_dense_reference(self):
        g = make_path(5, 1.0)
        zero_coupling = FormPair(
            lower=assemble(g, boundary=["v0"], couplings=[("v1", "v3", 0.0)]),
            upper=assemble(g, couplings=[("v2", "v4", 0.5)]),
        )
        pairs = domination_pair_corpus(11, 40) + [zero_coupling, dirichlet_neumann_pair()]
        outcomes = set()
        for pair in pairs:
            # a negative tolerance refutes at a zero entry, so the implicit-zero
            # witness is compared too
            for tol in (1e-10, -0.5):
                res = check_form_inequality_nonneg(pair, tol=tol)
                worst, witness = dense_coefficient_check(pair, tol)
                assert res.certified and res.method == "coefficient"
                assert res.worst_value == worst
                assert res.refuted == (witness is not None)
                if witness is not None:
                    assert (res.witness["f_vertex"], res.witness["g_vertex"]) == witness
                outcomes.add((tol, res.refuted, worst == 0.0))
        assert {(1e-10, True, False), (1e-10, False, True), (-0.5, True, True)} <= outcomes

    def test_sampling_cannot_certify(self):
        # Sampling finds no violation; only the coefficient path certifies that.
        pair = dirichlet_neumann_pair()
        assert not sampled_inequality(pair, samples=50)[0]
        res = check_form_inequality_nonneg(pair)
        assert res.ok and res.certified and res.method == "coefficient"


class TestSilverstein:
    def test_dirichlet_neumann_pair(self):
        rep = check_silverstein(dirichlet_neumann_pair())
        assert rep.silverstein
        assert rep.resolvent_ok
        assert rep.extension_ok and rep.ideal_ok
        assert not rep.defects

    def test_disjoint_supports_are_not_extensions(self):
        g = make_path(4, 1.0)
        lower = assemble(g, boundary=["v2", "v3"])
        upper = assemble(g, boundary=["v0", "v1"])
        rep = check_silverstein(FormPair(lower=lower, upper=upper))
        assert not rep.extension_ok
        assert not rep.silverstein

    def test_report_serializes(self):
        rep = check_silverstein(dirichlet_neumann_pair())
        d = rep.to_dict()
        assert d["silverstein"] is True
        assert "inequality_method" in d


class TestExtension:
    """Agreement on the lower domain is equality of the restricted stiffness matrices."""

    def test_matches_sampled_verdict(self):
        pairs = [p for seed in range(5) for p in domination_pair_corpus(seed, 50)]
        for n in (5, 51, 201, 301):
            pairs += counterexample_pairs(n)
        verdicts = []
        for pair in pairs:
            ok, worst = check_extension(pair)
            assert ok == sampled_extension(pair)[0], worst
            verdicts.append(ok)
        assert len(verdicts) >= 250
        assert 0 < sum(verdicts) < len(verdicts)

    def test_counterexample_extensions(self):
        ext1, ext2, reversed_pair = counterexample_pairs(51)
        assert check_extension(ext1) == (True, 0.0)
        assert check_extension(ext2) == (True, 0.0)
        assert not check_extension(reversed_pair)[0]

    def test_infinite_lower_weight_fails(self):
        ids = ["a", "b", "c"]
        edges = [("a", "b", 1.0), ("b", "c", 1.0)]
        finite = assemble(WeightedGraph(ids, [1.0] * 3, [0.0] * 3, edges))
        edges[0] = ("a", "b", math.inf)
        infinite = assemble(WeightedGraph(ids, [1.0] * 3, [0.0] * 3, edges))
        for pair in (FormPair(infinite, finite), FormPair(infinite, infinite)):
            ok, worst = check_extension(pair)
            assert not ok and math.isnan(worst)
        # The NaN energies slip through the sampled loop.
        assert sampled_extension(FormPair(infinite, finite)) == (True, 0.0)

    def test_small_edge_change_fails(self):
        g = make_path(5, 1.0)
        edges = [
            (g.ids[u], g.ids[v], float(b) * (1.0 + 1e-6 if k == 1 else 1.0))
            for k, (u, v, b) in enumerate(zip(g.edge_u, g.edge_v, g.edge_b))
        ]
        changed = assemble(WeightedGraph(g.ids, g.m, g.c, edges), boundary=["v0"])
        ok, worst = check_extension(FormPair(assemble(g, boundary=["v0"]), changed))
        assert not ok
        assert worst == pytest.approx(1e-6, rel=1e-5)

    def test_incomparable_masks_fail_with_a_finite_worst(self):
        g = make_path(4, 1.0)
        pair = FormPair(assemble(g, boundary=["v0"]), assemble(g, boundary=["v3"]))
        ok, worst = check_extension(pair)
        assert not ok and worst == 0.0
        rep = check_silverstein(pair)
        assert not rep.extension_ok and not rep.silverstein
        assert math.isfinite(rep.to_dict()["extension_worst"])

    def test_nested_masks_are_extensions(self):
        assert check_extension(dirichlet_neumann_pair()) == (True, 0.0)


class TestCriterionEquivalence:
    def test_corpus_agreement(self):
        pairs = domination_pair_corpus(7, 50)
        for pair in pairs:
            ineq = check_form_inequality_nonneg(pair)
            assert ineq.certified
            crit_ii = check_order_ideal(pair) and ineq.ok
            crit_i, worst = check_resolvent_domination(pair)
            assert crit_i == crit_ii, worst


class TestMaximality:
    def _base_and_candidates(self, seed):
        rng = np.random.default_rng(seed)
        g = zero_killing(random_connected_graph(rng, n_min=8, n_max=14))
        boundary = [g.ids[0]]
        base = assemble(g, boundary=boundary)
        neumann = assemble(g)
        main_form = assemble(induced_active_graph(g, base.active))
        return g, base, [neumann, base, main_form]

    def test_no_candidate_beats_the_main_part(self):
        g, base, candidates = self._base_and_candidates(0)
        rng = np.random.default_rng(1)
        probes = [random_function(rng, g.n) for _ in range(6)]
        report = verify_maximality(base, saturating_exhaustion(g), candidates, probes)
        assert report.ok
        assert not report.excluded
        # the induced-active unmasked form IS the main part: equality everywhere
        assert report.verdicts[2].achieves_equality

    def test_non_dominating_candidate_excluded(self):
        g, base, _ = self._base_and_candidates(2)
        bigger = [
            (g.ids[u], g.ids[v], 2.0 * b)
            for u, v, b in zip(g.edge_u, g.edge_v, g.edge_b)
        ]
        inflated = assemble(WeightedGraph(g.ids, g.m, g.c, bigger))
        rng = np.random.default_rng(3)
        probes = [random_function(rng, g.n) for _ in range(3)]
        report = verify_maximality(base, saturating_exhaustion(g), [inflated], probes)
        assert report.excluded and not report.verdicts

    def test_neumann_equality_away_from_boundary(self):
        # probes vanishing on boundary-adjacent vertices see no masked edges,
        # so the full Neumann form matches the main part there exactly
        g, base, candidates = self._base_and_candidates(4)
        neumann = candidates[0]
        adjacent = np.zeros(g.n, dtype=bool)
        for u, v in zip(g.edge_u, g.edge_v):
            if not base.active[u]:
                adjacent[v] = True
            if not base.active[v]:
                adjacent[u] = True
        away = base.active & ~adjacent
        if not away.any():
            pytest.skip("no interior depth on this draw")
        rng = np.random.default_rng(5)
        probes = [random_function(rng, g.n) * away for _ in range(4)]
        report = verify_maximality(base, saturating_exhaustion(g), [neumann], probes)
        assert report.ok
        assert report.verdicts[0].achieves_equality
