"""Domination criteria, Silverstein extensions, maximality of the main part."""

import math

import numpy as np
import pytest

from graphforms import (
    CounterexampleSetup,
    FormPair,
    assemble,
    check_form_inequality_nonneg,
    check_order_ideal,
    check_resolvent_domination,
    check_silverstein,
    make_path,
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
from graphforms.domination import check_extension
from graphforms.graph import WeightedGraph
from graphforms.resolvent import assemble_stiffness


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

    def test_probe_path_agrees_with_dense(self, monkeypatch):
        # force the probe-based route above DENSE_CAP and compare verdicts
        import graphforms.domination as dom

        pair = dirichlet_neumann_pair(n=6)
        reversed_pair = FormPair(lower=pair.upper, upper=pair.lower)
        dense = (
            check_resolvent_domination(pair)[0],
            check_resolvent_domination(reversed_pair)[0],
        )
        monkeypatch.setattr(dom, "DENSE_CAP", 2)
        probed = (
            check_resolvent_domination(pair, alphas=(0.5, 1.0, 10.0))[0],
            check_resolvent_domination(reversed_pair, alphas=(0.5, 1.0, 10.0))[0],
        )
        assert dense == probed == (True, False)

    @pytest.mark.parametrize("cap, certified", [(6, True), (5, False)])
    def test_certified_exactly_up_to_dense_cap(self, monkeypatch, cap, certified):
        import graphforms.domination as dom

        monkeypatch.setattr(dom, "DENSE_CAP", cap)
        pair = dirichlet_neumann_pair(n=6)
        for p in (pair, FormPair(lower=pair.upper, upper=pair.lower)):
            _, worst = check_resolvent_domination(p, alphas=(0.5, 10.0))
            assert worst["certified"] is certified
        d = check_silverstein(pair).to_dict()
        assert d["resolvent_certified"] is certified
        # The flag has its own key; resolvent_worst keeps its three keys.
        assert sorted(d["resolvent_worst"]) == ["alpha", "kind", "violation"]


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
