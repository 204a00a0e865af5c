"""Counterexample study, recurrence classification, monotone equivalence."""

import math

import numpy as np
import pytest

from graphforms import (
    CounterexampleSetup,
    Exhaustion,
    MonotoneFormSpec,
    assemble,
    classify_recurrence,
    effective_killing,
    killing_difference_spec,
    make_path,
    monotone_equivalence_test,
    run_counterexample,
    single_vertex,
)
from graphforms.corpus import form_corpus, saturating_exhaustion
from graphforms.resolvent import assemble_stiffness
from graphforms.scenarios import NOT_REFUTED, REFUTED, EquivalenceReport, _grid


def loop_equivalence_test(spec, samples=500, seed=42, tol=1e-10):
    """Pair-by-pair grid search, the reference for the array-screened grid."""
    rng = np.random.default_rng(seed)
    mono_witness = {}
    nonneg_witness = {}

    if spec.dim <= 3:
        grid = _grid(spec.dim)
        for g in grid:
            qg = spec.q(g)
            for f in grid:
                if not mono_witness and np.all(np.abs(f) <= np.abs(g)):
                    if spec.q(f) > qg + tol:
                        mono_witness = {
                            "f": f.tolist(), "g": g.tolist(),
                            "q_f": spec.q(f), "q_g": qg,
                        }
                if not nonneg_witness and np.all(f * g >= 0.0):
                    val = spec.q(f, g)
                    if val < -tol:
                        nonneg_witness = {"f": f.tolist(), "g": g.tolist(), "q_fg": val}
            if mono_witness and nonneg_witness:
                break

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
        assert rep["reflected_recurrent"] == (ceff_total <= 1e-10)

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


class TestMonotoneEquivalence:
    def test_positive_off_diagonal_refuted_deterministically(self):
        spec = MonotoneFormSpec(np.array([[1.0, 0.5], [0.5, 1.0]]))
        rep = monotone_equivalence_test(spec, samples=0)  # grid only
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
        rep = monotone_equivalence_test(spec, samples=300, seed=1)
        assert rep.monotone == NOT_REFUTED
        assert rep.nonneg_definite == NOT_REFUTED
        assert rep.agree

    def test_killing_difference_forms_not_refuted(self):
        for k, (q, _) in enumerate(form_corpus(45, 6, n_max=25)):
            spec = killing_difference_spec(q, seed=k)
            rep = monotone_equivalence_test(spec, samples=300, seed=k)
            assert rep.monotone == NOT_REFUTED
            assert rep.nonneg_definite == NOT_REFUTED

    def test_edge_form_verdicts_agree(self):
        # a form with an off-diagonal edge term is not monotone, and its
        # refutation must show up on both branches simultaneously
        q = assemble(make_path(2, 1.0), extra_killing={"v0": 1.0, "v1": 1.0})
        K = assemble_stiffness(q).toarray()
        spec = MonotoneFormSpec(K)
        rep = monotone_equivalence_test(spec, samples=0)
        assert rep.monotone == REFUTED
        assert rep.nonneg_definite == REFUTED
        assert rep.agree

    def test_grid_screen_matches_pair_by_pair_search(self):
        rng = np.random.default_rng(20)
        refuted = {REFUTED: 0, NOT_REFUTED: 0}
        for k in range(40):
            spec = random_spec(rng, int(rng.integers(1, 4)))
            got = monotone_equivalence_test(spec, samples=30, seed=k).to_dict()
            assert got == loop_equivalence_test(spec, samples=30, seed=k).to_dict()
            refuted[got["monotone"]] += 1
        assert min(refuted.values()) >= 8

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            MonotoneFormSpec(np.array([[1.0, 0.2], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="dimension 6"):
            MonotoneFormSpec(np.eye(7))
        with pytest.raises(ValueError, match="nonnegative"):
            MonotoneFormSpec(np.array([[-1.0]]))
