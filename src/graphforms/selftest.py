"""Named property checks behind the command-line selftest.

Each check exercises one invariant of one module on a seeded corpus and
returns pass/fail with a short detail string.  The pytest suite wraps the
same registry, so the CLI and the tests cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import corpus
from .domination import (
    FormPair,
    check_form_inequality_nonneg,
    check_order_ideal,
    check_resolvent_domination,
)
from .forms import (
    apply_contraction,
    assemble,
    check_parallelogram,
    contraction_catalog,
)
from .graph import (
    IntegerLineGenerator,
    build_exhaustion,
    load_graph,
    emit_graph,
    make_path,
    validate,
)
from .reflection import (
    form_oracle_killing,
    form_oracle_main,
    reflected_form,
    truncated_form,
)
from .resolvent import ResolventHandle, default_alpha_ladder, truncated_coefficients
from .scenarios import (
    NOT_REFUTED,
    CounterexampleSetup,
    classify_recurrence,
    killing_difference_spec,
    monotone_equivalence_test,
    run_counterexample,
)

SEED = 42


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# -- graph model -------------------------------------------------------------


def check_exhaustion_cutoffs(corpora=None):
    gen = IntegerLineGenerator()
    ex = build_exhaustion(gen, "0", n_levels=4, plateau=2)
    ok = True
    for k, (F, chi) in enumerate(zip(ex.sets, ex.cutoffs)):
        ok &= float(chi[F].min()) == 1.0 and float(chi.max()) == 1.0
        if k + 1 < ex.levels:
            ok &= bool(np.all(ex.cutoffs[k] <= ex.cutoffs[k + 1] + 0.0))
    return _result("exhaustion-cutoff-invariants", ok)


def check_graph_roundtrip(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = 0
    for _ in range(10):
        g = corpus.random_connected_graph(rng, n_max=20)
        g2 = load_graph(emit_graph(g))
        worst = max(worst, len(validate(g2)))
        if g2.to_dict() != g.to_dict():
            return _result("graph-json-roundtrip", False, "dict mismatch")
    return _result("graph-json-roundtrip", worst == 0)


def check_path_energy(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 11):
        h = float(rng.uniform(0.1, 2.0))
        q = assemble(make_path(n, h))
        f = rng.uniform(-2, 2, n)
        direct = math.fsum((f[i + 1] - f[i]) ** 2 / h for i in range(n - 1))
        worst = max(worst, abs(q.evaluate(f) - direct))
    return _result("path-discrete-dirichlet-identity", worst <= 1e-12, f"worst {worst:.2e}")


# -- form engine -------------------------------------------------------------


def _forms(corpora, seed, count, n_max):
    """``corpus.form_corpus(seed, count, n_max=n_max)``.

    ``corpora`` is the dict that one ``run_selftest`` call shares among its
    checks: each (seed, n_max) stream is built there once, and a shorter
    corpus is a prefix of a longer one.  Forms are read-only, so sharing them,
    and the generators they cache, changes no check's result.  A check run on
    its own (corpora None) builds its own corpus.
    """
    if corpora is None:
        return corpus.form_corpus(seed, count, n_max=n_max)
    built = corpora.get((seed, n_max), [])
    if len(built) < count:
        built = corpora[seed, n_max] = corpus.form_corpus(seed, count, n_max=n_max)
    return built[:count]


def _small_forms(corpora, count=8, n_max=20):
    return [q for q, _ in _forms(corpora, SEED, count, n_max)]


def check_markov_contractions(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q in _small_forms(corpora):
        for C in contraction_catalog():
            f = corpus.random_masked_function(rng, q)
            worst = max(worst, q.evaluate(apply_contraction(C, f)) - q.evaluate(f))
    return _result("markov-contraction-property", worst <= 1e-12, f"worst excess {worst:.2e}")


def check_homogeneity(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q in _small_forms(corpora):
        f = corpus.random_masked_function(rng, q)
        qf = q.evaluate(f)
        for lam in (-2.0, -1.0, 0.0, 0.5, 3.0):
            rel = abs(q.evaluate(lam * f) - lam * lam * qf) / (1.0 + lam * lam * qf)
            worst = max(worst, rel)
    return _result("quadratic-homogeneity", worst <= 1e-12, f"worst rel {worst:.2e}")


def check_lattice_stability(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q in _small_forms(corpora):
        f = corpus.random_masked_function(rng, q)
        g = corpus.random_masked_function(rng, q)
        rf, rg = math.sqrt(q.evaluate(f)), math.sqrt(q.evaluate(g))
        for h in (np.minimum(f, g), np.maximum(f, g)):
            worst = max(worst, math.sqrt(q.evaluate(h)) - rf - rg)
    return _result("lattice-stability", worst <= 1e-10, f"worst excess {worst:.2e}")


def check_bounded_product(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q in _small_forms(corpora):
        f = corpus.random_masked_function(rng, q, bound=1.5)
        g = corpus.random_masked_function(rng, q, bound=1.5)
        lhs = math.sqrt(q.evaluate(f * g))
        rhs = float(np.abs(f).max()) * math.sqrt(q.evaluate(g)) + float(
            np.abs(g).max()
        ) * math.sqrt(q.evaluate(f))
        worst = max(worst, lhs - rhs)
    return _result("bounded-product-bound", worst <= 1e-10, f"worst excess {worst:.2e}")


def check_parallelogram_law(corpora=None):
    rng = np.random.default_rng(SEED)
    ok = True
    worst = 0.0
    for q in _small_forms(corpora):
        pairs = [
            (corpus.random_masked_function(rng, q), corpus.random_masked_function(rng, q))
            for _ in range(20)
        ]
        rep = check_parallelogram(q, pairs, tol=1e-10)
        ok &= rep.passed
        worst = max(worst, rep.max_defect)
    return _result("parallelogram-law", ok, f"max defect {worst:.2e}")


# -- resolvent engine ---------------------------------------------------------


def check_sub_markov(corpora=None):
    worst_low, worst_high = math.inf, -math.inf
    for q, _ in _forms(corpora, SEED, 6, 30):
        handle = ResolventHandle(q)
        ones = np.ones(handle.dim)
        for alpha in (0.5, 1.0, 10.0, 1e3):
            u = alpha * handle.apply(alpha, ones)
            worst_low = min(worst_low, float(u.min()))
            worst_high = max(worst_high, float(u.max()))
    ok = worst_low >= -1e-10 and worst_high <= 1.0 + 1e-10
    return _result("resolvent-sub-markov", ok, f"range [{worst_low:.3e}, {worst_high:.6f}]")


def check_positivity_preserving(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = math.inf
    for q, _ in _forms(corpora, SEED, 6, 30):
        handle = ResolventHandle(q)
        for alpha in (0.5, 1.0, 10.0):
            f = rng.uniform(0.0, 2.0, handle.dim)
            worst = min(worst, float(handle.apply(alpha, f).min()))
    return _result("resolvent-positivity", worst >= -1e-10, f"min entry {worst:.3e}")


def check_monotone_ladder(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q, _ in _forms(corpora, SEED, 5, 16):
        handle = ResolventHandle(q)
        f = rng.uniform(-2, 2, handle.dim)
        vals = [a * handle.approximating_form(a, f) for a in default_alpha_ladder(handle)]
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, (a - b) / max(1.0, abs(a)))
    return _result("monotone-alpha-ladder", worst <= 1e-10, f"worst decrease {worst:.2e}")


def check_resolvent_identity(corpora=None):
    worst = 0.0
    for q, _ in _forms(corpora, SEED + 1, 5, 12):
        handle = ResolventHandle(q)
        for alpha, beta in ((0.5, 2.0), (1.0, 10.0)):
            Ga = handle.resolvent_matrix(alpha)
            Gb = handle.resolvent_matrix(beta)
            lhs = Ga - Gb
            rhs = (beta - alpha) * (Ga @ Gb)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _result("resolvent-identity", worst <= 1e-8, f"worst {worst:.2e}")


def check_coefficient_consistency(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    bounds_ok = True
    for q, _ in _forms(corpora, SEED + 2, 5, 12):
        handle = ResolventHandle(q)
        act = handle.generator.active_index
        k = min(4, len(act))
        chosen = rng.choice(act, size=k, replace=False)
        partition = [[int(v)] for v in chosen]
        phi = corpus.random_cutoff(rng, q)
        alpha = 1.0 + float(rng.uniform(0, 2))
        table = truncated_coefficients(handle, alpha, phi, partition)
        bounds_ok &= bool(
            (table.b_phi >= -1e-10).all()
            and (table.b_phi <= table.b + 1e-10).all()
            and (table.c_phi >= -1e-10).all()
            and (table.c_phi <= table.c + 1e-10).all()
        )
        values = rng.uniform(-2, 2, k)
        f = np.zeros(handle.dim)
        pos = {v: i for i, v in enumerate(act)}
        for val, v in zip(values, chosen):
            f[pos[int(v)]] = val
        worst = max(worst, abs(table.reconstruct(values) - handle.approximating_form(alpha, f)))
    ok = worst <= 1e-10 and bounds_ok
    return _result("coefficient-consistency", ok, f"worst {worst:.2e}, bounds {bounds_ok}")


# -- reflection ---------------------------------------------------------------


def check_phi_monotonicity(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q in _small_forms(corpora):
        f = corpus.random_function(rng, q.n)
        psi = corpus.random_cutoff(rng, q)
        phi = psi * rng.uniform(0.0, 1.0, q.n)
        worst = max(worst, truncated_form(q, phi, f).value - truncated_form(q, psi, f).value)
    return _result("truncated-monotone-in-cutoff", worst <= 1e-10, f"worst {worst:.2e}")


def check_truncated_below_energy(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q in _small_forms(corpora):
        f = corpus.random_masked_function(rng, q)
        phi = corpus.random_cutoff(rng, q)
        worst = max(worst, truncated_form(q, phi, f).value - q.evaluate(f))
    return _result("truncated-below-energy", worst <= 1e-10, f"worst {worst:.2e}")


def check_lsc_in_phi(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q in _small_forms(corpora, count=5):
        f = corpus.random_function(rng, q.n)
        phi = corpus.random_cutoff(rng, q) * 0.9
        target = truncated_form(q, phi, f).value
        tail = [
            truncated_form(q, phi * (1.0 + s * 2.0**-k), f).value
            for k in (40, 42, 44)
            for s in (-1.0, 1.0)
        ]
        worst = max(worst, target - min(tail))
    return _result("truncated-lsc-in-cutoff", worst <= 1e-8, f"worst {worst:.2e}")


def check_reflected_extension(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q, ex in _forms(corpora, SEED + 3, 8, 30):
        f = corpus.random_masked_function(rng, q)
        res = reflected_form(q, ex, f)
        worst = max(worst, abs(res.reflected_value - q.evaluate(f)) / (1.0 + q.evaluate(f)))
    return _result("reflected-extends-energy", worst <= 1e-9, f"worst rel {worst:.2e}")


def check_finite_exactness(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q, ex in _forms(corpora, SEED + 4, 8, 30):
        f = corpus.random_function(rng, q.n)
        res = reflected_form(q, ex, f)
        om, ok_ = form_oracle_main(q, f), form_oracle_killing(q, f)
        worst = max(
            worst,
            abs(res.main_value - om) / (1.0 + abs(om)),
            abs(res.killing_value - ok_) / (1.0 + abs(ok_)),
        )
    return _result("finite-graph-oracle-exactness", worst <= 1e-10, f"worst rel {worst:.2e}")


def check_decomposition_markov(corpora=None):
    rng = np.random.default_rng(SEED)
    worst = -math.inf
    for q, ex in _forms(corpora, SEED + 5, 4, 20):
        f = corpus.random_function(rng, q.n)
        base = reflected_form(q, ex, f)
        for C in contraction_catalog():
            res = reflected_form(q, ex, apply_contraction(C, f))
            worst = max(
                worst,
                res.main_value - base.main_value,
                res.reflected_value - base.reflected_value,
            )
    return _result("decomposition-markov", worst <= 1e-10, f"worst excess {worst:.2e}")


# -- domination ----------------------------------------------------------------


def check_criterion_equivalence(corpora=None):
    pairs = corpus.domination_pair_corpus(SEED, 50)
    disagreements = 0
    for pair in pairs:
        crit_ii = check_order_ideal(pair) and check_form_inequality_nonneg(pair).ok
        crit_i, _ = check_resolvent_domination(pair)
        disagreements += crit_i != crit_ii
    return _result("domination-criterion-equivalence", disagreements == 0,
                   f"{disagreements} disagreements over {len(pairs)} pairs")


def check_domination_reflexivity(corpora=None):
    for q, _ in _forms(corpora, SEED + 6, 5, 12):
        ok, worst = check_resolvent_domination(FormPair(lower=q, upper=q))
        if not ok:
            return _result("domination-reflexivity", False, str(worst))
    return _result("domination-reflexivity", True)


def check_domination_transitivity(corpora=None):
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(10):
        graph = corpus.random_connected_graph(rng, n_max=10)
        b_all = corpus.random_boundary(rng, graph)
        b_mid = [v for v in b_all if rng.random() < 0.6]
        a = assemble(graph, boundary=b_all)
        b = assemble(graph, boundary=b_mid)
        c = assemble(graph)
        ab, _ = check_resolvent_domination(FormPair(lower=a, upper=b))
        bc, _ = check_resolvent_domination(FormPair(lower=b, upper=c))
        ac, _ = check_resolvent_domination(FormPair(lower=a, upper=c))
        if ab and bc:
            checked += 1
            if not ac:
                return _result("domination-transitivity", False, "chain broken")
    return _result("domination-transitivity", True, f"{checked} chains checked")


# -- scenarios ------------------------------------------------------------------


def check_gap_invariance(corpora=None):
    for n in (5, 7, 9, 51):
        rep = run_counterexample(CounterexampleSetup(n=n))
        if abs(rep.gap - 1.0) > 1e-9:
            return _result("counterexample-gap-invariance", False, f"n={n} gap={rep.gap}")
    return _result("counterexample-gap-invariance", True)


def check_corpus_monotone(corpora=None):
    for k, (q, _) in enumerate(_forms(corpora, SEED + 7, 10, 30)):
        spec = killing_difference_spec(q, seed=k)
        rep = monotone_equivalence_test(spec)
        if rep.monotone != NOT_REFUTED or rep.nonneg_definite != NOT_REFUTED:
            return _result("killing-difference-monotone", False, str(rep.to_dict()))
    return _result("killing-difference-monotone", True)


def check_counterexample_killing_persists(corpora=None):
    setup = CounterexampleSetup(n=21)
    _, _, _, ext2 = setup.build()
    ex = corpus.saturating_exhaustion(ext2.graph)
    rep = classify_recurrence(ext2, ex)
    ok = rep["main_recurrent"] and not rep["reflected_recurrent"]
    return _result("counterexample-killing-persists", ok, str(rep))


REGISTRY = [
    check_exhaustion_cutoffs,
    check_graph_roundtrip,
    check_path_energy,
    check_markov_contractions,
    check_homogeneity,
    check_lattice_stability,
    check_bounded_product,
    check_parallelogram_law,
    check_sub_markov,
    check_positivity_preserving,
    check_monotone_ladder,
    check_resolvent_identity,
    check_coefficient_consistency,
    check_phi_monotonicity,
    check_truncated_below_energy,
    check_lsc_in_phi,
    check_reflected_extension,
    check_finite_exactness,
    check_decomposition_markov,
    check_criterion_equivalence,
    check_domination_reflexivity,
    check_domination_transitivity,
    check_gap_invariance,
    check_corpus_monotone,
    check_counterexample_killing_persists,
]


def run_selftest(echo=None) -> list:
    """Run every registered check; optionally echo one line per check.

    The checks share the seeded corpora they build (see ``_forms``) for this
    call only.
    """
    results = []
    corpora = {}
    for fn in REGISTRY:
        res = fn(corpora)
        results.append(res)
        if echo is not None:
            status = "PASS" if res.passed else "FAIL"
            detail = f"  ({res.detail})" if res.detail else ""
            echo(f"[{status}] {res.name}{detail}")
    return results
