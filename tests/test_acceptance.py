"""Acceptance suite: one test per exit criterion, each printing PASS or FAIL.

Tolerances are pinned here and nowhere else.  Criteria operate on seeded
random corpora, so reruns are reproducible.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

import math
import time

import numpy as np

from graphforms import (
    CounterexampleSetup,
    MonotoneFormSpec,
    ResolventHandle,
    apply_contraction,
    assemble,
    check_form_inequality_nonneg,
    check_order_ideal,
    check_parallelogram,
    check_resolvent_domination,
    contraction_catalog,
    default_alpha_ladder,
    effective_killing,
    killing_difference_spec,
    monotone_equivalence_test,
    reflected_form,
    run_counterexample,
    truncated_form,
    truncated_form_via_resolvent,
    verify_maximality,
)
from graphforms.corpus import (
    domination_pair_corpus,
    form_corpus,
    induced_active_graph,
    random_connected_graph,
    random_cutoff,
    random_function,
    random_masked_function,
    saturating_exhaustion,
    zero_killing,
)
from graphforms.reflection import form_oracle_killing, form_oracle_main
from graphforms.scenarios import NOT_REFUTED, REFUTED


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_decomposition_oracle_equivalence():
    """main/killing match the closed-form oracles at 1e-10 relative; the
    reflected form reproduces the energy on domain probes at 1e-9."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_main = worst_kill = worst_ext = 0.0
    for q, ex in form_corpus(seed=100, count=100, n_min=4, n_max=50):
        for _ in range(10):
            f = random_function(rng, q.n)
            res = reflected_form(q, ex, f)
            om = form_oracle_main(q, f)
            ok_ = form_oracle_killing(q, f)
            worst_main = max(worst_main, abs(res.main_value - om) / (1.0 + abs(om)))
            worst_kill = max(worst_kill, abs(res.killing_value - ok_) / (1.0 + abs(ok_)))
        fd = random_masked_function(rng, q)
        qv = q.evaluate(fd)
        ref = reflected_form(q, ex, fd).reflected_value
        worst_ext = max(worst_ext, abs(ref - qv) / (1.0 + abs(qv)))
    elapsed = time.monotonic() - t0
    ok = worst_main <= 1e-10 and worst_kill <= 1e-10 and worst_ext <= 1e-9 and elapsed < 60
    report(
        "criterion 1: decomposition oracle equivalence",
        ok,
        f"main {worst_main:.2e}, killing {worst_kill:.2e}, "
        f"extension {worst_ext:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_truncated_route_equivalence():
    """Algebraic truncated values agree with the resolvent-ladder limit at
    1e-5 relative; the plain ladder is nondecreasing up to 1e-10."""
    rng = np.random.default_rng(201)
    worst_rel = 0.0
    worst_decrease = -math.inf
    count = 0
    while count < 20:
        q, _ = form_corpus(seed=200 + count, count=1, n_min=4, n_max=16)[0]
        phi = random_cutoff(rng, q)
        f = random_function(rng, q.n)
        algebraic = truncated_form(q, phi, f).value
        if algebraic < 1e-6:
            continue
        count += 1
        handle = ResolventHandle(q)
        ladder = default_alpha_ladder(handle)
        res = truncated_form_via_resolvent(handle, phi, f, alpha_ladder=ladder)
        worst_rel = max(worst_rel, abs(res.limit - algebraic) / max(abs(algebraic), abs(res.limit)))
        pf = handle.restrict(phi * f)
        plain = [a * handle.approximating_form(a, pf) for a in ladder]
        for a, b in zip(plain, plain[1:]):
            worst_decrease = max(worst_decrease, (a - b) / max(1.0, abs(a)))
    ok = worst_rel <= 1e-5 and worst_decrease <= 1e-10
    report(
        "criterion 2: truncated-form route equivalence",
        ok,
        f"worst rel {worst_rel:.2e}, worst ladder decrease {worst_decrease:.2e}",
    )


def test_criterion_3_resolvent_markovianity():
    """0 <= alpha G_alpha 1 <= 1 + 1e-10 and positivity on 500 probes."""
    rng = np.random.default_rng(301)
    probes = 0
    worst_low = math.inf
    worst_high = -math.inf
    worst_pos = math.inf
    forms = form_corpus(seed=300, count=12, n_min=4, n_max=30)
    while probes < 500:
        q, _ = forms[probes % len(forms)]
        handle = ResolventHandle(q)
        alpha = float(rng.choice([0.5, 1.0, 5.0, 50.0, 1000.0]))
        u = alpha * handle.apply(alpha, np.ones(handle.dim))
        worst_low = min(worst_low, float(u.min()))
        worst_high = max(worst_high, float(u.max()))
        v = handle.apply(alpha, rng.uniform(0.0, 2.0, handle.dim))
        worst_pos = min(worst_pos, float(v.min()))
        probes += 2
    ok = worst_low >= -1e-10 and worst_high <= 1.0 + 1e-10 and worst_pos >= -1e-10
    report(
        "criterion 3: resolvent Markovianity",
        ok,
        f"{probes} probes, alpha*G*1 in [{worst_low:.2e}, {worst_high:.10f}], "
        f"min positive-probe entry {worst_pos:.2e}",
    )


def test_criterion_4_domination_criterion_equivalence():
    """Resolvent domination and the coefficient-decided cone criterion agree
    on every constructed pair."""
    pairs = domination_pair_corpus(seed=400, count=50, n_max=12)
    disagreements = []
    for k, pair in enumerate(pairs):
        crit_ii = check_order_ideal(pair) and check_form_inequality_nonneg(pair).ok
        crit_i, worst = check_resolvent_domination(pair)
        if crit_i != crit_ii:
            disagreements.append((k, crit_i, crit_ii, worst))
    ok = not disagreements
    report(
        "criterion 4: domination criterion equivalence",
        ok,
        f"{len(pairs)} pairs, {len(disagreements)} disagreements",
    )


def test_criterion_5_counterexample_reproduction():
    """Both candidate forms are Silverstein extensions, the coupling form
    annihilates constants, and the tent-probe gap is exactly one."""
    t0 = time.monotonic()
    details = []
    ok = True
    for n in (5, 51, 201):
        rep = run_counterexample(CounterexampleSetup(n=n))
        ok &= (
            rep.silverstein_ext1
            and rep.silverstein_ext2
            and abs(rep.ext1_at_one) <= 1e-12
            and abs(rep.gap - 1.0) <= 1e-9
            and rep.contradiction_reproduced
        )
        details.append(f"n={n} gap={rep.gap:.2e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    report(
        "criterion 5: counterexample reproduction",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_6_recurrence_properties():
    """The main part annihilates constants on every corpus instance and the
    reflected value at 1 equals the total effective killing."""
    worst_main = 0.0
    worst_total = 0.0
    for q, ex in form_corpus(seed=600, count=40, n_min=4, n_max=40):
        res = reflected_form(q, ex, np.ones(q.n))
        worst_main = max(worst_main, abs(res.main_value))
        total = float(np.sum(effective_killing(q.graph, q.active, q.killing_extra, q.couplings)))
        worst_total = max(worst_total, abs(res.reflected_value - total) / (1.0 + total))
    ok = worst_main <= 1e-10 and worst_total <= 1e-10
    report(
        "criterion 6: recurrence properties",
        ok,
        f"main(1) worst {worst_main:.2e}, killing-mass worst rel {worst_total:.2e}",
    )


def test_criterion_7_markov_contraction_suite():
    """Energy and reflected values never increase under catalog contractions;
    the parallelogram defect stays below 1e-10 relative."""
    rng = np.random.default_rng(701)
    worst_q = worst_ref = -math.inf
    parallelogram_ok = True
    for q, ex in form_corpus(seed=700, count=15, n_min=4, n_max=30):
        f_dom = random_masked_function(rng, q)
        f_any = random_function(rng, q.n)
        qf = q.evaluate(f_dom)
        base = reflected_form(q, ex, f_any)
        for C in contraction_catalog():
            worst_q = max(worst_q, q.evaluate(apply_contraction(C, f_dom)) - qf)
            res = reflected_form(q, ex, apply_contraction(C, f_any))
            worst_ref = max(worst_ref, res.reflected_value - base.reflected_value)
        pairs = [
            (random_masked_function(rng, q), random_masked_function(rng, q))
            for _ in range(20)
        ]
        parallelogram_ok &= check_parallelogram(q, pairs, tol=1e-10).passed
    ok = worst_q <= 1e-12 and worst_ref <= 1e-10 and parallelogram_ok
    report(
        "criterion 7: Markov/contraction suite",
        ok,
        f"energy excess {worst_q:.2e}, reflected excess {worst_ref:.2e}, "
        f"parallelogram {'ok' if parallelogram_ok else 'failed'}",
    )


def test_criterion_8_monotone_equivalence():
    """The killing-difference forms of the corpus pass both monotonicity
    branches with agreeing verdicts, and the dimension-2 positive-off-diagonal
    matrix is refuted deterministically."""
    agree_ok = True
    not_refuted_ok = True
    for k, (q, _) in enumerate(form_corpus(seed=800, count=20, n_min=4, n_max=30)):
        spec = killing_difference_spec(q, seed=k)
        rep = monotone_equivalence_test(spec)
        agree_ok &= rep.agree
        not_refuted_ok &= rep.monotone == NOT_REFUTED and rep.nonneg_definite == NOT_REFUTED
    witness = monotone_equivalence_test(MonotoneFormSpec(np.array([[1.0, 0.5], [0.5, 1.0]])))
    deterministic = witness.monotone == REFUTED and bool(witness.monotone_witness)
    ok = agree_ok and not_refuted_ok and deterministic and witness.agree
    report(
        "criterion 8: monotone/nonnegative-definite equivalence",
        ok,
        f"corpus agree {agree_ok}, not refuted {not_refuted_ok}, "
        f"dim-2 witness refuted {deterministic}",
    )


def test_criterion_9_maximality_probe():
    """No dominating candidate drops below the main part; the unmasked form
    of the active subgraph achieves equality."""
    rng = np.random.default_rng(901)
    all_ok = True
    equality_ok = True
    excluded_total = 0
    for trial in range(20):
        g = zero_killing(random_connected_graph(rng, n_min=8, n_max=16))
        boundary = [g.ids[int(rng.integers(0, g.n))]]
        base = assemble(g, boundary=boundary)
        neumann = assemble(g)
        main_form = assemble(induced_active_graph(g, base.active))
        probes = [random_function(rng, g.n) for _ in range(5)]
        rep = verify_maximality(
            base, saturating_exhaustion(g), [neumann, base, main_form], probes
        )
        all_ok &= rep.ok and not rep.excluded
        excluded_total += len(rep.excluded)
        equality_ok &= rep.verdicts[2].achieves_equality
    ok = all_ok and equality_ok
    report(
        "criterion 9: maximality of the main part",
        ok,
        f"20 graphs, {excluded_total} candidates excluded, equality {equality_ok}",
    )
