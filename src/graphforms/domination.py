"""Domination and Silverstein-extension checks for pairs of graph forms.

Three equivalent criteria are implemented independently so they can be played
against each other:

  (i)   resolvent domination, |G_alpha f| <= G~_alpha |f| for all alpha, f;
  (ii)  domain containment (an order ideal for mask domains) together with
        Q(f, g) >= Q~(f, g) for nonnegative f, g in the smaller domain;
  (iii) the extension variant: values agree on the smaller domain and the
        smaller domain is an ideal in the larger one (Silverstein extension).

On a finite vertex space the resolvents are entrywise nonnegative matrices,
so criterion (i) reduces to an entrywise matrix comparison.  The cone
inequality in (ii) and the agreement in (iii) are both decided exactly from
D = K - K~, the difference of the stiffness matrices restricted to the smaller
active set: (ii) holds iff D >= 0 entrywise (indicator functions are
admissible nonnegative probes, so the coefficient condition is necessary as
well as sufficient), and the forms agree on the smaller domain iff D = 0 (a
quadratic form determines its symmetric matrix).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .forms import GraphForm
from .graph import Exhaustion
from .reflection import main_part
from .resolvent import ResolventHandle, _restrict, assemble_stiffness

#: Largest dimension whose resolvent matrices are compared entrywise (every
#: basis probe exactly); above it only the first 64 basis vectors are probed,
#: so no n x n array is built.
DENSE_CAP = 256

_DEFAULT_ALPHAS = tuple(float(a) for a in np.logspace(-3.0, 3.0, 13))


@dataclass
class FormPair:
    """Lower form Q and upper candidate Q~ over the same measure space."""

    lower: GraphForm
    upper: GraphForm

    def __post_init__(self):
        if self.lower.graph.ids != self.upper.graph.ids:
            raise ValueError("forms must share the same vertex index space")
        if not np.array_equal(self.lower.graph.m, self.upper.graph.m):
            raise ValueError("forms must share the same vertex measure")


def _resolvent_full(handle: ResolventHandle, alpha: float) -> np.ndarray:
    """Resolvent matrix embedded by zero on inactive rows and columns."""
    n = handle.form.n
    G = np.zeros((n, n))
    idx = handle.generator.active_index
    G[np.ix_(idx, idx)] = handle.resolvent_matrix(alpha)
    return G


def check_resolvent_domination(pair: FormPair, alphas=None, tol: float = 1e-9) -> tuple:
    """Criterion (i): |G_alpha f| <= G~_alpha |f| elementwise, all probes and alpha.

    Each form gets one resolvent handle for all alphas, so both resolvents
    come from one sparse LU factor per alpha.  For dimensions up to DENSE_CAP
    the resolvent matrices are compared entrywise, which covers every basis
    probe exactly.  Above it the probes are the first 64 basis vectors and 16
    seeded random sign vectors, each through the resolvent applications.
    Returns (ok, worst) where worst describes the largest violation found and
    ``worst["certified"]`` says whether every basis probe was compared (n <=
    DENSE_CAP); a probed "ok" is no certificate, a probed violation is.
    """
    if alphas is None:
        alphas = _DEFAULT_ALPHAS
    n = pair.lower.n
    exact = n <= DENSE_CAP
    h_low = ResolventHandle(pair.lower)
    h_up = ResolventHandle(pair.upper)
    probes = []
    if not exact:
        rng = np.random.default_rng(42)
        probes = [np.eye(1, n, k)[0] for k in range(min(n, 64))]
        probes += [rng.choice([-1.0, 1.0], size=n) for _ in range(16)]
    worst = {"violation": -math.inf, "alpha": None, "kind": None, "certified": exact}

    def record(v, alpha, kind):
        if v > worst["violation"]:
            worst.update(violation=float(v), alpha=float(alpha), kind=kind)

    for alpha in alphas:
        if exact:
            G_low = _resolvent_full(h_low, alpha)
            G_up = _resolvent_full(h_up, alpha)
            record(float((np.abs(G_low) - G_up).max()), alpha, "basis")
        for k, f in enumerate(probes):
            u = h_low.extend(h_low.apply(alpha, h_low.restrict(f)))
            w = h_up.extend(h_up.apply(alpha, h_up.restrict(np.abs(f))))
            record(float((np.abs(u) - w).max()), alpha, f"probe_{k}")

    return worst["violation"] <= tol, worst


def check_order_ideal(pair: FormPair) -> bool:
    """Criterion (ii) ideal condition; exact mask containment for mask domains."""
    return bool(np.all(pair.upper.active[pair.lower.active]))


@dataclass
class InequalityResult:
    """Outcome of the nonnegative-cone inequality Q(f,g) >= Q~(f,g).

    The coefficient path decides it exactly, so ``certified`` is always true
    and ``method`` always "coefficient"; both stay for the report's keys.
    """

    refuted: bool
    worst_value: float
    witness: dict = field(default_factory=dict)
    certified: bool = True
    method: str = "coefficient"

    @property
    def ok(self) -> bool:
        return not self.refuted


def _stiffness_difference(pair: FormPair) -> tuple:
    """(K, K~, D = K - K~), each restricted to the lower active set.

    D is canonical: its data run in row-major order and store no zeros.
    """
    K_low = _restrict(assemble_stiffness(pair.lower), pair.lower.active)
    K_up = _restrict(assemble_stiffness(pair.upper), pair.lower.active)
    D = K_low - K_up
    D.sum_duplicates()
    return K_low, K_up, D


def _first_min(D: sp.csr_matrix) -> tuple:
    """Row-major first position of the smallest entry of canonical D, zeros included."""
    k = int(np.argmin(D.data)) if D.nnz else 0
    rows, cols = D.shape
    if D.nnz == rows * cols or (D.nnz and not D.data[k] >= 0.0):
        return int(np.searchsorted(D.indptr, k, side="right")) - 1, int(D.indices[k])
    # The minimum is an implicit zero: the first gap of the first row with one.
    i = int(np.flatnonzero(np.diff(D.indptr) < cols)[0])
    stored = D.indices[D.indptr[i]:D.indptr[i + 1]]
    j = int(np.flatnonzero(np.append(stored, cols) != np.arange(len(stored) + 1))[0])
    return i, j


def check_form_inequality_nonneg(pair: FormPair, tol: float = 1e-10) -> InequalityResult:
    """Decide Q(f,g) >= Q~(f,g) for nonnegative f, g supported on the lower mask.

    The difference of stiffness matrices restricted to the lower active set
    must be entrywise nonnegative; a negative entry yields an explicit
    indicator-pair witness.  The difference stays sparse; the witness is its
    first smallest entry in row-major order.
    """
    idx = np.flatnonzero(pair.lower.active)
    D = _stiffness_difference(pair)[2]
    i, j = _first_min(D)
    worst = float(D[i, j])
    witness = {}
    if worst < -tol:
        f = np.eye(1, pair.lower.n, idx[i])[0]
        g = np.eye(1, pair.lower.n, idx[j])[0]
        witness = {
            "f_vertex": pair.lower.graph.ids[idx[i]],
            "g_vertex": pair.lower.graph.ids[idx[j]],
            "bilinear_gap": float(pair.lower.bilinear(f, g) - pair.upper.bilinear(f, g)),
        }
    return InequalityResult(refuted=bool(witness), worst_value=worst, witness=witness)


@dataclass
class DominationReport:
    resolvent_ok: bool
    resolvent_worst: dict
    ideal_ok: bool
    inequality: InequalityResult
    extension_ok: bool
    extension_worst: float
    silverstein: bool
    defects: list

    def to_dict(self) -> dict:
        return {
            "resolvent_ok": self.resolvent_ok,
            # the certified flag has its own key
            "resolvent_worst": {
                k: v for k, v in self.resolvent_worst.items() if k != "certified"
            },
            "resolvent_certified": self.resolvent_worst["certified"],
            "ideal_ok": self.ideal_ok,
            "inequality_ok": self.inequality.ok,
            "inequality_certified": self.inequality.certified,
            "inequality_method": self.inequality.method,
            "inequality_worst": self.inequality.worst_value,
            "inequality_witness": self.inequality.witness,
            "extension_ok": self.extension_ok,
            "extension_worst": self.extension_worst,
            "silverstein": self.silverstein,
            "defects": list(self.defects),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def check_extension(pair: FormPair, rel_tol: float = 1e-10) -> tuple:
    """Criterion (iii): the forms agree on the lower domain, an ideal in the upper one.

    Returns (ok, worst).  worst is the largest |D_ij| / max(|K_ij|, |K~_ij|)
    over the stored entries of D = K - K~ on the lower active set: 0.0 when the
    stiffness matrices agree there, NaN (a failed check) for a non-finite
    weight.  ok needs worst <= rel_tol and the order ideal.
    """
    K_low, K_up, D = _stiffness_difference(pair)
    worst = 0.0
    if D.nnz:
        C = D.tocoo()
        scale = np.maximum(abs(K_low[C.row, C.col]), abs(K_up[C.row, C.col]))
        with np.errstate(invalid="ignore"):  # inf / inf: the NaN of a non-finite weight
            worst = float(np.max(np.abs(C.data) / np.asarray(scale).ravel()))
    return check_order_ideal(pair) and worst <= rel_tol, worst


def check_silverstein(pair: FormPair) -> DominationReport:
    """Full report: extension, ideal, cone inequality and resolvent domination.

    The Silverstein flag is the extension verdict, which includes the ideal
    (the inequality is automatic for extensions).  Criteria (i) and (ii) are
    computed through independent routes; a disagreement between them is
    recorded as a defect, since the theory makes them equivalent, but only when
    (i) either compared every basis probe or found a violation.
    """
    ext_ok, ext_worst = check_extension(pair)
    ideal_ok = check_order_ideal(pair)
    ineq = check_form_inequality_nonneg(pair)
    res_ok, res_worst = check_resolvent_domination(pair)
    defects = []
    crit_ii = ideal_ok and ineq.ok
    if (res_worst["certified"] or not res_ok) and crit_ii != res_ok:
        defects.append(
            "criterion (i) and criterion (ii) disagree: "
            f"resolvent={res_ok}, ideal+inequality={crit_ii}"
        )
    return DominationReport(
        resolvent_ok=res_ok,
        resolvent_worst=res_worst,
        ideal_ok=ideal_ok,
        inequality=ineq,
        extension_ok=ext_ok,
        extension_worst=ext_worst,
        silverstein=ext_ok,
        defects=defects,
    )


# ---------------------------------------------------------------------------
# Maximality of the main part
# ---------------------------------------------------------------------------


@dataclass
class CandidateVerdict:
    index: int
    dominating: bool
    max_shortfall: float
    violations: list
    achieves_equality: bool


@dataclass
class MaximalityReport:
    verdicts: list
    excluded: list

    @property
    def ok(self) -> bool:
        return all(not v.violations for v in self.verdicts)


def verify_maximality(
    base: GraphForm,
    ex: Exhaustion,
    candidates,
    probes,
    tol: float = 1e-9,
) -> MaximalityReport:
    """Check that no dominating candidate drops below the main part of base.

    Every candidate is first screened through resolvent domination (criterion
    (i)); failures are excluded and reported.  For the rest, each probe f in
    the candidate's domain must satisfy candidate(f) >= main(f) - tol, the
    form-order statement that the active main part is the maximal dominating
    form.  Candidates matching main(f) within tol on every probe are flagged
    as achieving equality.
    """
    mex = ex.masked(base.active)
    verdicts = []
    excluded = []
    for k, cand in enumerate(candidates):
        ok, worst = check_resolvent_domination(FormPair(lower=base, upper=cand))
        if not ok:
            excluded.append({"index": k, "worst": worst})
            continue
        violations = []
        max_shortfall = -math.inf
        equality = True
        for p, f in enumerate(probes):
            f = np.asarray(f, dtype=float) * cand.active
            main_val = main_part(base, mex, f).value
            cand_val = cand.evaluate(f)
            shortfall = main_val - cand_val
            max_shortfall = max(max_shortfall, shortfall)
            if shortfall > tol:
                violations.append({"probe": p, "shortfall": float(shortfall)})
            if abs(shortfall) > tol:
                equality = False
        verdicts.append(
            CandidateVerdict(
                index=k,
                dominating=True,
                max_shortfall=float(max_shortfall),
                violations=violations,
                achieves_equality=equality,
            )
        )
    return MaximalityReport(verdicts=verdicts, excluded=excluded)
