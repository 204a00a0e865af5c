"""Packaged experiments.

Three self-contained studies built on the other modules:

* the discretized-interval study showing that a form with killing can fail to
  possess a maximal Silverstein extension (two extensions force incompatible
  values on a hypothetical maximal one);
* recurrence and transience classification of a form;
* the equivalence of monotonicity and nonnegative definiteness for quadratic
  forms on a lattice domain, decided from the coefficient matrix with an
  explicit witness for each refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .domination import FormPair, check_silverstein
from .forms import GraphForm, assemble
from .graph import Exhaustion, make_path
from .reflection import effective_killing, recurrence_check
from .resolvent import _PANEL, _UNIT_ROUNDOFF

if TYPE_CHECKING:
    import scipy.sparse as sp


# ---------------------------------------------------------------------------
# Counterexample: no maximal Silverstein extension under killing
# ---------------------------------------------------------------------------


@dataclass
class CounterexampleSetup:
    """Grid discretization of the open interval (-1, 1) with a point killing.

    ``n`` odd grid points give mesh width h = 2/(n-1) and put the midpoint
    vertex at position 0.  Three forms over the path graph:

      base:  Dirichlet mask at both endpoints, unit killing at the midpoint;
      ext1:  no mask, unit coupling between midpoint and right endpoint;
      ext2:  no mask, unit killing at the midpoint.

    The point killing stays an h-independent diagonal term (a point
    evaluation does not scale with the mesh), which keeps the reported gap
    exactly 1 at every resolution.
    """

    n: int = 201

    def __post_init__(self):
        if self.n < 5 or self.n % 2 == 0:
            raise ValueError("need an odd number of grid points, n >= 5")

    @property
    def h(self) -> float:
        return 2.0 / (self.n - 1)

    @property
    def mid(self) -> int:
        return (self.n - 1) // 2

    def build(self):
        graph = make_path(self.n, self.h)
        vmid = f"v{self.mid}"
        vlast = f"v{self.n - 1}"
        base = assemble(
            graph, boundary=["v0", vlast], extra_killing={vmid: 1.0}
        )
        ext1 = assemble(graph, couplings=[(vmid, vlast, 1.0)])
        ext2 = assemble(graph, extra_killing={vmid: 1.0})
        return graph, base, ext1, ext2

    def tent(self) -> np.ndarray:
        """Piecewise-linear probe: 1 at the midpoint, 0 at both endpoints."""
        i = np.arange(self.n)
        return 1.0 - np.abs(i - self.mid) / self.mid


@dataclass
class CounterexampleReport:
    n: int
    silverstein_ext1: bool
    silverstein_ext2: bool
    ext1_at_one: float
    gap: float
    base_constant_out_of_domain: bool
    contradiction_reproduced: bool
    defects: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "silverstein_ext1": self.silverstein_ext1,
            "silverstein_ext2": self.silverstein_ext2,
            "ext1_at_one": self.ext1_at_one,
            "gap": self.gap,
            "base_constant_out_of_domain": self.base_constant_out_of_domain,
            "contradiction_reproduced": self.contradiction_reproduced,
            "defects": list(self.defects),
        }

    def summary(self) -> str:
        lines = [
            f"grid points: {self.n}",
            f"ext1 is a Silverstein extension of base: {self.silverstein_ext1}",
            f"ext2 is a Silverstein extension of base: {self.silverstein_ext2}",
            f"ext1(1) = {self.ext1_at_one:.3e} (recurrent extension)",
            f"base(tent) - ext2(tent - 1) = {self.gap:.12f} (must be 1)",
        ]
        if self.contradiction_reproduced:
            lines.append(
                "CONTRADICTION_REPRODUCED: a maximal extension would need "
                "value <= ext2(tent - 1) and = base(tent) simultaneously"
            )
        else:
            lines.append("contradiction NOT reproduced; see defects")
            lines.extend(f"  defect: {d}" for d in self.defects)
        return "\n".join(lines)


def run_counterexample(setup: CounterexampleSetup) -> CounterexampleReport:
    """Reproduce the no-maximal-extension contradiction on the grid.

    Establishes numerically: both candidate forms are Silverstein extensions
    of the base; the coupling extension annihilates constants; and the tent
    probe satisfies base(f) = ext2(f - 1) + 1.  A maximal extension would have
    to lie below ext2 at f - 1 while agreeing with base at f and annihilating
    1 like ext1 does, which the reported unit gap rules out.
    """
    _, base, ext1, ext2 = setup.build()
    rep1 = check_silverstein(FormPair(lower=base, upper=ext1))
    rep2 = check_silverstein(FormPair(lower=base, upper=ext2))
    ones = np.ones(setup.n)
    ext1_at_one = ext1.evaluate(ones)
    f = setup.tent()
    gap = base.evaluate(f) - ext2.evaluate(f - 1.0)
    const_out = math.isinf(base.evaluate(ones))

    defects = []
    if not rep1.silverstein:
        defects.append("ext1 failed the Silverstein check")
    if not rep2.silverstein:
        defects.append("ext2 failed the Silverstein check")
    if abs(ext1_at_one) > 1e-12:
        defects.append(f"ext1(1) = {ext1_at_one} not 0")
    if abs(gap - 1.0) > 1e-9:
        defects.append(f"gap {gap} differs from 1")
    if not const_out:
        defects.append("constant probe unexpectedly inside the base domain")
    defects.extend(f"ext1 domination defect: {d}" for d in rep1.defects)
    defects.extend(f"ext2 domination defect: {d}" for d in rep2.defects)

    return CounterexampleReport(
        n=setup.n,
        silverstein_ext1=rep1.silverstein,
        silverstein_ext2=rep2.silverstein,
        ext1_at_one=ext1_at_one,
        gap=gap,
        base_constant_out_of_domain=const_out,
        contradiction_reproduced=not defects,
        defects=defects,
    )


# ---------------------------------------------------------------------------
# Recurrence classification
# ---------------------------------------------------------------------------


def _smallest_eigenvalue(A: sp.csc_matrix) -> float:
    """Smallest eigenvalue of a symmetric positive definite sparse matrix.

    Shift-invert Lanczos at 0 on one SuperLU factor, from a fixed start vector
    so that the value is the same on every run; 0.0 when the factor is
    exactly singular.  A comes in its fill-reducing order, and the factor
    keeps that order and takes resolvent._PANEL, as every sparse factor of
    the package does.  Below three dimensions the value is taken in closed
    form, since eigsh needs k < n.
    """
    # imported here: scipy.sparse.linalg adds ~0.13 s to `import graphforms`
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    n = A.shape[0]
    if n < 3:
        a, d = float(A[0, 0]), float(A[-1, -1])
        b = float(A[0, 1]) if n == 2 else 0.0
        return (a + d) / 2 - math.hypot((a - d) / 2, b)
    try:
        lu = splu(A, permc_spec="NATURAL", panel_size=_PANEL)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return 0.0
    op = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    return float(eigsh(A, k=1, sigma=0.0, v0=np.ones(n), OPinv=op, return_eigenvectors=False)[0])


def classify_recurrence(q: GraphForm, ex: Exhaustion) -> dict:
    """Recurrence flags of the main part, the reflected form and the base form.

    Each part's flag says that its value at 1 is exactly 0.0; the main and
    reflected values at 1 come from ``recurrence_check``.  The main part
    annihilates constants by construction.  The reflected form is recurrent
    exactly when the total effective killing, a sum of nonnegative terms,
    vanishes, however small a positive term is.  The base
    form has a trivial kernel exactly when every connected component of the
    active graph (edges and couplings of positive weight between active
    vertices) carries positive effective killing: with nonnegative weights,
    Q(f) = 0 iff f is constant on each component and vanishes wherever the
    effective killing is positive (Keller-Lenz, J. reine angew. Math. 666,
    2012).  That verdict is exact, hence ``kernel_certified``.

    ``smallest_eigenvalue`` is that of M^{-1/2} K M^{-1/2}: exactly 0.0 when
    the kernel is nontrivial, and otherwise found by shift-invert Lanczos at 0
    through one sparse LU factor (closed form below three active vertices).
    It is 0.0 as well when that factor is singular, i.e. when the killing is
    below the rounding level of K.  Raises ValueError for a negative or
    non-finite weight or a nonpositive measure on the active graph.
    """
    # imported here: scipy.sparse.csgraph adds ~0.1 s to `import graphforms`
    import scipy.sparse as sp  # and scipy.sparse, as in resolvent._csr
    from scipy.sparse.csgraph import connected_components

    gen = q.generator
    K = gen.stiffness
    rows = np.repeat(np.arange(gen.dim), np.diff(K.indptr))
    ceff = effective_killing(q.graph, q.active, q.killing_extra, q.couplings)[gen.active_index]
    if not (
        np.isfinite(K.data).all()
        and (K.data[rows != K.indices] <= 0.0).all()
        and (ceff >= 0.0).all()
        and (gen.mass > 0.0).all()
        and np.isfinite(gen.mass).all()
    ):
        raise ValueError(
            "recurrence classification needs finite nonnegative weights and positive measure"
        )

    at_1 = recurrence_check(q, ex)
    # csgraph takes every stored entry as an edge, so drop K's stored zeros (weight-0 pairs).
    links = K.copy()
    links.eliminate_zeros()
    n_comp, label = connected_components(links, directed=False)
    kernel_trivial = bool((np.bincount(label, weights=ceff, minlength=n_comp) > 0.0).all())

    lam_min = 0.0
    if kernel_trivial:
        # P K P^T in the generator's fill-reducing order, scaled entry by entry
        # as (K_ij s_j) s_i with s = m^{-1/2}: the order is the one shared with
        # the form's resolvent factors.
        pattern, _, order, _ = gen.shift_pattern
        s = 1.0 / np.sqrt(gen.mass[order])
        col = np.repeat(np.arange(gen.dim), np.diff(pattern.indptr))
        A = sp.csc_matrix((pattern.data * s[col] * s[pattern.indices], pattern.indices,
                           pattern.indptr), shape=K.shape)
        lam_min = _smallest_eigenvalue(A)
    return {
        "main_recurrent": at_1["recurrent_main"],
        "reflected_recurrent": at_1["reflected_value_at_1"] == 0.0,
        "base_kernel_trivial": kernel_trivial,
        "kernel_certified": True,
        "reflected_value_at_1": at_1["reflected_value_at_1"],
        "smallest_eigenvalue": lam_min,
    }


# ---------------------------------------------------------------------------
# Monotone vs nonnegative-definite equivalence (decided from the coefficients)
# ---------------------------------------------------------------------------

REFUTED = "REFUTED"
NOT_REFUTED = "NOT_REFUTED"


@dataclass
class MonotoneFormSpec:
    """Symmetric coefficient matrix of a nonnegative quadratic form, full domain.

    The full coordinate space is a lattice, which is exactly the hypothesis
    under which monotonicity and nonnegative definiteness are equivalent.
    """

    matrix: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("coefficient matrix must be symmetric")
        # eigvalsh is backward stable: for A >= 0 it can return down to about -d u ||A||_F
        # (dimension d, u = 2^-53).  The gate allows 8 d u ||A||_F, 6.6 times the worst of
        # 5e5 random L L^T + diag draws (d <= 6, entries up to 1e300), and at least 1e-10.
        top = float(np.abs(A).max(initial=0.0))
        fro = top * float(np.linalg.norm(A / top)) if top > 0.0 else 0.0  # no overflow
        if float(np.linalg.eigvalsh(A)[0]) < -max(1e-10, 8.0 * len(A) * _UNIT_ROUNDOFF * fro):
            raise ValueError("form under test must be nonnegative")
        self.matrix = A

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def q(self, f, g=None) -> float:
        f = np.asarray(f, dtype=float)
        g = f if g is None else np.asarray(g, dtype=float)
        return float(f @ self.matrix @ g)


@dataclass
class EquivalenceReport:
    monotone: str
    nonneg_definite: str
    agree: bool
    monotone_witness: dict = field(default_factory=dict)
    nonneg_witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "nonneg_definite": self.nonneg_definite,
            "agree": self.agree,
            "monotone_witness": self.monotone_witness,
            "nonneg_witness": self.nonneg_witness,
        }


def monotone_equivalence_test(spec: MonotoneFormSpec) -> EquivalenceReport:
    """Decide monotonicity and nonnegative definiteness of q from its coefficients.

    Monotone: |f| <= |g| implies q(f) <= q(g).  Nonnegative definite:
    q(f, g) >= 0 whenever f g >= 0 pointwise.  On the full lattice both hold
    iff A is diagonal with A_ii >= 0.  Each verdict is decided on the stored
    floats, and its witness comes from the first failing (i, j) in row-major
    order: A_ii < 0 gives (0, e_i) and (e_i, e_i); A_ij + A_ji != 0 gives
    f = e_i + s e_j, g = e_i - s e_j with s = sgn(A_ij + A_ji), so |f| = |g|
    and q(f) - q(g) = 2 |A_ij + A_ji|; A_ij != 0 gives f = e_i and
    g = -sgn(A_ij) e_j, so f g = 0 and q(f, g) = -|A_ij|.  Both properties are
    homogeneous of degree 2, so a scaled witness beats any tolerance; none is
    applied, and the reported floats q_f, q_g may round to equal.  Monotone
    reads A_ij + A_ji, nonnegative definite reads A_ij: ``agree`` holds for
    every exactly symmetric A and can fail only for an A within the spec's
    1e-12 symmetry slack (A_ij = -A_ji != 0).
    """
    A, n = spec.matrix, spec.dim
    negative = np.diag(np.diag(A) < 0.0)
    off = ~np.eye(n, dtype=bool)

    def vector(*entries):
        v = [0.0] * n  # +0.0 throughout, so no witness holds a -0.0
        for k, x in entries:
            v[k] = x
        return v

    mono_witness, nonneg_witness = {}, {}
    hits = np.flatnonzero(negative | (off & (A + A.T != 0.0)))
    if hits.size:
        i, j = divmod(int(hits[0]), n)
        if i == j:
            mono_witness = {"f": vector(), "g": vector((i, 1.0)), "q_f": 0.0, "q_g": float(A[i, i])}
        else:
            s = math.copysign(1.0, A[i, j] + A[j, i])
            f, g = vector((i, 1.0), (j, s)), vector((i, 1.0), (j, -s))
            mono_witness = {"f": f, "g": g, "q_f": spec.q(f), "q_g": spec.q(g)}
    hits = np.flatnonzero(negative | (off & (A != 0.0)))
    if hits.size:
        i, j = divmod(int(hits[0]), n)
        f = vector((i, 1.0))
        g = f if i == j else vector((j, -math.copysign(1.0, A[i, j])))
        nonneg_witness = {"f": f, "g": g, "q_fg": spec.q(f, g)}

    monotone = REFUTED if mono_witness else NOT_REFUTED
    nonneg = REFUTED if nonneg_witness else NOT_REFUTED
    return EquivalenceReport(
        monotone=monotone,
        nonneg_definite=nonneg,
        agree=monotone == nonneg,
        monotone_witness=mono_witness,
        nonneg_witness=nonneg_witness,
    )


def killing_difference_spec(q: GraphForm, max_dim: int = 6, seed: int = 0) -> MonotoneFormSpec:
    """Coefficient matrix of Q - main on (a block of) the active coordinates.

    The difference of a masked graph form and its main part is the diagonal
    effective-killing form; this is the object the monotonicity lemma is
    applied to.  A random block of at most max_dim active vertices keeps the
    scenario desk-scale.
    """
    ceff = effective_killing(q.graph, q.active, q.killing_extra, q.couplings)
    idx = np.flatnonzero(q.active)
    if len(idx) > max_dim:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(idx, size=max_dim, replace=False))
    return MonotoneFormSpec(np.diag(ceff[idx]))
