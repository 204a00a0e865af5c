"""Domination and Silverstein-extension checks for pairs of graph forms.

Three equivalent criteria are implemented independently so they can be played
against each other:

  (i)   resolvent domination, |G_alpha f| <= G~_alpha |f| for all alpha, f;
  (ii)  domain containment (an order ideal for mask domains) together with
        Q(f, g) >= Q~(f, g) for nonnegative f, g in the smaller domain;
  (iii) the extension variant: values agree on the smaller domain and the
        smaller domain is an ideal in the larger one (Silverstein extension).

On a finite vertex space the resolvents are entrywise nonnegative matrices,
so criterion (i) reduces to an entrywise matrix comparison.  By the second
resolvent identity the difference is U V^T M_a, of rank r, the number of
stiffness rows where the pair differs.  For r <= 2 at any size and, for
larger r below the lower active set's size, within a dense budget or a
budget of multiplies per alpha (see check_resolvent_domination), neither
resolvent matrix is formed: a product of at most _PRODUCT_BLOCK entries is
formed whole by one dgemm, and a larger one is bounded from the extremes of
each column of U and M_a V in O(n r) and formed in blocks only where that
bound exceeds the tolerance.  Otherwise, within the dense budget, the two
matrices are compared whole, each from a dense factor up to
resolvent.DENSE_DIM active vertices.  For an extension pair V follows from U
alone, so only the upper form is factored, under a forward-error bound (see
_schur_route), unless it has at most resolvent.SMALL_DIM active vertices
and a dense factor.  The cone inequality in (ii) and the agreement in (iii)
are both decided exactly from D = K - K~, the difference of the stiffness
matrices restricted to the smaller active set: (ii) holds iff D >= 0
entrywise (indicator functions are admissible nonnegative probes, so the
coefficient condition is necessary as well as sufficient), and the forms
agree on the smaller domain iff D = 0 (a quadratic form determines its
symmetric matrix).

All three read one difference per pair, C = K~ E - E K on rows a | b and
columns a (FormPair._difference), whose rows on a are -D; (i) still decides
from the resolvents, so the (i)/(ii) cross-check stays independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .forms import GraphForm
from .graph import Exhaustion, _freeze
from .reflection import main_part
from . import resolvent
from .resolvent import _UNIT_ROUNDOFF, ResolventHandle

#: Largest block of resolvent entries that criterion (i) forms as one dense
#: array (see check_resolvent_domination): the memory of a resolvent matrix of
#: resolvent.DENSE_DIM rows, up to which "blocks" reads G~ E and G from dense
#: inverses.  "blocks" (r >= |a|) certifies a pass and probes do not, but
#: since the probes became one multi-column solve per form and alpha they cost
#: less at every size, and the gap widens with n.  On killing pairs (r = n),
#: minimum of 5 in-process calls at the 13 default alphas on forms built once
#: (two runs), 2 vCPUs, 2 BLAS threads; "blocks" with the SuperLU solves
#: (DENSE_DIM = 0) and with dense inverses, forced past the budget from 313:
#:
#:     n     blocks, SuperLU   blocks, dense   probes
#:     221    44-50 ms          26 ms          18 ms
#:     313    91 ms             49-51 ms       21-35 ms
#:     545   282-298 ms        149-150 ms      43-44 ms
DENSE_BUDGET = resolvent.DENSE_DIM ** 2

#: Most multiplies per alpha, r |b| |a|, up to which a pair of rank 2 < r < |a|
#: above DENSE_BUDGET still takes "box" (certified) instead of probing.  A pass
#: forms no product there: it costs the r-column solves.  The two cross between
#: 5.1e7 and 1.27e8.  Medians of 5 calls (two runs) on lattice pairs with a
#: Dirichlet rim (one factor per alpha), 2 vCPUs, 2 BLAS threads:
#:
#:     n      r |b| |a|   box          probes
#:     313    4.0e6        17-20 ms     23-27 ms
#:     545    1.7e7        36 ms        47-51 ms
#:     841    5.1e7        67-70 ms     73-74 ms
#:     1201   1.27e8      120-139 ms   104-119 ms
#:     1861   3.9e8       235-274 ms   156-180 ms
#:     2113   5.4e8       319-320 ms   183-192 ms
PRODUCT_BUDGET = 2**27

#: Most entries of W U^T that _max_inner forms at a time: 128 KB, up to which
#: glibc's malloc serves a request from its heap by default.  Blocks of
#: DENSE_BUDGET entries (512 KB) went to the top of the heap or to mmap, and
#: whether each alpha then faulted its 126 pages in anew depended on what the
#: heap held before: 40 in-process runs of `counterexample --n 255` took
#: 2300-3400 page faults and 12.6-14.7 ms a run in some processes, 0 and
#: 8.6-9.1 ms in others.  With 128 KB blocks no run faulted, at 8.5-8.9 ms.
#: A product of at most one block is formed without its bound: in-process, on a
#: 10 x 3 / 8 x 3 pair, _max_inner took 13.0 us for a pass and 19.2 us for a
#: failure through the bound, and takes 5.6 and 5.0 us through one dgemm.
_PRODUCT_BLOCK = 2**14

_DEFAULT_ALPHAS = tuple(float(a) for a in np.logspace(-3.0, 3.0, 13))


@dataclass(frozen=True)
class FormPair:
    """Lower form Q and upper candidate Q~ over the same measure space."""

    lower: GraphForm
    upper: GraphForm

    def __post_init__(self):
        lower, upper = self.lower.graph, self.upper.graph
        if lower is not upper and lower.ids != upper.ids:
            raise ValueError("forms must share the same vertex index space")
        if not np.array_equal(lower.m, upper.m):
            raise ValueError("forms must share the same vertex measure")

    @cached_property
    def _nested(self) -> bool:
        """a in b: the lower active set lies in the upper one (exact mask containment)."""
        return bool(self.upper.active[self.lower.active].all())

    @cached_property
    def _difference(self) -> tuple:
        """C = K~ E - E K on rows a | b and columns a (a, b the lower and upper active sets),
        read-only, built once per pair for criteria (i)-(iii): its sorted keys i |a| + j,
        values 0 + K~_ij + (-K_ij) in that order with exact zeros dropped, max(|K_ij|,
        |K~_ij|) per key, and a's rows.  K~ is the upper generator's stiffness if a is in b."""
        a, b = self.lower.active, self.upper.active
        K_low = self.lower.generator.stiffness
        K_up = (self.upper.generator.stiffness if self._nested
                else resolvent.assemble_stiffness(self.upper, a | b))
        in_a = a[a | b]
        rows, na = np.flatnonzero(in_a), int(in_a.sum())  # a's rows in a | b's coordinates
        keep = in_a[K_up.indices]  # K~'s entries in a's columns
        up_col = (np.cumsum(in_a) - 1)[K_up.indices[keep]]
        key, at = np.unique(np.concatenate([
            np.repeat(np.arange(len(in_a)), np.diff(K_up.indptr))[keep] * na + up_col,
            np.repeat(rows * na, np.diff(K_low.indptr)) + K_low.indices,
        ]), return_inverse=True)
        data = np.concatenate([K_up.data[keep], -K_low.data])
        value, scale = np.bincount(at, data, len(key)), np.zeros(len(key))
        np.maximum.at(scale, at, abs(data))
        stored = value != 0.0
        return _freeze((key[stored], value[stored], scale[stored], rows))


def _lower_difference(pair: FormPair) -> tuple:
    """D = K - K~ on a, keyed i |a| + j, as C's rows on a negated, with their scales:
    -(K~_ij - K_ij) is K_ij - K~_ij in IEEE arithmetic, and no zero is stored."""
    key, value, scale, rows = pair._difference
    i, j = np.divmod(key, len(rows))
    on_a = np.isin(i, rows)
    return np.searchsorted(rows, i[on_a]) * len(rows) + j[on_a], -value[on_a], scale[on_a]


def _check_m_matrix_data(pair: FormPair) -> None:
    """Criterion (i) needs finite nonnegative weights and a finite positive measure:
    the graph's b (not the table's 2b, which may overflow), killing and couplings."""
    for form in (pair.lower, pair.upper):
        g = form.graph
        w = np.concatenate([g.edge_b, form.c_total, form.pairs[1][len(g.edge_b):]])
        if not (np.isfinite(w).all() and np.isfinite(g.m).all()):
            raise ValueError("a weight or measure is not finite; check the weights")
        if (w < 0.0).any() or not (g.m > 0.0).all():
            raise ValueError("criterion (i) needs nonnegative weights and a positive "
                             "measure; check the weights")


def _box(U: np.ndarray, W: np.ndarray, step: int) -> np.ndarray:
    """The box bound of <U_i, W_j> for each block of step rows of U against all of W:
    the sum over columns of the largest product of an extreme of the block's column
    and one of W's.  It is at least every entry of the block's product with W^T, and
    for r = 1 it is one of them."""
    at = np.arange(0, len(U), step)
    uh, ul = np.maximum.reduceat(U, at), np.minimum.reduceat(U, at)
    wh, wl = W.max(axis=0), W.min(axis=0)
    return np.maximum(np.maximum(uh * wh, ul * wl), np.maximum(uh * wl, ul * wh)).sum(axis=-1)


def _max_inner(U: np.ndarray, W: np.ndarray, tol: float) -> float:
    """max over i, j of <U_i, W_j> where it decides against tol, else a bound on it.

    When W U^T has at most _PRODUCT_BLOCK entries it is formed by one dgemm on
    scipy's BLAS and its largest entry is the result, whatever tol is: at that
    size the product costs less than the dozen numpy calls of its box bound.
    Otherwise the rows of U are cut into blocks whose products with W^T have at
    most _PRODUCT_BLOCK entries, and each block is bounded by _box, in O(n r) in
    all.  If no bound exceeds tol, or for r = 1, where the largest bound is
    the maximum, that largest bound is the result and no product is formed.
    Otherwise the blocks are formed on scipy's BLAS (see _schur_route), at most
    _PRODUCT_BLOCK entries of W U^T at a time, in the order of their bounds:
    all whose bound exceeds the largest entry found up to DENSE_BUDGET
    entries, so the result is the maximum; above it, until a block holds an
    entry above tol (its largest) or the bounds left are at most tol (the
    largest of them and the entries found).
    """
    nw = len(W)
    su = max(1, _PRODUCT_BLOCK // nw)  # rows of U a block, formed against sw rows of W at once
    sw = _PRODUCT_BLOCK // su
    one = len(U) * nw <= _PRODUCT_BLOCK  # one block: its product costs less than its bound
    if not one:
        bound = _box(U, W, su)
        if U.shape[1] == 1 or not bound.max() > tol:  # NaN too
            return float(bound.max())
    dgemm = resolvent._linalg()[0].dgemm
    U, W = np.ascontiguousarray(U), np.ascontiguousarray(W)

    def block_max(p: int) -> float:
        # dgemm takes Fortran order, which the transpose of a block of rows has
        Up = U[p * su:(p + 1) * su].T
        return max(float(dgemm(1.0, W[j:j + sw].T, Up, trans_a=True).max())
                   for j in range(0, nw, sw))

    if one:
        return block_max(0)
    exact = len(U) * nw <= DENSE_BUDGET
    best = -math.inf  # the largest entry formed
    for p in np.argsort(-bound):
        if bound[p] <= (best if exact else max(best, tol)):
            return float(max(best, bound[p]))  # bound[p] bounds every block left
        best = max(best, block_max(p))
        if not exact and best > tol:
            break
    return best


def _gamma(k: int) -> float:
    """k u / (1 - k u): the relative rounding of a k-term sum of products (u = 2^-53)."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _schur_route(gen, S: np.ndarray, pos: np.ndarray):
    """For an extension pair: alpha, U -> (V, delta) from U = A~^{-1}[:, S] alone.

    For an extension pair C vanishes on a's rows, so A = A~[a, a], S lies in
    b \\ a and A~[a, S] = C_S^T.  The rows a of A~ U = I[:, S] then read
    A U_a + C_S^T U_S = 0, so V = A^{-1} C_S^T = -U_a Z with Z = U_S^{-1}.  U_S
    is a principal block of A~^{-1}, so it is symmetric positive definite, and
    V = -U_a L^{-T} L^{-1} from its Cholesky factor L.  ``gen`` is A~'s
    generator; the returned function gives (None, inf) when the Cholesky factor
    fails, and the data that do not depend on alpha are read once.  scipy's
    BLAS and LAPACK do the dense steps (dgemm, dpotrf, dtrtri), as they do the
    product in _max_inner: the library that SuperLU's solves already use.  numpy
    links a separate OpenBLAS build, and on a 2-core machine with two BLAS
    threads each library's threaded call right after the other's left their two
    worker pools contending (~10 ms a product, not ~0.2).  So all of an alpha's
    linear algebra runs in one library, never two.

    delta bounds the error of every entry of U V^T M_a formed from the computed
    U^ and V^.  With T = b \\ S, y_i = U_i Z is e_i for i in S and row i of
    -A~_TT^{-1} A~_TS for i in T (block elimination): nonnegative, with
    ||y_i||_1 <= 1 because A~ 1 >= 0; so is -V_j = y_j, j in a.  Let
    ||U^ - U||_max <= eps and Q = V^ U^_S + U^_a.  Then
    g = (V^ - V) U_S = Q - (U^_a - U_a) - V^ (U^_S - U_S), and

        U^_i . V^_j - U_i . V_j = (U^_i - U_i) . V^_j + g_j . y_i,

    at most ||Q||_max + eps (1 + 2 nu) with nu = max_j ||V^_j||_1.  With the
    rounding of Q and of the r-term products,

        delta = max m_a [||Q^||_max + eps (1 + 2 nu) + gamma_{r+1} (2 nu + 1) ||U^||_max].

    The conditioning of U_S enters only through the measured Q: U's rows undo
    what Z amplifies in V.  eps comes from U's residual: U^ - U =
    A~^{-1} (A~ U^ - I[:, S]), ||A~^{-1}||_inf <= 1 / (alpha min m) since
    A~^{-1} >= 0 and A~ 1 >= alpha m, and the residual as computed is off by at
    most gamma_{k+3} (||A~||_inf ||U^||_max + 1), k the most stored entries in a
    row of K~, with ||A~||_inf <= 2 max_i (K~_ii + alpha m_i) as A~ is
    diagonally dominant.
    """
    blas, lapack = resolvent._linalg()
    dgemm, dpotrf, dtrtri = blas.dgemm, lapack.dpotrf, lapack.dtrtri

    K, m = gen.stiffness, gen.mass
    k = int(np.diff(K.indptr).max())
    diag_max, m_max, m_min, m_a_max = K.diagonal().max(), m.max(), m.min(), m[pos].max()
    cols = np.arange(len(S))
    g_res, g_dot = _gamma(k + 3), _gamma(len(S) + 1)

    def factor(alpha: float, U: np.ndarray) -> tuple:
        U_S, U_a = U[S], U[pos]
        L, info = dpotrf(U_S, lower=1)  # info > 0: U_S is not positive definite
        if info == 0:
            L_inv, info = dtrtri(L, lower=1)
        if info:
            return None, math.inf
        # V^T = -L^{-T} L^{-1} U_a^T, in Fortran order as dgemm takes it
        Vt = dgemm(-1.0, L_inv, dgemm(1.0, L_inv, U_a.T), trans_a=True)
        res = K @ U
        res += (alpha * m)[:, None] * U
        res[S, cols] -= 1.0
        u_max = abs(U).max()
        nu = abs(Vt).sum(axis=0).max()
        q = abs(dgemm(1.0, U_S.T, Vt, 1.0, U_a.T, overwrite_c=True)).max()  # Q^T, into U_a^T
        with np.errstate(over="ignore"):  # an overflowed bound is inf: the value is redone
            a_norm = 2.0 * (diag_max + alpha * m_max)
            eps = (abs(res).max() + g_res * (a_norm * u_max + 1.0)) / (alpha * m_min)
            rounding = g_dot * (2.0 * nu + 1.0) * u_max
            return Vt.T, float(m_a_max * (q + eps * (1.0 + 2.0 * nu) + rounding))

    return factor


def _checked_alphas(alphas) -> tuple:
    """The alphas as floats; ValueError unless there is one and each is positive and finite."""
    alphas = tuple(float(alpha) for alpha in alphas)
    if not alphas or not all(0.0 < alpha < math.inf for alpha in alphas):
        raise ValueError(f"criterion (i) needs positive finite alphas, got {alphas}")
    return alphas


def _record(worst: dict, v, alpha, kind: str) -> None:
    """Keep the largest violation seen in worst, with its alpha and route."""
    if v > worst["violation"]:
        worst.update(violation=float(v) + 0.0, alpha=float(alpha), kind=kind)  # no -0.0


def check_resolvent_domination(pair: FormPair, alphas=None, tol: float = 1e-9) -> tuple:
    """Criterion (i): |G_alpha f| <= G~_alpha |f| elementwise, all probes and alpha.

    With finite nonnegative weights and a positive measure (else ValueError),
    K + alpha M is a nonsingular M-matrix on each active set, so G, G~ >= 0
    and (i) says G_ij <= G~_ij entrywise, each resolvent vanishing off its
    active set.  Let a and b be the lower and upper active sets.  The route
    taken is reported as worst["kind"]:

    * "ideal" (a not in b): (i) fails, certified: G~ vanishes on the columns
      of a \\ b, where G_jj >= m_j / (K_jj + alpha m_j) > 0, since
      (A^{-1})_jj >= 1 / A_jj for a symmetric positive definite A.  The
      largest of these bounds is the violation; nothing is solved.
    * a in b: with E embedding a into b, A = K|a + alpha M and
      A~ = K~|b + alpha M, the second resolvent identity gives

          E G - G~ E = U V^T M_a,   U = A~^{-1}[:, S],   V = A^{-1} C_S^T,

      where C = A~ E - E A = K~|b E - E K|a does not depend on alpha and S
      holds its r nonzero rows (the pair's FormPair._difference).  Off the
      columns in a, G = 0 <= G~, so (i) holds iff max_ij <U_i, m_j V_j> <= tol.
      "rank0": r = 0, E G = G~ E.  "box": _max_inner decides that maximum,
      forming U V^T M_a whole when it has at most _PRODUCT_BLOCK entries, else
      from the box bound of U's and M_a V's column extremes, forming it in
      blocks only where the bound exceeds tol.  It takes r = 1, r = 2 above
      DENSE_BUDGET (|b| |a| > DENSE_BUDGET), and 2 <= r < |a| within it or
      while r |b| |a| <= PRODUCT_BUDGET.  Within the budget, for r >= |a|,
      "blocks" compares E G with G~ E, reading G~ E as columns of G~ (one
      dense inversion above resolvent.SMALL_DIM, see
      ResolventHandle.resolvent_matrix) when |b| <= resolvent.DENSE_DIM, else
      from |a| solves.  Both are certified.  When C vanishes
      on a's rows (an extension pair: A = A~[a, a]), "box" takes
      V = -U_a U_S^{-1} from U through a Cholesky factor of U_S and factors
      only A~, at most one factorization per alpha, when |b| > resolvent.SMALL_DIM.
      An alpha's value counts when it lies farther than the bound delta of
      _schur_route from tol; otherwise, or when the Cholesky factor fails,
      V comes from A's own factor, as for every other pair.
    * "probe_k": above DENSE_BUDGET with r >= |a|, or with r > 2 and above
      PRODUCT_BUDGET, the first 64 basis vectors and the all-ones vector
      (probe_64 when n > 64) go through both resolvents, uncertified, in one
      multi-column solve per form and alpha; k is the first probe with the
      largest value.  As G >= 0, every sign vector f has |G f| <= G 1 and
      G~ |f| = G~ 1, so the ones vector stands for all of them.

    Each form's solves run on its ResolventHandle, whose one-column solves (U
    and V for r = 1) take the Neumann series where rho(alpha) <= 1/2 above
    resolvent.SMALL_DIM active vertices; the bound delta of _schur_route reads
    U's measured residual, so it covers a series-solved U too.  alphas, when
    given, must be a nonempty sequence of positive finite numbers (else
    ValueError, before any route).

    Returns (ok, worst).  worst["violation"] is the largest over alpha of the
    value the verdict rests on, with its alpha (None for "rank0"): the largest
    entry of G - G~ over the columns in a for "rank0", "blocks" and a "box"
    of r = 1, of at most _PRODUCT_BLOCK entries, or failing within
    DENSE_BUDGET; for any other "box", a bound at most tol on those entries if
    it passes, else one of them above tol; for
    "ideal", the largest lower bound on G_jj; for "probe_k", the probes'
    largest |G f| - G~|f|.  ok is violation <= tol, and false for "ideal".
    worst["certified"] is false for an "ok" from probes, which do not compare
    every column.  A failure is always a certificate.
    """
    alphas = _DEFAULT_ALPHAS if alphas is None else _checked_alphas(alphas)
    _check_m_matrix_data(pair)
    a, b = pair.lower.active, pair.upper.active
    worst = {"violation": -math.inf, "alpha": None, "kind": None, "certified": True}
    if not pair._nested:
        gen, cols = pair.lower.generator, ~b[a]  # a \ b in a's coordinates
        m, k = gen.mass[cols], gen.stiffness.diagonal()[cols]
        for alpha in alphas:
            with np.errstate(over="ignore"):  # an overflowed A_jj bounds G_jj by 0
                _record(worst, (m / (k + alpha * m)).max(), alpha, "ideal")
        return False, worst

    h_low, h_up = ResolventHandle(pair.lower), ResolventHandle(pair.upper)
    na, nb = h_low.dim, h_up.dim
    key, value, _, pos = pair._difference  # pos: a's vertices in b's coordinates
    S, row = np.unique(key // na, return_inverse=True)  # C's nonzero rows
    r = len(S)
    if r == 0:
        return 0.0 <= tol, dict(worst, violation=0.0, kind="rank0")
    within = nb * na <= DENSE_BUDGET
    if r == 1 or r == 2 and not within or r < na and (within or r * nb * na <= PRODUCT_BUDGET):
        kind = "box"
    elif within:
        kind = "blocks"
    else:
        worst["certified"] = False
        n = pair.lower.n
        # G >= 0, so a sign vector f has |G f| <= G 1 and G~ |f| = G~ 1: 1 stands for them all.
        probes = np.column_stack([np.eye(n, min(n, 64)), np.ones(n)])
        G_f, G_up_f = np.zeros_like(probes), np.zeros_like(probes)
        for alpha in alphas:
            for h, out in ((h_low, G_f), (h_up, G_up_f)):
                idx = h.generator.active_index
                out[idx] = h.solve_columns(alpha, h.generator.mass[:, None] * probes[idx])
            v = (np.abs(G_f) - G_up_f).max(axis=0)  # its first maximum names the probe
            _record(worst, float(v.max()), alpha, f"probe_{np.argmax(v)}")
        return worst["violation"] <= tol, worst

    # Rows outside b of a column in a are 0 in both resolvents.
    floor = 0.0 if nb < pair.lower.n else -math.inf
    m_a = h_low.generator.mass
    if kind == "blocks":
        dense = nb <= resolvent.DENSE_DIM  # G~ E as columns of the dense G~, else na solves
        rows = slice(None) if na == nb else pos  # a = b: G~ E = G~, taken without a copy
        if not dense:
            rhs = np.zeros((nb, na))
            rhs[pos, np.arange(na)] = m_a  # G~ E = A~^{-1} M_b E
    else:
        rhs = np.zeros((nb, r))
        rhs[S, np.arange(r)] = 1.0
        C_S = np.zeros((na, r))
        C_S[key % na, row] = value
        # C vanishes on a's rows for an extension pair: A = A~[a, a].  Small
        # handles factor densely, where the Schur step costs more than A's factor.
        schur = (None if a[b][S].any() or nb <= resolvent.SMALL_DIM
                 else _schur_route(h_up.generator, S, pos))
    for alpha in alphas:
        if kind == "blocks":
            U = h_up.resolvent_matrix(alpha)[:, rows] if dense else h_up.solve_columns(alpha, rhs)
            U[rows] -= h_low.resolvent_matrix(alpha)
            v = -U.min()
        else:
            U = h_up.solve_columns(alpha, rhs)
            V, delta = schur(alpha, U) if schur else (None, math.inf)
            v = None if V is None else _max_inner(U, V * m_a[:, None], tol)
            if v is None or not abs(v - tol) > delta:  # within delta of tol, or NaN
                v = _max_inner(U, h_low.solve_columns(alpha, C_S) * m_a[:, None], tol)
        _record(worst, max(v, floor), alpha, kind)
    return worst["violation"] <= tol, worst


def check_order_ideal(pair: FormPair) -> bool:
    """Criterion (ii) ideal condition; exact mask containment for mask domains."""
    return pair._nested


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


def _first_min(key: np.ndarray, value: np.ndarray, k: int) -> tuple:
    """(i, j, D_ij) at the row-major first smallest entry of the k x k matrix D stored at
    sorted keys i k + j, with no stored zeros; an implicit zero is a missing key."""
    first = int(np.argmin(value)) if len(key) else 0
    if len(key) == k * k or (len(key) and not value[first] >= 0.0):
        return *divmod(int(key[first]), k), float(value[first])
    # The minimum is an implicit zero: the first missing key.
    missing = int(np.flatnonzero(np.append(key, k * k) != np.arange(len(key) + 1))[0])
    return *divmod(missing, k), 0.0


def check_form_inequality_nonneg(pair: FormPair, tol: float = 1e-10) -> InequalityResult:
    """Decide Q(f,g) >= Q~(f,g) for nonnegative f, g supported on the lower mask.

    The difference of stiffness matrices restricted to the lower active set
    must be entrywise nonnegative; a negative entry yields an explicit
    indicator-pair witness.  The difference stays sparse; the witness is its
    first smallest entry in row-major order.
    """
    idx = np.flatnonzero(pair.lower.active)
    key, value, _ = _lower_difference(pair)
    i, j, worst = _first_min(key, value, len(idx))
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
    _, value, scale = _lower_difference(pair)
    with np.errstate(invalid="ignore"):  # inf / inf: the NaN of a non-finite weight
        worst = float(np.max(np.abs(value) / scale, initial=0.0))
    return check_order_ideal(pair) and worst <= rel_tol, worst


def check_silverstein(pair: FormPair) -> DominationReport:
    """Full report: extension, ideal, cone inequality and resolvent domination.

    The Silverstein flag is the extension verdict, which includes the ideal
    (the inequality is automatic for extensions).  Criteria (i) and (ii) are
    computed through independent routes; a disagreement between them is
    recorded as a defect, since the theory makes them equivalent, but only when
    (i) is certified (every route but "probe_k") or found a violation.
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
