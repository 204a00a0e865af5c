"""Generator matrices, Markovian resolvents and approximating forms.

The generator L of a masked graph form satisfies <Lf, g>_m = Q(f, g) on the
active vertex space, so L = M^{-1} K with M = diag(m) and K the stiffness
matrix on the active vertices, built from the form's pair table in one numpy
pass (assemble_stiffness): edge and coupling terms off the diagonal; on it the full
weighted degree, couplings and killing, summed by one np.bincount in assembly
order (u ends, v ends, killing), so boundary edges act as killing.  The
resolvent u = G_alpha f solves (K + alpha M) u = M f; it is positivity
preserving and alpha G_alpha is sub-Markov because K + alpha M is a symmetric
M-matrix with nonnegative row sums.

Approximating forms use the algebraic identity (I - alpha G_alpha) = G_alpha L,

    E^(alpha)(u, v) = <u, G_alpha(L v)>_m,

which avoids the catastrophic cancellation of the textbook expression at large
alpha and keeps the alpha -> infinity ladder accurate to near machine
precision.  Each such value costs one solve of (K + alpha M) w = K v.

Every solve with one right-hand side -- an approximating form, a resolvent
application, a one-column multi-solve -- crosses one boundary
(ResolventHandle._solve), which takes the first of three routes that applies.
Split K + alpha M = D_alpha - W into its diagonal and off-diagonal parts and let

    rho(alpha) = max_i sum_{j != i} |K_ij| / (K_ii + alpha m_i).

1. Up to SMALL_DIM active vertices: the handle's dense Cholesky factor of
   K + alpha M, on scipy's LAPACK.
2. Where every K_ii + alpha m_i is positive and finite and rho <= 1/2 (on an
   M-matrix, whenever alpha m_i >= K_ii for all i, and every rung of the
   default ladder has rho < 1/3): the Neumann series

       w = sum_{k=0}^{N} (D_alpha^{-1} W)^k D_alpha^{-1} rhs,

   cut at the least N with (1 + rho) rho^(N+1) / (1 - rho) <= 2^-53: its tail
   is then below unit roundoff relative to max |w|, and N <= 54.  No factor is
   built.
3. Otherwise, a non-finite weight included: the handle's SuperLU factor.

Solves with two or more right-hand sides always take the handle's factor: a
dense Cholesky factor up to SMALL_DIM active vertices, and a SuperLU factor
above that size or where the Cholesky factor fails.  (On 2 vCPUs, 221
right-hand sides at n = 221 took 4.4-7.4 ms through the series against 2.3 ms
on SuperLU.)  The whole resolvent matrix, above SMALL_DIM and up to DENSE_DIM
active vertices, is one dense inversion instead (ResolventHandle.resolvent_matrix).
Both dense routes start from the one dense Cholesky factorization of K + alpha M
(ResolventHandle._dense_factor).

The pattern of K + alpha M does not depend on alpha, so neither does its
fill-reducing order.  Each form computes it once, from K's pattern alone
(_shift_pattern): the minimum-degree order on A^T + A and its elimination-tree
postorder, the order splu(permc_spec="MMD_AT_PLUS_A") takes.  Every SuperLU
factor then runs on P (K + alpha M) P^T in that order, with permc_spec="NATURAL"
and a panel of _PANEL columns, and a solve permutes its right-hand sides in and
its solution out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from .forms import GraphForm, as_function, increments_settled
from .graph import _freeze
from .reflection import _check_cutoff

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Unit roundoff of float64, the relative size of the Neumann series' cut tail.
_UNIT_ROUNDOFF = 2.0**-53

#: Most active vertices up to which a handle factors K + alpha M densely
#: (ResolventHandle._factor), and criterion (i) skips the Schur step
#: (domination._schur_route): below it SuperLU's setup and the Schur step cost
#: more than dense LAPACK does.  The crossover of the two in criterion (i) on
#: path pairs (the counterexample's base and ext1, tridiagonal, where SuperLU is
#: cheapest); lattice pairs, with a Dirichlet rim ("rim") or killing 0.1 on every
#: vertex ("kill"), cross above n = 145.  Minimum of 3 x 3 calls at the 13
#: default alphas on forms built once (so their fill-reducing order is cached),
#: with the factor of _PANEL columns in that order; 2 vCPUs, 2 BLAS threads:
#:
#:     pair    |b|    sparse    dense
#:     rim      85     3.9 ms    2.0 ms
#:     rim     145     7.9 ms    6.2 ms
#:     kill    113    11.7 ms    7.2 ms
#:     kill    145    21.2 ms   13.2 ms
#:     path    101     2.2 ms    1.9 ms
#:     path    121     2.3 ms    2.7 ms
#:     path    131     2.3 ms    4.2 ms
#:     path    151     2.4 ms    5.7 ms
#:
#: With SuperLU's own minimum-degree order and default panel the paths crossed
#: between 121 and 131 (3.4 vs 2.8 ms at 121); now they cross between 101 and 121.
SMALL_DIM = 128

#: Most active vertices up to which ResolventHandle.resolvent_matrix forms G_alpha by one
#: dense inversion of K + alpha M (dpotrf, then dpotri) instead of solving its n columns
#: on the handle's factor, and criterion (i)'s "blocks" route reads G~_alpha E from it;
#: domination.DENSE_BUDGET is its square.
DENSE_DIM = 256

#: SuperLU's panel width, the number of columns it updates together, in every SuperLU
#: call of the package: the factors of ResolventHandle._factor and classify's
#: eigensolver, each taking its matrix already in the form's fill-reducing order,
#: and the incomplete factor that finds that order (_shift_pattern).
#: Interleaved medians of one factor of P (K + 0.1 M) P^T in ms (lattice balls with
#: killing 0.05, the counterexample's base paths; 9-201 reps), against SuperLU's
#: default panel and against the factor that orders by minimum degree itself
#: (splu(permc_spec="MMD_AT_PLUS_A"), the order included); 2 vCPUs:
#:
#:     form       n       1       2       3       4   default   MMD inside
#:     path       253   0.057   0.056   0.056   0.056   0.060     0.080
#:     lattice    841   0.66    0.74    0.78    0.80    0.95      1.23
#:     lattice   1861   1.39    1.52    1.60    1.62    1.97      2.45
#:     lattice   9941  12.2    12.5    12.9    13.2    17.1      19.0
#:     path     99997  15.7    15.3    15.6    15.1    21.9      31.1
#:     lattice  98125  275     278     276     277     368       401
#:
#: Widths 1-4 are within 11 % of each other at every size; 2 was within 3 % of the
#: best from n = 9941 up in this and two earlier rounds.
_PANEL = 2


@cache
def _linalg() -> tuple:
    """scipy.linalg's BLAS and LAPACK: imported on first use (~0.14 s) and only once."""
    from scipy.linalg import blas, lapack
    return blas, lapack


def _mirror_upper(A: np.ndarray, step: int = 64) -> None:
    """Copy the upper triangle of the square array A onto its lower one, in place: the
    strict lower part below each panel of step columns in one assignment, and each
    step x step diagonal block through a copy of its own."""
    n = len(A)
    for j in range(0, n, step):
        k = min(j + step, n)
        A[k:, j:k] = A[j:k, k:].T
        block = A[j:k, j:k]
        np.copyto(block, block.T.copy(), where=np.tri(k - j, k=-1, dtype=bool))


def _checked_vector(x, size: int, what: str = "values") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise ValueError(f"expected {size} {what}, got {x.shape}")
    return x


def _check_alpha(alpha: float) -> None:
    if not alpha > 0:
        raise ValueError("resolvent parameter alpha must be positive")


def _series_terms(rho: float) -> int:
    """Least N >= 0 with (1 + rho) rho^(N+1) / (1 - rho) <= 2^-53, for 0 <= rho <= 1/2."""
    terms, tail = 0, (1.0 + rho) * rho / (1.0 - rho)
    while tail > _UNIT_ROUNDOFF:
        terms, tail = terms + 1, tail * rho
    return terms


@dataclass
class GeneratorOperator:
    """Sparse stiffness/mass data of the generator on the active vertex space.

    One operator serves every resolvent handle on its form (``GraphForm.generator``),
    so its arrays, and the alpha-independent data it caches on first use, are read-only.
    """

    stiffness: sp.csr_matrix
    mass: np.ndarray
    active_index: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.mass)

    @cached_property
    def shift_pattern(self) -> tuple:
        """``_shift_pattern`` of the stiffness: the CSC pattern of P (K + alpha M) P^T
        in the form's fill-reducing order p, its diagonal positions, p and p's
        inverse."""
        return _freeze(_shift_pattern(self.stiffness))

    @cached_property
    def _dense_stiffness(self) -> tuple:
        """K as a read-only Fortran-ordered array, max_i K_ii (inf when some entry of K
        is not finite) and max_i m_i; only handles of at most DENSE_DIM rows read it."""
        K = np.asfortranarray(self.stiffness.toarray())
        k_max = float(K.diagonal().max(initial=0.0)) if np.isfinite(K).all() else math.inf
        return _freeze(K), k_max, float(self.mass.max(initial=0.0))

    @cached_property
    def splitting(self) -> tuple:
        """K's diagonal, W = -(K's off-diagonal part) and W's absolute row sums.

        Only approximating forms need it.
        """
        K = self.stiffness
        W = -K
        W.setdiag(0.0)
        W.eliminate_zeros()
        return _freeze((K.diagonal(), W, abs(W) @ np.ones(self.dim)))

    def norm_estimate(self) -> float:
        """Gershgorin bound max_i sum_j |K_ij| / m_i >= spectral radius of L; inf or NaN
        for a non-finite weight."""
        return float((abs(self.stiffness) @ np.ones(self.dim) / self.mass).max(initial=0.0))


def _csr(key: np.ndarray, data: np.ndarray, k: int) -> sp.csr_matrix:
    """k x k CSR with ``data`` at the sorted distinct keys row * k + col, scipy's index dtype."""
    import scipy.sparse as sp  # imported here: it adds ~0.2 s to `import graphforms`
    index = np.int32 if max(k, len(key)) < 2**31 else np.int64
    indptr = np.searchsorted(key, np.arange(0, k * k + 1, k)).astype(index)
    return sp.csr_matrix((data, (key % k).astype(index), indptr), shape=(k, k))


def assemble_stiffness(form: GraphForm, vertices=None) -> sp.csr_matrix:
    """Canonical CSR of K, Q(f, g) = f^T K g, on the rows and columns of the boolean
    mask ``vertices`` (None: all), in one pass over the form's pair table.

    Off the diagonal: -w per pair (``GraphForm.pairs``), summed in table order, as (u, v)
    then as (v, u).  Every diagonal entry is stored: the full weighted degree plus
    couplings plus killing, summed by one np.bincount in the order of a COO -> CSR
    conversion with a stable row sort (u ends, v ends, a self-coupling's -w twice).
    """
    n, ((u, v), w) = form.n, form.pairs
    loop = u == v
    diag = np.bincount(np.concatenate([u, v, u[loop], v[loop], np.arange(n)]),
                       np.concatenate([w, w, -w[loop], -w[loop], form.c_total]), n)
    mask = np.ones(n, dtype=bool) if vertices is None else vertices
    rows, cols, w = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    keep = mask[rows] & mask[cols] & (rows != cols)
    position = np.cumsum(mask) - 1
    rows, cols, w = position[rows[keep]], position[cols[keep]], w[keep]
    k = int(mask.sum())
    key, at = np.unique(np.concatenate([rows * k + cols, np.arange(k) * (k + 1)]),
                        return_inverse=True)
    # -(w_1 + w_2) is -w_1 - w_2 exactly, -0.0 for zero weights; an empty bincount is int
    data = -np.bincount(at[:len(w)], w, len(key)).astype(float)
    data[at[len(w):]] = diag[mask]
    return _csr(key, data, k)


def build_generator(form: GraphForm) -> GeneratorOperator:
    """K on the active vertices, ``assemble_stiffness(form, form.active)``, and their
    masses: each diagonal entry is the full weighted degree plus couplings plus killing,
    one np.bincount sum in assembly order, so edges into the boundary act as killing."""
    idx = np.flatnonzero(form.active)
    K_aa = assemble_stiffness(form, form.active)
    return GeneratorOperator(*_freeze((K_aa, form.graph.m[idx].copy(), idx)))


def _shift_pattern(K: sp.csr_matrix) -> tuple:
    """K in a fill-reducing order p, with the nonzero pattern that K + alpha M has for
    every alpha: the CSC of P K P^T (P x = x[p]), its diagonal positions, p and its
    inverse.

    K must be symmetric and store its whole diagonal, as ``build_generator`` makes it,
    so its CSR arrays are also its CSC arrays.  Off-diagonal explicit zeros are dropped,
    so adding alpha m[p] at the returned diagonal positions of the data gives, entry for
    entry, the canonical CSC of P (K + diag(alpha m)) P^T.

    p is the column order that splu(permc_spec="MMD_AT_PLUS_A") takes: minimum degree
    on the pattern of A^T + A, then the postorder of its elimination tree.  It is read
    off an incomplete factor that keeps no entry (spilu with drop_tol = inf and a panel
    of _PANEL columns: 4 ms at n = 9941, where the factor takes 12.5 ms) of a matrix
    with K's pattern, unit off-diagonals and a dominant diagonal.  So it depends on the
    pattern alone: never on the weights, on alpha or on which handle factors first.
    (SuperLU's default panel took 5.3 ms there, and 45 against 29 ms on the n = 99997
    path, for the same order.)
    """
    import scipy.sparse as sp  # imported here, as in _csr
    from scipy.sparse.linalg import spilu  # and here, as in ResolventHandle._factor

    n = K.shape[0]
    col = np.repeat(np.arange(n), np.diff(K.indptr))
    keep = (K.data != 0.0) | (K.indices == col)
    row, col, data = K.indices[keep], col[keep], K.data[keep]
    count = np.bincount(col, minlength=n)
    indptr = np.zeros(n + 1, dtype=K.indptr.dtype)
    np.cumsum(count, out=indptr[1:])
    unit = sp.csc_matrix((np.where(row == col, count[col], -1.0), row, indptr), shape=(n, n))
    position = spilu(unit, drop_tol=np.inf, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                     panel_size=_PANEL).perm_c.astype(np.intp)
    order = np.empty_like(position)
    order[position] = np.arange(n)
    row, col = position[row], position[col]
    at = np.argsort(col * n + row)
    row, col = row[at], col[at]
    np.cumsum(count[order], out=indptr[1:])
    pattern = sp.csc_matrix((data[at], row.astype(K.indices.dtype), indptr), shape=(n, n))
    return pattern, np.flatnonzero(row == col), order, position


class ResolventHandle:
    """Resolvent applications for one generator through one factor of K + alpha M.

    A solve of (K + alpha M) w = rhs with one right-hand side crosses _solve,
    which above SMALL_DIM active vertices takes the Neumann series where alpha
    dominates the diagonal (see the module docstring); every other solve goes
    through the factor of _factor.  Up to SMALL_DIM active vertices that is a
    dense Cholesky factor on scipy's LAPACK (_dense_factor's dpotrf, then dpotrs
    per solve); above that size, or where K + alpha M is not positive definite
    or may not be finite, a SuperLU factor of P (K + alpha M) P^T in the form's
    fill-reducing order (SuperLU's minimum degree on A^T + A and its
    postorder), with threshold pivoting and a panel of _PANEL columns, which
    raises ValueError for a K or M that is not finite, and OverflowError where
    K and M are finite but K + alpha M is not.  Its solves take P rhs and
    return the solution in Fortran order, as SuperLU does, with one array
    beyond SuperLU's own.  The factor of the most recent factored alpha is
    kept, so repeated solves at one alpha factor once; a new alpha releases the
    old factor before the new one is built, and a series solve leaves it in
    place.  resolvent_matrix inverts a dense factor of its own above SMALL_DIM
    and up to DENSE_DIM active vertices, and keeps neither.  The generator,
    its dense K, the order and the CSC pattern of P (K + alpha M) P^T do not
    depend on alpha, so they are built once per form, on first use, and
    shared by its handles.
    """

    def __init__(self, form: GraphForm):
        self.form = form
        self.generator = form.generator
        self._alpha = None
        self._solver = None

    @property
    def dim(self) -> int:
        return self.generator.dim

    # -- linear algebra -----------------------------------------------------

    @cached_property
    def _shifted(self) -> sp.csc_matrix:
        """A CSC matrix in the shared pattern of P (K + alpha M) P^T, with data of its own."""
        import scipy.sparse as sp  # imported here, as in _csr

        p = self.generator.shift_pattern[0]
        return sp.csc_matrix((p.data.copy(), p.indices, p.indptr), shape=p.shape)

    def _dense_factor(self, alpha: float):
        """The upper Cholesky factor of K + alpha M (dpotrf, Fortran order), or None where
        K + alpha M may not be finite or is not positive definite: the handle's one
        dense factorization, for _factor and resolvent_matrix."""
        gen = self.generator
        K, k_max, m_max = gen._dense_stiffness
        # No K_ii + alpha m_i rounds above k_max + alpha m_max.  Past it, or for a
        # K that is not finite, SuperLU checks every entry.
        if not k_max + alpha * m_max < math.inf:
            return None
        A = K.copy(order="F")
        diag = A.ravel(order="K")[:: len(A) + 1]  # a view of A's diagonal
        diag += alpha * gen.mass
        factor, info = _linalg()[1].dpotrf(A, lower=0, clean=0, overwrite_a=1)
        return factor if info == 0 else None  # info > 0: not positive definite

    def _factor(self, alpha: float):
        """rhs -> (K + alpha M)^{-1} rhs, through the factor of alpha."""
        if alpha != self._alpha:
            self._alpha = self._solver = None
            gen = self.generator
            n = len(gen.mass)
            factor = self._dense_factor(alpha) if n <= SMALL_DIM else None
            if factor is not None:
                dpotrs = _linalg()[1].dpotrs
                self._solver = lambda rhs: dpotrs(factor, rhs)[0]
            else:
                # imported here: scipy.sparse.linalg adds ~0.13 s to `import graphforms`
                from scipy.sparse.linalg import splu

                pattern, diag, order, position = gen.shift_pattern
                A = self._shifted
                A.data[:] = pattern.data
                with np.errstate(over="ignore"):  # an overflow is the OverflowError below
                    A.data[diag] += alpha * gen.mass[order]
                if not np.isfinite(A.data).all():
                    if np.isfinite(pattern.data).all() and np.isfinite(gen.mass).all():
                        raise OverflowError(f"K + alpha M overflows at alpha = {alpha!r}")
                    raise ValueError("K + alpha M is not finite; check the weights")
                if not A.data[diag].all():
                    # K_ii + alpha m_i cancelled or underflowed: drop it, as a sparse sum does
                    A = A.copy()
                    A.eliminate_zeros()
                lu = splu(A, permc_spec="NATURAL", panel_size=_PANEL)

                def solve(rhs):
                    # SuperLU solves a Fortran-ordered copy of P rhs; the rows of that
                    # solution go back into x, whose transpose is C-contiguous, so take
                    # writes them unbuffered and x stays the one extra array.
                    x = np.asfortranarray(rhs[order])
                    return np.take(lu.solve(x).T, position, axis=-1, out=x.T, mode="clip").T

                self._solver = solve
            self._alpha = alpha
        return self._solver

    def _solve(self, alpha: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + alpha M) w = rhs for a vector rhs, by the three-step rule of the
        module docstring: the one boundary of vector solves."""
        w = None if self.dim <= SMALL_DIM else self._series_solve(alpha, rhs)
        return self._factor(alpha)(rhs) if w is None else w

    def solve_columns(self, alpha: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + alpha M) X = rhs for a (dim, k) array rhs: one column through _solve,
        more in one call on the factor."""
        _check_alpha(alpha)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim != 2 or rhs.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows of right-hand sides, got {rhs.shape}")
        if rhs.shape[1] == 1:
            return self._solve(alpha, rhs[:, 0])[:, None]
        return self._factor(alpha)(rhs)

    def _series_solve(self, alpha: float, rhs: np.ndarray):
        """Neumann-series solution of (K + alpha M) w = rhs, or None when the shift
        does not dominate: some K_ii + alpha m_i is not positive and finite, or
        rho(alpha) > 1/2 or NaN (see the module docstring)."""
        diag, W, offsum = self.generator.splitting
        with np.errstate(over="ignore"):  # an overflowed d_i is refused below
            d = diag + alpha * self.generator.mass
        if not np.all((d > 0.0) & (d < math.inf)):
            return None
        rho = float((offsum / d).max(initial=0.0))
        if not rho <= 0.5:
            return None
        # x_{k+1} = D^{-1} (rhs + W x_k) from x_0 = D^{-1} rhs is the partial sum to k + 1.
        w = rhs / d
        for _ in range(_series_terms(rho)):
            w = (rhs + W @ w) / d
        return w

    # -- resolvent operations ------------------------------------------------

    def restrict(self, f_full: np.ndarray) -> np.ndarray:
        return np.asarray(f_full, dtype=float)[self.generator.active_index]

    def extend(self, u_active: np.ndarray) -> np.ndarray:
        out = np.zeros(self.form.n)
        out[self.generator.active_index] = u_active
        return out

    def apply(self, alpha: float, f: np.ndarray) -> np.ndarray:
        """u = G_alpha f on active coordinates: (K + alpha M) u = M f."""
        _check_alpha(alpha)
        f = _checked_vector(f, self.dim, "active values")
        return self._solve(alpha, self.generator.mass * f)

    def resolvent_matrix(self, alpha: float) -> np.ndarray:
        """Dense matrix of G_alpha = (K + alpha M)^{-1} M on active coordinates, in
        Fortran order.

        Above SMALL_DIM and up to DENSE_DIM active vertices it is one dense inversion in
        place: dpotri on the Cholesky factor of _dense_factor, its upper triangle mirrored
        onto the lower one and its columns scaled by m.  Otherwise, or where the dense
        factor fails, it is the multi-column solve of M on the handle's factor: up to
        SMALL_DIM that factor's dpotrs costs less than dpotri does.
        """
        _check_alpha(alpha)
        mass = self.generator.mass
        factor = self._dense_factor(alpha) if SMALL_DIM < self.dim <= DENSE_DIM else None
        if factor is not None:
            G, info = _linalg()[1].dpotri(factor, lower=0, overwrite_c=1)
            if info == 0:  # always, after a factor with a positive diagonal
                _mirror_upper(G)
                G *= mass
                return G
        return self.solve_columns(alpha, np.diag(mass))

    def approximating_bilinear(self, alpha: float, u: np.ndarray, v: np.ndarray) -> float:
        """E^(alpha)(u, v) = <u, (I - alpha G_alpha) v>_m = <u, G_alpha L v>_m.

        Each call is one solve of (K + alpha M) w = K v through _solve: above
        SMALL_DIM active vertices by the Neumann series when alpha dominates the
        diagonal (rho(alpha) <= 1/2, at most 55 sparse matvecs, tail below unit
        roundoff relative to max |w|), otherwise by the handle's factor.  So a
        ladder of distinct alphas above the diagonal factors nothing there.
        """
        _check_alpha(alpha)
        u = _checked_vector(u, self.dim, "active values")
        v = _checked_vector(v, self.dim, "active values")
        w = self._solve(alpha, self.generator.stiffness @ v)
        return float(np.sum(self.generator.mass * u * w))

    def approximating_form(self, alpha: float, f: np.ndarray) -> float:
        """E^(alpha)(f); nonnegative, and alpha E^(alpha)(f) increases to Q(f)."""
        return self.approximating_bilinear(alpha, f, f)


def default_alpha_ladder(handle: ResolventHandle):
    """Eight alphas, growing tenfold from one unit above the generator's Gershgorin bound,
    where rho(alpha) < 1/3 on an M-matrix K with nonnegative row sums."""
    bound = handle.generator.norm_estimate()
    if not math.isfinite(bound):
        raise ValueError("the generator norm bound is not finite; check the weights")
    alpha0 = 1.0 + bound
    return [alpha0 * 10.0**k for k in range(8)]


# ---------------------------------------------------------------------------
# Truncated-form data extracted from the resolvent
# ---------------------------------------------------------------------------


@dataclass
class CoefficientTable:
    """Edge/killing coefficients of the approximating form for a partition.

    For disjoint sets A_1..A_k of active vertices,

        b[i, j]     = alpha <1_Ai, G_alpha 1_Aj>_m          (i != j)
        b_phi[i, j] = alpha <phi 1_Ai, G_alpha(phi 1_Aj)>_m
        c[i]        = <1_Ai, 1_U - alpha G_alpha 1_U>_m,    U = union of sets
        c_phi[i]    = <phi 1_Ai, alpha G_alpha(phi 1_rest)>_m,  rest = active \\ U

    Sub-Markovianity forces 0 <= b_phi <= b and 0 <= c_phi <= c entrywise.
    """

    alpha: float
    b: np.ndarray
    b_phi: np.ndarray
    c: np.ndarray
    c_phi: np.ndarray

    def reconstruct(self, values, truncated: bool = False) -> float:
        """E^(alpha) of the simple function sum_i values[i] * 1_Ai.

        Uses the unordered-pair identity
        E^(alpha)(f) = sum_{i<j} b_ij (v_i - v_j)^2 + sum_i c_i v_i^2.
        """
        b = self.b_phi if truncated else self.b
        c = self.c_phi if truncated else self.c
        k = len(values)
        terms = [
            b[i, j] * (values[i] - values[j]) ** 2
            for i in range(k)
            for j in range(i + 1, k)
        ]
        terms.extend(c[i] * values[i] ** 2 for i in range(k))
        return math.fsum(terms)


def truncated_coefficients(
    handle: ResolventHandle, alpha: float, phi: np.ndarray, partition
) -> CoefficientTable:
    """Coefficient families for a cutoff phi and disjoint active vertex sets.

    ``phi`` is a cutoff as ``truncated_form`` takes it: a function on the full
    truncation with 0 <= phi <= 1 that vanishes off the active set;
    ``partition`` lists pairwise disjoint sets of vertices (ids or indices).
    Vertices of a set off the active set count for nothing.

    The 2k + 2 resolvents behind a table of k sets, of M 1_Aj, M phi 1_Aj,
    M 1_U and M phi 1_rest, come from one multi-column solve on the handle's
    factor, and each column of coefficients is one ``np.bincount`` over the
    set labels of the active members.  Raises ValueError unless alpha > 0.
    """
    phi = _check_cutoff(handle.form, _checked_vector(phi, handle.form.n))
    g = handle.form.graph
    label = np.full(g.n, -1)  # the set of each vertex, -1 for none
    k = 0
    for A in partition:
        idx = np.fromiter(map(g._resolve, A), dtype=int)
        if (label[idx] >= 0).any():
            raise ValueError("partition sets must be pairwise disjoint")
        label[idx] = k
        k += 1

    # Factor before the right-hand sides exist, so they never sit beside its workspace.
    _check_alpha(alpha)
    handle._factor(alpha)
    gen = handle.generator
    label = label[gen.active_index]
    rows = np.flatnonzero(label >= 0)  # the active members of U, the union of the sets
    label = label[rows]
    mass, phi_mass = gen.mass, gen.mass * phi[gen.active_index]
    rhs = np.zeros((handle.dim, 2 * k + 2))
    rhs[rows, label] = mass[rows]
    rhs[rows, k + label] = phi_mass[rows]
    rhs[rows, 2 * k] = mass[rows]
    rhs[:, 2 * k + 1] = phi_mass
    rhs[rows, 2 * k + 1] = 0.0
    X = handle.solve_columns(alpha, rhs)[rows]
    mass, phi_mass = mass[rows], phi_mass[rows]

    def set_sums(terms):
        return np.bincount(label, weights=terms, minlength=k)

    b = np.zeros((k, k))
    b_phi = np.zeros((k, k))
    for j in range(k):
        b[:, j] = alpha * set_sums(mass * X[:, j])
        b_phi[:, j] = alpha * set_sums(phi_mass * X[:, k + j])
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b_phi, 0.0)
    c = set_sums(mass * (1.0 - alpha * X[:, 2 * k]))
    c_phi = alpha * set_sums(phi_mass * X[:, 2 * k + 1])
    return CoefficientTable(alpha=alpha, b=b, b_phi=b_phi, c=c, c_phi=c_phi)


# ---------------------------------------------------------------------------
# Truncated-form values along an alpha ladder
# ---------------------------------------------------------------------------


@dataclass
class LadderResult:
    alphas: list
    values: list
    limit: float
    converged: bool


def truncated_form_via_resolvent(
    handle: ResolventHandle,
    phi: np.ndarray,
    f: np.ndarray,
    alpha_ladder=None,
    rel_tol: float = 1e-5,
) -> LadderResult:
    """Estimate the truncated form of f by alpha (E^(a)(phi f) - E^(a)(phi f^2, phi)).

    The reported limit is the last ladder value; the convergence flag is set
    when the last two relative changes fall below rel_tol.  The approximation
    is only meaningful for functions whose truncated energy is finite; a
    diverging ladder is reported, not raised.
    """
    # apply's size message first, then the checks of truncated_form
    phi = _check_cutoff(handle.form, _checked_vector(phi, handle.form.n))
    f = as_function(handle.form.graph, _checked_vector(f, handle.form.n))
    if alpha_ladder is None:
        alpha_ladder = default_alpha_ladder(handle)
    pf = handle.restrict(phi * f)
    pf2 = handle.restrict(phi * f * f)
    pa = handle.restrict(phi)
    values = []
    for alpha in alpha_ladder:
        on_diag = handle.approximating_bilinear(alpha, pf, pf)
        off_diag = handle.approximating_bilinear(alpha, pf2, pa)
        values.append(alpha * (on_diag - off_diag))
    return LadderResult(
        alphas=list(alpha_ladder),
        values=values,
        limit=values[-1] if values else 0.0,
        converged=increments_settled(values, rel_tol),
    )
