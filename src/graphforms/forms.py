"""Quadratic energy forms assembled from graph data.

A form carries a domain mask: functions in the domain vanish off the active
vertex set.  Energies use the ordered-pair convention

    Q(f) = sum_{x,y} b(x,y) (f(x)-f(y))^2 + sum_x c_tot(x) f(x)^2 + couplings,

so every stored unordered edge contributes twice.  Evaluating a function that
is nonzero off the active set yields the sentinel OUT_OF_DOMAIN (infinity)
rather than an exception, so suprema and limits propagate it naturally.

All energy sums are exactly-rounded (math.fsum), which is what makes the
1e-12-level oracle comparisons in the test suite meaningful.  Energies, truncated
forms and the level walk share this module's term kernel (``energy_terms``), its
finite-weights flag and power-of-two shift, and one overflow rule (``exact_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .graph import WeightedGraph, _freeze, _read_only

#: Distinguished energy value of functions outside the form domain.
OUT_OF_DOMAIN = math.inf


def as_function(graph: WeightedGraph, values) -> np.ndarray:
    """Coerce values to a vertex function on the graph's truncation."""
    f = np.asarray(values, dtype=float)
    if f.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} values, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("vertex functions must be finite")
    return f


def increments_settled(values, rel_tol: float) -> bool:
    """True when the last two relative increments of values fall below rel_tol.

    Needs at least three values; a step between two zeros counts as zero.
    """

    def rel(a, b):
        scale = max(abs(a), abs(b))
        return 0.0 if scale == 0.0 else abs(b - a) / scale

    tail = values[-3:]
    return len(tail) == 3 and all(rel(a, b) < rel_tol for a, b in zip(tail, tail[1:]))


@dataclass(frozen=True)
class Coupling:
    """Extra difference term w * (f(u) - f(v))^2 added once to the energy.

    Kept outside the graph's b so scenario-specific terms (which may touch
    masked boundary vertices) do not pollute graph validation.
    """

    u: int
    v: int
    w: float

    def __post_init__(self):
        if self.w < 0:
            raise ValueError("coupling weight must be nonnegative")


class GraphForm:
    """Energy form on a finite truncation with a Dirichlet-style domain mask.

    The mask, the extra killing and the total killing are read-only copies, since
    ``generator`` caches what is built from them.
    """

    def __init__(self, graph, active, killing_extra=None, couplings=()):
        self.graph = graph
        self.active = _read_only(active, bool)
        if self.active.shape != (graph.n,):
            raise ValueError("active mask must have one entry per vertex")
        if not self.active.any():
            raise ValueError("empty domain: no active vertices")
        self.killing_extra = _read_only(np.zeros(graph.n) if killing_extra is None
                                        else killing_extra, float)
        if (self.killing_extra < 0).any():
            raise ValueError("extra killing must be nonnegative")
        self.couplings = tuple(couplings)
        self.c_total = _freeze(self.graph.c + self.killing_extra)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def generator(self):
        """The generator on the active vertices (``resolvent.build_generator``), built
        on first use and shared, read-only, by every resolvent handle on this form."""
        from .resolvent import build_generator  # resolvent imports this module

        return build_generator(self)

    @cached_property
    def pairs(self) -> tuple:
        """Read-only pair table (ends, w), built on first use: the (2, P) int endpoints and
        the weights of the terms w (f(u) - f(v))^2.  Rows are the graph's edges in stored
        order, w = 2b (inf for b > 8.99e307), then the couplings in order; energies,
        stiffness assembly and the level walk read it; stiffness floats rely on that order."""
        g, cps = self.graph, self.couplings
        coupled = np.array([(cp.u, cp.v) for cp in cps], dtype=int).reshape(-1, 2).T
        with np.errstate(over="ignore"):
            w = np.concatenate((2.0 * g.edge_b, [cp.w for cp in cps]))
        return _freeze((np.concatenate((np.stack((g.edge_u, g.edge_v)), coupled), axis=1), w))

    @cached_property
    def finite(self) -> bool:
        """Whether every pair-table weight and total killing is finite (else energies are NaN)."""
        return bool(np.isfinite(self.pairs[1]).all() and np.isfinite(self.c_total).all())

    def in_domain(self, f: np.ndarray) -> bool:
        return bool(np.all(f[~self.active] == 0.0))

    def shift(self, f) -> int:
        """The smallest k >= 0 with |2^-k f| < 2^511, so that no product f(x) f(y)
        overflows, and a term bound sum |w| (|f(u)| + |f(v)|)^2 + sum |c| f^2 of 2^-k f
        of at most 2^_TERM_BITS, summed over f and the finite weights scaled below 1."""
        (ends, w), c = self.pairs, self.c_total
        e = int(np.frexp(np.abs(f).max())[1])  # |f| < 2^e
        ew = int(np.frexp(max(np.abs(w).max(initial=0.0), np.abs(c).max()))[1])
        g, w, c = np.ldexp(f, -e), np.ldexp(np.abs(w), -ew), np.ldexp(np.abs(c), -ew)
        s = np.abs(g[ends]).sum(axis=0)
        bound = float(np.sum(w * s * s) + np.sum(c * g * g))
        m, t = math.frexp(bound)
        p = t - (m == 0.5) + ew + 2 * e if bound else 0  # the bound of f is at most 2^p
        return max(0, e - 511, (p - _TERM_BITS + 1) // 2)  # 2^(p - 2k) <= 2^_TERM_BITS

    def exact_sums(self, f, g, operands=lambda a, b: [(a, b)]) -> list:
        """The sums Q(a, b) of the pairs (a, b) in ``operands(f, g)``, each product a b one
        factor of f times one of g, by one rule: all NaN unless the form is ``finite``;
        else the correctly rounded sums of the terms at k = 0 if every term and fsum is
        finite there, else those of ``operands(2^-k_f f, 2^-k_g g)``, k = ``shift``, times
        2^(k_f + k_g), with OverflowError where a value is past the float range."""
        with np.errstate(over="ignore", invalid="ignore"):  # the k = 0 attempt may overflow
            sums = [_fsum(self._terms(a, b)) for a, b in operands(f, g)]
        if not self.finite:
            return [math.nan] * len(sums)
        if all(map(math.isfinite, sums)):
            return sums
        kf = self.shift(f)
        kg = kf if g is f else self.shift(g)
        fk = np.ldexp(f, -kf)
        gk = fk if g is f else np.ldexp(g, -kg)
        return [unscale(_fsum(self._terms(a, b)), kf + kg) for a, b in operands(fk, gk)]

    def _terms(self, a, b) -> np.ndarray:
        """``energy_terms`` of Q(a, b) on the whole pair table and every vertex."""
        ends, w = self.pairs
        a_p = a[ends]
        return energy_terms(a_p, a_p if b is a else b[ends], w, a, b, self.c_total)

    def evaluate(self, f) -> float:
        """Energy Q(f); OUT_OF_DOMAIN when f is nonzero off the active set."""
        f = as_function(self.graph, f)
        return self.exact_sums(f, f)[0] if self.in_domain(f) else OUT_OF_DOMAIN

    def bilinear(self, f, g) -> float:
        """Symmetric bilinear value Q(f, g); equals evaluate on the diagonal.

        Computed as the exact term sum.  Polarization, (Q(f+g) - Q(f-g))/4,
        recovers the same value and is exercised by the test suite.
        """
        f = as_function(self.graph, f)
        g = as_function(self.graph, g)
        if not self.in_domain(f) or not self.in_domain(g):
            return OUT_OF_DOMAIN
        return self.exact_sums(f, g)[0]


#: ``GraphForm.shift`` scales f until the absolute terms of Q(f) sum to at most 2 to this
#: power, so that no partial sum of fsum or of the level walk's extraction can overflow.
_TERM_BITS = 960


def energy_terms(a_p, b_p, w, a_x, b_x, c) -> np.ndarray:
    """The terms of Q(a, b) in one new array, written in place: (w (a_0 - a_1)) (b_0 - b_1)
    per pair-table row, whose endpoints are rows 0 and 1 of ``a_p`` and ``b_p``, then
    c (a b) per vertex.  ``b_p`` given as ``a_p`` itself reuses the differences."""
    rp = len(w)
    terms = np.empty(rp + len(c))
    tp, tx = terms[:rp], terms[rp:]
    d = np.subtract(a_p[0], a_p[1])
    np.multiply(w, d, out=tp)
    if b_p is not a_p:
        np.subtract(b_p[0], b_p[1], out=d)
    tp *= d
    np.multiply(a_x, b_x, out=tx)
    tx *= c
    return terms


def unscale(total: float, k: int) -> float:
    """2^k total; OverflowError where that is past the float range."""
    try:
        return math.ldexp(total, k)
    except OverflowError:
        raise OverflowError("an energy term is past the float range") from None


def _fsum(terms: np.ndarray) -> float:
    """The correctly rounded sum of the nonzero terms; not finite where a term or a
    partial sum is not."""
    try:
        return math.fsum(terms[terms != 0.0].tolist())
    except (OverflowError, ValueError):  # a partial sum past the range, or inf - inf
        return math.inf


def assemble(
    graph: WeightedGraph,
    boundary=(),
    extra_killing=None,
    couplings=(),
) -> GraphForm:
    """Build the form of a graph with a Dirichlet boundary and optional extras.

    ``boundary`` lists vertices excluded from the domain (functions in the
    domain vanish there), ``extra_killing`` maps vertex -> additional killing
    weight and ``couplings`` lists (u, v, w) difference terms added once.
    """
    active = np.ones(graph.n, dtype=bool)
    for v in boundary:
        active[graph._resolve(v)] = False
    if not active.any():
        raise ValueError("boundary covers all vertices: empty domain")
    extra = np.zeros(graph.n)
    for v, w in (extra_killing or {}).items():
        extra[graph._resolve(v)] = float(w)
    cps = [Coupling(graph._resolve(u), graph._resolve(v), float(w)) for u, v, w in couplings]
    return GraphForm(graph, active, extra, cps)


# ---------------------------------------------------------------------------
# Normal contractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalContraction:
    """A map C with C(0) = 0 and |C(x) - C(y)| <= |x - y|, applied pointwise."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if abs(float(self.fn(np.zeros(1))[0])) != 0.0:
            raise ValueError(f"contraction {self.name} does not fix 0")

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(f, dtype=float))


identity = NormalContraction("identity", lambda x: x)
absolute = NormalContraction("abs", np.abs)
positive_part = NormalContraction("positive_part", lambda x: np.maximum(x, 0.0))


def clamp(alpha: float) -> NormalContraction:
    """Truncation to [-alpha, alpha]; the bounded approximation f^(alpha)."""
    if not alpha > 0:
        raise ValueError("clamp level must be positive")
    return NormalContraction(f"clamp_{alpha:g}", lambda x: np.clip(x, -alpha, alpha))


def compose(outer: NormalContraction, inner: NormalContraction) -> NormalContraction:
    return NormalContraction(f"{outer.name}({inner.name})", lambda x: outer.fn(inner.fn(x)))


def contraction_catalog() -> list:
    """The standard catalog used by the property suites."""
    return [
        identity,
        absolute,
        positive_part,
        clamp(1.0),
        clamp(0.5),
        compose(positive_part, clamp(1.0)),
        compose(clamp(0.5), absolute),
    ]


def apply_contraction(C: NormalContraction, f: np.ndarray) -> np.ndarray:
    """Pointwise C∘f, preserving the truncation."""
    return C(f)


# ---------------------------------------------------------------------------
# Parallelogram-law check
# ---------------------------------------------------------------------------


@dataclass
class ParallelogramReport:
    max_defect: float
    passed: bool
    worst_index: int


def check_parallelogram(q, samples, tol: float = 1e-10) -> ParallelogramReport:
    """Quadratic-form test: q(f+g) + q(f-g) = 2 q(f) + 2 q(g) on sample pairs.

    ``q`` is a GraphForm or any callable f -> energy.  A pair passes when the
    absolute defect is at most tol * (1 + q(f) + q(g)).
    """
    energy = q.evaluate if isinstance(q, GraphForm) else q
    worst, worst_idx, passed = 0.0, -1, True
    for k, (f, g) in enumerate(samples):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        qf, qg = energy(f), energy(g)
        defect = abs(energy(f + g) + energy(f - g) - 2.0 * qf - 2.0 * qg)
        if defect > worst:
            worst, worst_idx = defect, k
        if defect > tol * (1.0 + qf + qg):
            passed = False
    return ParallelogramReport(max_defect=worst, passed=passed, worst_index=worst_idx)
