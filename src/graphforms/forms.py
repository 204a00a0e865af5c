"""Quadratic energy forms assembled from graph data.

A form carries a domain mask: functions in the domain vanish off the active
vertex set.  Energies use the ordered-pair convention

    Q(f) = sum_{x,y} b(x,y) (f(x)-f(y))^2 + sum_x c_tot(x) f(x)^2 + couplings,

so every stored unordered edge contributes twice.  Evaluating a function that
is nonzero off the active set yields the sentinel OUT_OF_DOMAIN (infinity)
rather than an exception, so suprema and limits propagate it naturally.

All energy sums are exactly-rounded (math.fsum), which is what makes the
1e-12-level oracle comparisons in the test suite meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graph import WeightedGraph

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
    """Energy form on a finite truncation with a Dirichlet-style domain mask."""

    def __init__(self, graph, active, killing_extra=None, couplings=()):
        self.graph = graph
        self.active = np.asarray(active, dtype=bool)
        if self.active.shape != (graph.n,):
            raise ValueError("active mask must have one entry per vertex")
        if not self.active.any():
            raise ValueError("empty domain: no active vertices")
        if killing_extra is None:
            killing_extra = np.zeros(graph.n)
        self.killing_extra = np.asarray(killing_extra, dtype=float)
        if (self.killing_extra < 0).any():
            raise ValueError("extra killing must be nonnegative")
        self.couplings = tuple(couplings)
        self.c_total = self.graph.c + self.killing_extra
        # An inf weight times a zero difference is NaN, so no term is then known to vanish.
        self._finite_weights = bool(
            np.isfinite(graph.edge_b).all() and np.isfinite(self.c_total).all()
        )

    @property
    def n(self) -> int:
        return self.graph.n

    def in_domain(self, f: np.ndarray) -> bool:
        return bool(np.all(f[~self.active] == 0.0))

    def _support(self, phi):
        """(edge indices, vertex indices) where phi != 0: the vertices and the edges
        touching them.

        Every edge and vertex term of Q(f, g) outside it is an exact zero when f and
        g vanish wherever phi does.  None (the whole graph) when some edge or killing
        weight is non-finite, so that an inf * 0 = NaN term still shows.
        """
        if not self._finite_weights:
            return None
        nonzero = phi != 0.0
        gph = self.graph
        edges = np.flatnonzero(nonzero[gph.edge_u] | nonzero[gph.edge_v])
        return edges, np.flatnonzero(nonzero)

    def _terms(self, f, g, support=None):
        """Nonzero ordered-pair terms of Q(f, g); exact zeros cannot change an fsum.

        ``support`` = (edge indices, vertex indices) restricts the edge and vertex
        terms to those (in index order); couplings are always included.
        """
        gph = self.graph
        eu, ev, b, c, fv, gv = gph.edge_u, gph.edge_v, gph.edge_b, self.c_total, f, g
        if support is not None:
            edges, verts = support
            eu, ev, b = eu[edges], ev[edges], b[edges]
            c, fv, gv = c[verts], f[verts], g[verts]
        du = f[eu] - f[ev]
        dv = du if g is f else g[eu] - g[ev]
        cps = [cp.w * (f[cp.u] - f[cp.v]) * (g[cp.u] - g[cp.v]) for cp in self.couplings]
        terms = np.concatenate((2.0 * b * du * dv, c * (fv * gv), cps))
        return terms[terms != 0.0].tolist()

    def evaluate(self, f) -> float:
        """Energy Q(f); OUT_OF_DOMAIN when f is nonzero off the active set."""
        f = as_function(self.graph, f)
        if not self.in_domain(f):
            return OUT_OF_DOMAIN
        return math.fsum(self._terms(f, f))

    def bilinear(self, f, g) -> float:
        """Symmetric bilinear value Q(f, g); equals evaluate on the diagonal.

        Computed as the exact term sum.  Polarization, (Q(f+g) - Q(f-g))/4,
        recovers the same value and is exercised by the test suite.
        """
        f = as_function(self.graph, f)
        g = as_function(self.graph, g)
        if not self.in_domain(f) or not self.in_domain(g):
            return OUT_OF_DOMAIN
        return math.fsum(self._terms(f, g))


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
    if extra_killing:
        for v, w in extra_killing.items():
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
