"""Weighted graphs over a measure space: storage, validation, generators, exhaustions.

A graph is a triple (b, c, m) over an ordered vertex set: symmetric positive
edge weights b (stored once per unordered pair, no self loops), a nonnegative
killing weight c per vertex and a positive measure weight m per vertex.
Countable graphs are only ever touched through finite truncations produced by
deterministic generators.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np


class GraphFormatError(ValueError):
    """Raised when graph data cannot be assembled into a WeightedGraph."""


class WeightedGraph:
    """Finite weighted graph (b, c, m) with opaque string vertex ids.

    Vertex ids are mapped to dense indices in construction order.  Edges are
    normalized to index pairs (u, v) with u < v; energy evaluation uses the
    ordered-pair convention, so each stored edge counts twice.
    """

    def __init__(self, ids, m, c, edges):
        self._set_vertices(ids, m, c)
        edges = list(edges)
        ends = np.array([(self._resolve(u), self._resolve(v)) for u, v, _ in edges], dtype=int)
        ends = ends.reshape(-1, 2)
        b = np.array([float(b) for _, _, b in edges], dtype=float)
        self._set_edges(ends[:, 0], ends[:, 1], b)

    @classmethod
    def _from_arrays(cls, ids, m, c, edge_u, edge_v, edge_b) -> "WeightedGraph":
        """Graph from vertex data and edge index arrays, without resolving ids."""
        g = cls.__new__(cls)
        g._set_vertices(ids, m, c)
        g._set_edges(edge_u, edge_v, edge_b)
        return g

    def _set_vertices(self, ids, m, c):
        self.ids = list(ids)
        self.index = {v: i for i, v in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise GraphFormatError("duplicate vertex id")
        self.m = np.asarray(m, dtype=float)
        self.c = np.asarray(c, dtype=float)
        if self.m.shape != (self.n,) or self.c.shape != (self.n,):
            raise GraphFormatError("m and c must have one value per vertex")

    def _set_edges(self, edge_u, edge_v, edge_b):
        self.edge_u, self.edge_v = np.sort(np.column_stack((edge_u, edge_v)), axis=1).T.copy()
        self.edge_b = edge_b
        # The first edge in order that is a self-loop or repeats an earlier pair.
        repeat = np.ones(len(edge_b), dtype=bool)
        repeat[np.unique(self.edge_u * self.n + self.edge_v, return_index=True)[1]] = False
        bad = np.flatnonzero((self.edge_u == self.edge_v) | repeat)
        if bad.size:
            iu, iv = self.edge_u[bad[0]], self.edge_v[bad[0]]
            if iu == iv:
                raise GraphFormatError(f"self-loop edge at vertex {self.ids[iu]!r}")
            raise GraphFormatError(f"duplicate edge ({self.ids[iu]!r}, {self.ids[iv]!r})")

        # CSR adjacency: every edge in both directions, in edge order per vertex.
        src = np.column_stack((self.edge_u, self.edge_v)).ravel()
        order = np.argsort(src, kind="stable")
        self._nbr = np.column_stack((self.edge_v, self.edge_u)).ravel()[order]
        self._nbr_b = np.repeat(self.edge_b, 2)[order]
        self._indptr = np.searchsorted(src[order], np.arange(self.n + 1))

    def _resolve(self, v) -> int:
        if isinstance(v, (int, np.integer)):
            if not 0 <= v < self.n:
                raise GraphFormatError(f"vertex index {v} out of range")
            return int(v)
        try:
            return self.index[v]
        except KeyError:
            raise GraphFormatError(f"unknown vertex id {v!r}") from None

    @property
    def n(self) -> int:
        return len(self.ids)

    def neighbors(self, i: int):
        """Neighbors of vertex index i as (index, b) pairs."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return list(zip(self._nbr[lo:hi].tolist(), self._nbr_b[lo:hi].tolist()))

    def weighted_degree(self, i: int) -> float:
        """Exact sum of b(i, y) over the neighbors y, correctly rounded.

        +-inf when that sum leaves the float range; NaN when the neighbor
        weights include both +inf and -inf, whose sum is undefined.
        """
        weights = self._nbr_b[self._indptr[i] : self._indptr[i + 1]].tolist()
        # Finite weights cannot change an infinite or NaN sum.
        nonfinite = [w for w in weights if not math.isfinite(w)]
        try:
            return math.fsum(nonfinite or weights)
        except ValueError:  # -inf + inf
            return math.nan
        except OverflowError:
            # fsum raises this for an overflowing partial sum of either sign.
            exact = sum(map(Fraction, weights))
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf

    def distances_from(self, sources) -> np.ndarray:
        """Hop distances from a set of vertex indices; unreachable = inf."""
        dist = np.full(self.n, np.inf)
        frontier = np.unique(np.fromiter(sources, dtype=int))
        hops = 0
        while frontier.size:
            dist[frontier] = hops
            hops += 1
            # Positions of the frontier's CSR rows, concatenated.
            starts = self._indptr[frontier]
            counts = self._indptr[frontier + 1] - starts
            rows = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            reached = self._nbr[rows]
            frontier = np.unique(reached[dist[reached] == np.inf])
        return dist

    def to_dict(self) -> dict:
        verts = [
            {"id": v, "m": float(self.m[i]), "c": float(self.c[i])}
            for i, v in enumerate(self.ids)
        ]
        edges = []
        for iu, iv, b in zip(self.edge_u, self.edge_v, self.edge_b):
            u, v = self.ids[iu], self.ids[iv]
            if v < u:
                u, v = v, u
            edges.append({"u": u, "v": v, "b": float(b)})
        edges.sort(key=lambda e: (e["u"], e["v"]))
        return {"vertices": verts, "edges": edges}


def validate(g: WeightedGraph) -> list:
    """Check the graph axioms; returns one message per violation (empty iff valid).

    Self-loops, asymmetry and duplicate edges are excluded structurally by the
    storage, so only the value constraints can fail here.
    """
    violations = []
    bad_m, bad_c = ~(g.m > 0), g.c < 0
    nonfinite = ~(np.isfinite(g.m) & np.isfinite(g.c))
    for i in np.flatnonzero(bad_m | bad_c | nonfinite):
        v = g.ids[i]
        if bad_m[i]:
            violations.append(f"nonpositive measure m({v}) = {g.m[i]}")
        if bad_c[i]:
            violations.append(f"negative killing c({v}) = {g.c[i]}")
        if nonfinite[i]:
            violations.append(f"non-finite vertex data at {v}")
    for k in np.flatnonzero(~(np.isfinite(g.edge_b) & (g.edge_b > 0))):
        u, v = g.ids[g.edge_u[k]], g.ids[g.edge_v[k]]
        violations.append(f"nonpositive edge weight b({u},{v}) = {g.edge_b[k]}")
    # Every weighted degree in one pass; an overflow reads inf instead of raising.
    with np.errstate(over="ignore"):
        degree = np.bincount(g._nbr, weights=g._nbr_b, minlength=g.n)
    for i in np.flatnonzero(~np.isfinite(degree)):
        violations.append(f"infinite neighbor weight sum at {g.ids[i]}")
    return violations


def graph_from_dict(data: dict) -> WeightedGraph:
    """Build a graph from parsed schema data; structural errors raise."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise GraphFormatError("top-level object must contain 'vertices'")
    try:
        ids = [str(rec["id"]) for rec in data["vertices"]]
        m = [float(rec["m"]) for rec in data["vertices"]]
        c = [float(rec["c"]) for rec in data["vertices"]]
        edges = [
            (str(rec["u"]), str(rec["v"]), float(rec["b"]))
            for rec in data.get("edges", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed record: {exc}") from None
    return WeightedGraph(ids, m, c, edges)


def load_graph(source) -> WeightedGraph:
    """Parse a graph from the JSON schema and validate it.

    ``source`` may be a JSON string, bytes, or a readable file object.  The
    vertex order of the returned graph is the file order.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from None

    g = graph_from_dict(data)
    violations = validate(g)
    if violations:
        raise GraphFormatError("; ".join(violations))
    return g


def emit_graph(g: WeightedGraph) -> str:
    """Serialize to the JSON schema; inverse of load_graph for valid graphs."""
    return json.dumps(g.to_dict(), sort_keys=True, indent=2) + "\n"


def make_path(n: int, h: float) -> WeightedGraph:
    """Path graph discretizing an interval with mesh width h.

    Edge weights are 1/(2h) so the ordered-pair energy of f equals the
    discrete Dirichlet integral sum_i (f[i+1]-f[i])^2 / h; vertex measure is h
    and there is no killing.
    """
    if n < 2:
        raise ValueError("make_path needs n >= 2")
    if not h > 0:
        raise ValueError("make_path needs h > 0")
    ids = [f"v{i}" for i in range(n)]
    edges = [(f"v{i}", f"v{i+1}", 1.0 / (2.0 * h)) for i in range(n - 1)]
    return WeightedGraph(ids, [h] * n, [0.0] * n, edges)


def single_vertex(m: float, c: float, vid: str = "x") -> WeightedGraph:
    return WeightedGraph([vid], [m], [c], [])


# ---------------------------------------------------------------------------
# Generators for countable graphs, accessed through finite truncations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _IntegerGrid:
    """Z^d with uniform data; a vertex has the id of its coordinates joined by
    commas, each written as str(int), so that every point has exactly one id."""

    m: float = 1.0
    c: float = 0.0
    b: float = 1.0

    #: Neighbour offsets, in the order each subclass's ``neighbors`` lists them.
    steps: ClassVar[tuple] = ()

    def measure(self, vid: str) -> float:
        return self.m

    def killing(self, vid: str) -> float:
        return self.c

    def _ball(self, root: str, radius: int) -> WeightedGraph:
        """``truncate(self, generator_ball(self, root, radius))``, built in index space.

        One frontier BFS over integer points keeps first occurrences in
        frontier-major, neighbour-minor order, as the queue BFS does; the edges
        are the pairs (i, j) with j > i, by i and then by step, as truncate
        emits them.
        """
        if not self.contains(root):
            raise ValueError(f"root {root!r} not generated")
        steps = np.array(self.steps)
        origin = np.array([int(t) for t in root.split(",")])
        side = 2 * radius + 3  # the box around the ball also holds its neighbours
        scale = side ** np.arange(len(origin))

        def key(points):
            return (points - origin + radius + 1) @ scale

        position = np.full(side ** len(origin), -1)
        frontier = origin[None, :]
        position[key(frontier)] = 0
        layers, n = [frontier], 1
        for _ in range(radius):
            reached = (frontier[:, None, :] + steps).reshape(-1, len(origin))
            keys = key(reached)
            fresh = np.flatnonzero(position[keys] < 0)
            first = np.sort(fresh[np.unique(keys[fresh], return_index=True)[1]])
            frontier = reached[first]
            position[keys[first]] = np.arange(n, n + len(first))
            layers.append(frontier)
            n += len(first)
        points = np.concatenate(layers)
        nbr = position[key(points[:, None, :] + steps)]
        later = nbr > np.arange(n)[:, None]
        ids = list(map(",".join(["{}"] * len(origin)).format, *points.T.tolist()))
        return WeightedGraph._from_arrays(
            ids,
            np.full(n, float(self.m)),
            np.full(n, float(self.c)),
            np.nonzero(later)[0],
            nbr[later],
            np.full(int(later.sum()), float(self.b)),
        )


@dataclass(frozen=True)
class IntegerLineGenerator(_IntegerGrid):
    """The integer line with uniform data; vertex k has id str(k)."""

    steps: ClassVar[tuple] = ((-1,), (1,))

    def contains(self, vid: str) -> bool:
        try:
            return str(int(vid)) == vid
        except ValueError:
            return False

    def neighbors(self, vid: str):
        k = int(vid)
        return [(str(k - 1), self.b), (str(k + 1), self.b)]


@dataclass(frozen=True)
class SquareLatticeGenerator(_IntegerGrid):
    """The 2d integer lattice with uniform data; vertex (i,j) has id 'i,j'."""

    steps: ClassVar[tuple] = ((-1, 0), (1, 0), (0, -1), (0, 1))

    def contains(self, vid: str) -> bool:
        try:
            i, j = vid.split(",")
            return f"{int(i)},{int(j)}" == vid
        except (AttributeError, ValueError):
            return False

    def neighbors(self, vid: str):
        i, j = (int(t) for t in vid.split(","))
        return [
            (f"{i-1},{j}", self.b),
            (f"{i+1},{j}", self.b),
            (f"{i},{j-1}", self.b),
            (f"{i},{j+1}", self.b),
        ]


def generator_ball(gen, root: str, radius: int) -> list:
    """Vertex ids within hop distance radius of root, in BFS order."""
    if not gen.contains(root):
        raise ValueError(f"root {root!r} not generated")
    order = [root]
    dist = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for y, _ in gen.neighbors(x):
            if y not in dist and gen.contains(y):
                dist[y] = dist[x] + 1
                order.append(y)
                queue.append(y)
    return order


def truncate(gen, vertex_ids) -> WeightedGraph:
    """Finite truncation of a generated graph, induced on the given ids."""
    ids = list(vertex_ids)
    position = {v: i for i, v in enumerate(ids)}
    m = [gen.measure(v) for v in ids]
    c = [gen.killing(v) for v in ids]
    # Generated graphs are symmetric: emit each pair once, from its earlier endpoint.
    edges = [
        (i, j, b)
        for i, v in enumerate(ids)
        for u, b in gen.neighbors(v)
        if (j := position.get(u, -1)) > i
    ]
    return WeightedGraph(ids, m, c, edges)


@dataclass
class Exhaustion:
    """Nested finite vertex sets F_1 <= F_2 <= ... with cutoff functions.

    Every cutoff equals 1 on its set, lies in [0, 1], has finite support and
    the sequence is pointwise nondecreasing.  All data lives on one common
    finite truncation.
    """

    graph: WeightedGraph
    sets: list
    cutoffs: list
    nest_assumed: bool = False

    @property
    def levels(self) -> int:
        return len(self.sets)

    @classmethod
    def full(cls, graph: WeightedGraph) -> "Exhaustion":
        """Trivial exhaustion of a finite graph: one level covering everything."""
        return cls(
            graph=graph,
            sets=[np.arange(graph.n)],
            cutoffs=[np.ones(graph.n)],
            nest_assumed=False,
        )

    def masked(self, active: np.ndarray) -> "Exhaustion":
        """Restrict sets and cutoffs to an active-vertex mask.

        The masked cutoffs are admissible truncation parameters for a form
        whose domain vanishes off ``active``.
        """
        active = np.asarray(active, dtype=bool)
        sets = [F[active[F]] for F in self.sets]
        cutoffs = [chi * active for chi in self.cutoffs]
        return Exhaustion(self.graph, sets, cutoffs, self.nest_assumed)


def _balls(dist_root: np.ndarray, radii, plateau: int):
    """Balls B_r = {dist_root <= r} and their cutoffs, 0 one step past ``plateau``.

    dist(x, B_r) = max(d(x, root) - r, 0) exactly, because a geodesic from x to
    the root enters B_r after d(x, root) - r steps; so one BFS serves all balls.
    """
    beyond = [np.maximum(dist_root - r, 0.0) for r in radii]
    sets = [np.flatnonzero(d == 0.0) for d in beyond]
    return sets, [np.maximum(1.0 - d / (plateau + 1.0), 0.0) for d in beyond]


def build_exhaustion(gen, root: str, n_levels: int, plateau: int) -> Exhaustion:
    """Ball exhaustion of a generated graph around a root vertex.

    F_k is the ball of radius k; the cutoff is 1 on F_k and decays linearly in
    hop distance, reaching 0 one step past distance ``plateau``.  The common
    truncation is the ball of radius n_levels + plateau, which supports every
    cutoff.  Density of the nest in the full (infinite) domain is assumed, not
    verified, hence nest_assumed.
    """
    if n_levels < 1 or plateau < 1:
        raise ValueError("need n_levels >= 1 and plateau >= 1")
    if isinstance(gen, _IntegerGrid):
        graph = gen._ball(root, n_levels + plateau)
    else:
        graph = truncate(gen, generator_ball(gen, root, n_levels + plateau))
    root_idx = graph.index[root]
    dist_root = graph.distances_from([root_idx])
    sets, cutoffs = _balls(dist_root, range(1, n_levels + 1), plateau)
    return Exhaustion(graph, sets, cutoffs, nest_assumed=True)


def ball_exhaustion(
    graph: WeightedGraph,
    root,
    n_levels: int = 3,
    plateau: int = 1,
    saturate: bool = True,
) -> Exhaustion:
    """Ball exhaustion of a finite graph; with saturate the last set is everything.

    Saturation makes the final cutoff identically 1, so decomposition values
    along this exhaustion are exact for the finite graph.
    """
    if n_levels < 1 or plateau < 1:
        raise ValueError("need n_levels >= 1 and plateau >= 1")
    root_idx = graph._resolve(root)
    dist_root = graph.distances_from([root_idx])
    ecc = float(np.max(dist_root[np.isfinite(dist_root)]))
    step = max(1, math.ceil(ecc / n_levels)) if ecc > 0 else 1
    sets, cutoffs = _balls(dist_root, [step * k for k in range(1, n_levels + 1)], plateau)
    if saturate:
        # Also covers the vertices the root cannot reach.
        sets[-1] = np.arange(graph.n)
        cutoffs[-1] = np.ones(graph.n)
    return Exhaustion(graph, sets, cutoffs, nest_assumed=False)
