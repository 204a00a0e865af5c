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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import pairwise
from typing import ClassVar

import numpy as np


class GraphFormatError(ValueError):
    """Raised when graph data cannot be assembled into a WeightedGraph."""


def _read_only(values, dtype) -> np.ndarray:
    """A read-only copy of values: writing to it raises, and the caller's array stays apart."""
    x = np.array(values, dtype=dtype)
    x.flags.writeable = False
    return x


def _freeze(x):
    """Make the arrays of x read-only and return x: an array, a sparse matrix or a
    tuple of these."""
    if isinstance(x, tuple):
        for part in x:
            _freeze(part)
    elif isinstance(x, np.ndarray):
        x.flags.writeable = False
    else:  # a CSR or CSC matrix, told apart without importing scipy
        for a in (x.data, x.indices, x.indptr):
            a.flags.writeable = False
    return x


class WeightedGraph:
    """Finite weighted graph (b, c, m) with opaque string vertex ids.

    Vertex ids are mapped to dense indices in construction order.  Edges are
    normalized to index pairs (u, v) with u < v; energy evaluation uses the
    ordered-pair convention, so each stored edge counts twice.  ``m``, ``c``
    and the edge arrays are read-only, and ``m`` and ``c`` are copies, since
    forms and the adjacency are derived from them.
    """

    def __init__(self, ids, m, c, edges):
        self._set_vertices(ids, m, c)
        edges = list(edges)
        b = np.array([float(b) for _, _, b in edges], dtype=float)
        self._set_edges(*self._endpoint_indices(edges), b)

    def _endpoint_indices(self, edges) -> tuple:
        """Index arrays of the edge endpoints, given as ids or as int indices.

        An edge list that starts with an id is looked up in one dict pass per
        column; one of int or int64 indices only gets one vectorized range check.
        Any other list, and one that meets an unknown id or a bad index on the
        way, goes through ``_resolve`` endpoint by endpoint, which raises for the
        first bad endpoint in order.
        """
        us, vs, _ = zip(*edges) if edges else ((), (), ())
        if us and isinstance(us[0], str):
            lookup = self.index.__getitem__
            try:
                return (np.fromiter(map(lookup, us), int, len(us)),
                        np.fromiter(map(lookup, vs), int, len(vs)))
            except (KeyError, TypeError):
                pass
        elif us and set(map(type, us + vs)) <= {int, np.int64}:
            ends = np.array((us, vs))
            if ends.dtype == int and 0 <= ends.min() and ends.max() < self.n:
                return ends
        ends = [(self._resolve(u), self._resolve(v)) for u, v, _ in edges]
        ends = np.array(ends, dtype=int).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    @classmethod
    def _from_arrays(cls, ids, m, c, edge_u, edge_v, edge_b) -> "WeightedGraph":
        """Graph from vertex data and edge index arrays, without resolving ids.

        The edges must already be distinct pairs (u, v) with u < v, as
        ``_IntegerGrid._ball`` builds them: they are taken as they are, with
        neither the sort nor the duplicate check of ``_set_edges``, and made
        read-only in place.
        """
        g = cls.__new__(cls)
        g._set_vertices(ids, m, c)
        g.edge_u, g.edge_v, g.edge_b = edge_u, edge_v, edge_b
        _freeze((edge_u, edge_v, edge_b))
        return g

    @classmethod
    def _from_ends(cls, ids, m, c, ends: list, edge_b: np.ndarray) -> "WeightedGraph":
        """``cls(ids, m, c, zip(ends[::2], ends[1::2], edge_b))`` for endpoint ids
        listed as u_0, v_0, u_1, v_1, ..., without building the edge tuples."""
        g = cls.__new__(cls)
        g._set_vertices(ids, m, c)
        try:
            ends = np.fromiter(map(g.index.__getitem__, ends), int, len(ends))
        except KeyError:
            bad = next(v for v in ends if v not in g.index)
            raise GraphFormatError(f"unknown vertex id {bad!r}") from None
        g._set_edges(ends[0::2], ends[1::2], edge_b)
        return g

    def _set_vertices(self, ids, m, c):
        self.ids = list(ids)
        self.index = {v: i for i, v in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise GraphFormatError("duplicate vertex id")
        self.m = _read_only(m, float)
        self.c = _read_only(c, float)
        if self.m.shape != (len(self.ids),) or self.c.shape != (len(self.ids),):
            raise GraphFormatError("m and c must have one value per vertex")

    def _set_edges(self, edge_u, edge_v, edge_b):
        self.edge_u, self.edge_v = np.sort(np.column_stack((edge_u, edge_v)), axis=1).T.copy()
        self.edge_b = _read_only(edge_b, float)
        _freeze((self.edge_u, self.edge_v))
        # The first edge in order that is a self-loop or repeats an earlier pair.
        repeat = np.ones(len(edge_b), dtype=bool)
        repeat[np.unique(self.edge_u * self.n + self.edge_v, return_index=True)[1]] = False
        bad = np.flatnonzero((self.edge_u == self.edge_v) | repeat)
        if bad.size:
            iu, iv = self.edge_u[bad[0]], self.edge_v[bad[0]]
            if iu == iv:
                raise GraphFormatError(f"self-loop edge at vertex {self.ids[iu]!r}")
            raise GraphFormatError(f"duplicate edge ({self.ids[iu]!r}, {self.ids[iv]!r})")

    @cached_property
    def _adjacency(self) -> tuple:
        """CSR adjacency (indptr, neighbours, weights): every edge in both directions,
        in edge order per vertex.  Built on first use, since the grids' level walk
        never reads it, and kept, since the edge arrays are read-only."""
        src = np.column_stack((self.edge_u, self.edge_v)).ravel()
        order = np.argsort(src, kind="stable")
        nbr = np.column_stack((self.edge_v, self.edge_u)).ravel()[order]
        nbr_b = np.repeat(self.edge_b, 2)[order]
        indptr = np.searchsorted(src[order], np.arange(self.n + 1))
        return _freeze((indptr, nbr, nbr_b))

    @property
    def _indptr(self) -> np.ndarray:
        return self._adjacency[0]

    @property
    def _nbr(self) -> np.ndarray:
        return self._adjacency[1]

    @property
    def _nbr_b(self) -> np.ndarray:
        return self._adjacency[2]

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
        return len(self.m)

    def neighbors(self, i: int):
        """Neighbors of vertex index i as (index, b) pairs."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return list(zip(self._nbr[lo:hi].tolist(), self._nbr_b[lo:hi].tolist()))

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
    finite_b = np.isfinite(g.edge_b)
    for k in np.flatnonzero(~(finite_b & (g.edge_b > 0))):
        u, v = g.ids[g.edge_u[k]], g.ids[g.edge_v[k]]
        kind = "nonpositive" if finite_b[k] else "non-finite"
        violations.append(f"{kind} edge weight b({u},{v}) = {g.edge_b[k]}")
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
        ends, b = [], []  # ends: u_0, v_0, u_1, v_1, ...
        for rec in data.get("edges", []):
            ends += (str(rec["u"]), str(rec["v"]))
            b.append(float(rec["b"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # Overflow: an int > 1e308
        raise GraphFormatError(f"malformed record: {exc}") from None
    return WeightedGraph._from_ends(ids, m, c, ends, np.array(b, dtype=float))


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


#: json's names for the floats that float.__repr__ writes as nan, inf and -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list:
    """Each value as ``json.dumps`` writes a float."""
    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return texts


def _json_id(v) -> str:
    """A vertex id as ``json.dumps`` writes it at a record's depth of indent=2."""
    if isinstance(v, str):
        return json.encoder.encode_basestring_ascii(v)
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n      ")


def _json_records(records: list) -> str:
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def emit_graph(g: WeightedGraph) -> str:
    """Serialize to the JSON schema; inverse of load_graph for valid graphs.

    The text is ``json.dumps(g.to_dict(), sort_keys=True, indent=2) + "\\n"``, byte
    for byte, written in one pass: each id is encoded once, and each record is
    one f-string.  Edges are in ``to_dict``'s order, by (u, v) with u <= v.
    """
    ids = g.ids
    text = list(map(_json_id, ids))
    ends = [(v, u) if ids[v] < ids[u] else (u, v)
            for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())]
    keys = [(ids[u], ids[v]) for u, v in ends]
    order = sorted(range(len(ends)), key=keys.__getitem__)
    b = _json_floats(g.edge_b)
    edges = [
        f'    {{\n      "b": {b[k]},\n      "u": {text[ends[k][0]]},\n'
        f'      "v": {text[ends[k][1]]}\n    }}'
        for k in order
    ]
    verts = [
        f'    {{\n      "c": {c},\n      "id": {t},\n      "m": {m}\n    }}'
        for t, m, c in zip(text, _json_floats(g.m), _json_floats(g.c))
    ]
    return f'{{\n  "edges": {_json_records(edges)},\n  "vertices": {_json_records(verts)}\n}}\n'


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

    def _ball_order(self, root: str, radius: int) -> tuple:
        """The ball |x - root|_1 <= radius in ``generator_ball``'s order: the root's
        coordinates, each point's offset from them and its hop distance.

        One sort puts the ball in the queue BFS's first-occurrence order for the
        steps -e_1, +e_1, -e_2, +e_2, ...: by distance, then per coordinate by
        sign class of x_i - root_i (-, +, 0) and by -|x_i - root_i|.  A point is
        first reached from its neighbour one step nearer the root in its last
        nonzero coordinate, and ordering points by that neighbour and then by the
        step is this order; ``TestIndexBall`` checks it against ``_bfs_ball`` up
        to radius 304.  The sort key is one int64 per point, with the distance,
        then per coordinate the sign class and radius - |x_i - root_i|, as digits
        of bases 3 and radius + 1: distinct points have distinct keys, so one
        ``argsort`` gives the order.  The root and radius must already be checked.
        """
        origin = np.array([int(t) for t in root.split(",")])
        dim = len(origin)
        assert np.array_equal(self.steps, np.kron(np.eye(dim, dtype=int), [[-1], [1]])), self.steps
        offsets = np.indices((2 * radius + 1,) * dim).reshape(dim, -1).T - radius
        dist = np.abs(offsets).sum(axis=1)
        offsets, dist = offsets[dist <= radius], dist[dist <= radius]
        key = dist
        for x in offsets.T:
            key = (3 * key + 2 * (x == 0) + (x > 0)) * (radius + 1) + radius - np.abs(x)
        order = np.argsort(key)
        return origin, offsets[order], dist[order]

    @staticmethod
    def _ids(origin: np.ndarray, offsets: np.ndarray, radius: int) -> list:
        """The id of each point origin + offset, every |offset_i| <= radius."""
        # Each coordinate takes 2 radius + 1 values; each is formatted once.
        labels = [np.array([str(t + v) for v in range(-radius, radius + 1)], dtype=object)
                  for t in origin.tolist()]
        return list(map(",".join, zip(*(a[x + radius].tolist() for a, x in zip(labels, offsets.T)))))

    def _ball(self, root: str, radius: int) -> tuple:
        """``truncate(self, generator_ball(self, root, radius))``, built in index space,
        and every vertex's hop distance from the root.

        The ball is |x - root|_1 <= radius, so the distances are the graph's.  The
        graph is a ``_GridBall``, which formats its ids only when they are read.
        """
        _check_ball(self, root, radius)
        origin, offsets, dist = self._ball_order(root, radius)
        return _GridBall(self, origin, offsets, radius), dist.astype(float)

    def _points(self, ids: list):
        """(points, low, high): the points of ids as an (n, d) int array and their
        least and greatest coordinates, or None unless the box around the points
        and their neighbours, ``_induced``'s table, has at most 16 n + 64 points
        and each id is the id of its point, as ``contains`` demands.  Each id
        is parsed once, and each coordinate value formatted once to check it."""
        dim = len(self.steps) // 2
        try:
            parts = ",".join(ids).split(",")
            points = np.array(list(map(int, parts)), dtype=np.int64)
        except (TypeError, ValueError, OverflowError):  # no str id, no int, too large
            return None
        if len(parts) != dim * len(ids):
            return None
        points = points.reshape(-1, dim)
        low, high = points.min(axis=0), points.max(axis=0)
        # in Python ints: int64 differences could wrap
        if math.prod(h - l + 3 for l, h in zip(low.tolist(), high.tolist())) > 16 * len(ids) + 64:
            return None
        centre = low + (high - low) // 2
        offsets = points - centre
        if self._ids(centre, offsets, int(abs(offsets).max())) != ids:
            return None
        return points, low, high

    def _arrays(self, points: np.ndarray, low, high) -> tuple:
        """(position, scale, m, c, edge_u, edge_v, edge_b): the graph on the given
        distinct points, (n, d) ints with coordinates from low to high, arrays of
        d bounds, and the table that found its edges.

        The table covers the box around the points and their neighbours and
        holds each point's position, -1 elsewhere: point x is at
        ``position[(x - low + 1) @ scale]``, so a neighbour is one lookup.  Edges
        are the pairs (i, j), j > i, by i and then by step, the order in which
        ``_truncate_loop`` emits them.
        """
        n = len(points)
        side = high - low + 3
        scale = np.cumprod(np.concatenate(([1], side[:-1])))
        key = (points - (low - 1)) @ scale
        position = np.full(int(np.prod(side)), -1)
        position[key] = np.arange(n)
        nbr = position[key[:, None] + np.array(self.steps) @ scale]
        later = nbr > np.arange(n)[:, None]
        return (position, scale, np.full(n, float(self.m)), np.full(n, float(self.c)),
                np.nonzero(later)[0], nbr[later], np.full(int(later.sum()), float(self.b)))

    def _induced(self, ids: list, points: np.ndarray, low, high) -> WeightedGraph:
        """The graph on the nonempty ids of the given points, as ``_arrays`` builds it."""
        return WeightedGraph._from_arrays(ids, *self._arrays(points, low, high)[2:])


class _GridBall(WeightedGraph):
    """``_IntegerGrid._ball``'s graph: the points origin + offsets of a built-in grid,
    |offset|_1 <= radius, in ball order.

    ``ids`` and ``index`` are built when first read and then kept, since a
    decomposition reads neither.  A string id resolves without them: the grid's
    ``contains`` rule parses it, and the position table of ``_arrays`` holds
    the index at its offset.  The graph data is the ball's by construction, so
    none of ``_set_vertices``' and ``_set_edges``' checks is repeated.
    """

    def __init__(self, grid: _IntegerGrid, origin: np.ndarray, offsets: np.ndarray, radius: int):
        bound = np.full(len(origin), radius)
        self._position, self._scale, *arrays = grid._arrays(offsets, -bound, bound)
        self.m, self.c, self.edge_u, self.edge_v, self.edge_b = _freeze(tuple(arrays))
        self._grid, self._origin, self._offsets, self._radius = grid, origin, offsets, radius

    @cached_property
    def ids(self) -> list:
        return self._grid._ids(self._origin, self._offsets, self._radius)

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.ids)}

    def _resolve(self, v) -> int:
        if not isinstance(v, str):
            return super()._resolve(v)
        i = -1
        if self._grid.contains(v):
            offset = [int(t) - o for t, o in zip(v.split(","), self._origin.tolist())]
            if max(map(abs, offset)) <= self._radius:
                r = self._radius + 1
                key = sum((x + r) * s for x, s in zip(offset, self._scale.tolist()))
                i = int(self._position[key])
        if i < 0:
            raise GraphFormatError(f"unknown vertex id {v!r}")
        return i


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


def _check_ball(gen, root, radius) -> None:
    """Raise ValueError unless gen generates root and radius is a nonnegative integer."""
    if not gen.contains(root):
        raise ValueError(f"root {root!r} not generated")
    if not isinstance(radius, (int, np.integer)) or radius < 0:
        raise ValueError(f"radius must be a nonnegative integer, got {radius!r}")


def generator_ball(gen, root: str, radius: int) -> list:
    """Vertex ids within hop distance radius of root, in BFS order.

    On the built-in grids the order comes from one sort in index space
    (``_IntegerGrid._ball_order``); other generators are walked by ``_bfs_ball``.
    A root that gen does not generate, or a radius that is not a nonnegative
    integer, raises ValueError.
    """
    _check_ball(gen, root, radius)
    if isinstance(gen, _IntegerGrid):
        origin, offsets, _ = gen._ball_order(root, radius)
        return gen._ids(origin, offsets, radius)
    return _bfs_ball(gen, root, radius)


def _bfs_ball(gen, root: str, radius: int) -> list:
    """``generator_ball`` by a queue BFS over ``gen.neighbors``, for any generator."""
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
    """Finite truncation of a generated graph, induced on the given ids.

    On the built-in grids, when each id is the id of its point, the ids are
    parsed once and the edges found in index space (``_IntegerGrid._induced``);
    other generators and ids are walked by ``_truncate_loop``.  Both give the
    same graph.
    """
    ids = list(vertex_ids)
    if isinstance(gen, _IntegerGrid):
        points = gen._points(ids)
        if points is not None:
            return gen._induced(ids, *points)
    return _truncate_loop(gen, ids)


def _truncate_loop(gen, ids: list) -> WeightedGraph:
    """``truncate`` through ``gen.neighbors``, vertex by vertex, for any generator."""
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


@dataclass(frozen=True)
class _Balls:
    """Ball cutoffs around one root, kept as the root distances instead of arrays.

    Level k has the ball B_k = {dist_root <= radii[k]} and the cutoff
    max(1 - dist(x, B_k) / (plateau + 1), 0), where dist(x, B_k) =
    max(dist_root(x) - radii[k], 0) exactly, because a geodesic from x to the
    root enters B_k after dist_root(x) - radii[k] steps.  With ``saturate`` the
    last cutoff is 1 everywhere, unreachable vertices included; ``mask`` zeroes
    the cutoffs off the active vertices (every vertex, dist_root >= 0, unless
    masked).  The cutoffs lie in [0, 1], so there are no ``arrays`` to check.
    """

    dist_root: np.ndarray
    radii: np.ndarray
    plateau: int
    saturate: bool
    mask: np.ndarray
    monotone: ClassVar[bool] = True
    arrays: ClassVar[tuple] = ()

    @property
    def levels(self) -> int:
        return len(self.radii)

    def values(self, level, vertices) -> np.ndarray:
        """Cutoff value of each (level, vertex) pair, computed as the dense cutoffs are."""
        # max(1 - max(dist - radius, 0) / (plateau + 1), 0), each step in place.
        chi = self.dist_root[vertices]
        chi -= self.radii[level]
        np.maximum(chi, 0.0, out=chi)
        chi /= self.plateau + 1.0
        np.subtract(1.0, chi, out=chi)
        np.maximum(chi, 0.0, out=chi)
        if self.saturate:
            chi = np.where(level == len(self.radii) - 1, 1.0, chi)
        chi *= self.mask[vertices]
        return chi

    def cutoff(self, k: int) -> np.ndarray:
        return self.values(k, np.arange(len(self.dist_root)))

    def set(self, k: int) -> np.ndarray:
        if self.saturate and k == len(self.radii) - 1:
            F = np.arange(len(self.dist_root))
        else:
            F = np.flatnonzero(self.dist_root <= self.radii[k])
        return F[self.mask[F]]

    def enter_freeze(self) -> tuple:
        """Per vertex, the first level with a nonzero cutoff and the first level
        from which its cutoff stays at its last value.

        The cutoff at x is nonzero from the first radius >= dist_root(x) - plateau
        on and 1 from the first radius >= dist_root(x) on.  A vertex that is
        never reached gets enter = levels and freeze = 0.
        """
        last = len(self.radii) - 1
        enter = np.searchsorted(self.radii, self.dist_root - self.plateau)
        freeze = np.minimum(np.searchsorted(self.radii, self.dist_root), last)
        if self.saturate:
            enter = np.minimum(enter, last)
        enter[~self.mask] = last + 1
        freeze[enter > last] = 0
        return enter, freeze

    def masked(self, active: np.ndarray) -> "_Balls":
        return replace(self, mask=self.mask & active)


@dataclass(frozen=True)
class _Cutoffs:
    """Explicit sets and cutoff arrays, one per level, with the interface of ``_Balls``;
    a walk checks the ``arrays`` against its form's domain."""

    sets: list
    arrays: list

    @property
    def levels(self) -> int:
        return len(self.arrays)

    @cached_property
    def monotone(self) -> bool:
        return all(np.all(a <= b) for a, b in pairwise(self.arrays))

    def values(self, level, vertices) -> np.ndarray:
        """Cutoff value of each (level, vertex) pair."""
        out = np.empty(np.shape(vertices))
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(level[order], np.arange(len(self.arrays) + 1))
        for chi, (lo, hi) in zip(self.arrays, pairwise(bounds)):
            rows = order[lo:hi]
            out[..., rows] = chi[vertices[..., rows]]
        return out

    def cutoff(self, k: int) -> np.ndarray:
        return self.arrays[k]

    def set(self, k: int) -> np.ndarray:
        return self.sets[k]

    def enter_freeze(self) -> tuple:
        """(enter, freeze) per vertex in one backward pass over the cutoffs.

        A vertex enters at the first level whose cutoff is nonzero there and freezes
        at the first level from which its cutoff keeps its last value; one that never
        enters gets enter = levels and freeze = 0.  Nesting is not assumed: a vertex
        that enters is nonzero at its entry, and zero before it, so freeze >= enter.
        """
        top = len(self.arrays) - 1
        last = self.arrays[top]
        enter = np.where(last != 0.0, top, top + 1)
        freeze = np.full(len(last), top)
        steady = np.ones(len(last), dtype=bool)
        for k in range(top - 1, -1, -1):
            chi = self.arrays[k]
            enter[chi != 0.0] = k
            steady &= chi == last
            freeze[steady] = k
        freeze[enter > top] = 0
        return enter, freeze

    def masked(self, active: np.ndarray) -> "_Cutoffs":
        return _Cutoffs([F[active[F]] for F in self.sets], [chi * active for chi in self.arrays])


class Exhaustion:
    """Nested finite vertex sets F_1 <= F_2 <= ... with cutoff functions.

    Every cutoff equals 1 on its set, lies in [0, 1], has finite support and
    the sequence is pointwise nondecreasing.  All data lives on one common
    finite truncation.  ``_levels`` holds explicit arrays, one cutoff per set
    and at least one level (else ValueError), or a ball exhaustion's root
    distances, from which ``sets`` and ``cutoffs`` are built when first read.
    Explicit sets must be 1-D integer vertex indices and cutoffs one value per vertex.
    """

    def __init__(self, graph: WeightedGraph, sets, cutoffs, nest_assumed: bool = False):
        sets = [np.asarray(F) for F in sets]
        cutoffs = [np.asarray(chi, dtype=float) for chi in cutoffs]
        if not cutoffs or len(sets) != len(cutoffs):
            raise ValueError(f"an exhaustion needs one cutoff per set and at least one "
                             f"level, got {len(sets)} sets and {len(cutoffs)} cutoffs")
        n = graph.n
        for k, (F, chi) in enumerate(zip(sets, cutoffs)):
            if chi.shape != (n,):
                raise ValueError(f"cutoff {k} has shape {chi.shape}, expected ({n},)")
            if F.ndim != 1 or F.size and (F.dtype.kind not in "iu" or F.min() < 0 or F.max() >= n):
                raise ValueError(f"set {k} is not a 1-D array of vertex indices in [0, {n})")
            sets[k] = F.astype(int, copy=False)
        self.graph = graph
        self._levels = _Cutoffs(sets, cutoffs)
        self.nest_assumed = nest_assumed

    @classmethod
    def _of(cls, graph: WeightedGraph, levels, nest_assumed: bool) -> "Exhaustion":
        ex = cls.__new__(cls)
        ex.graph, ex._levels, ex.nest_assumed = graph, levels, nest_assumed
        return ex

    @cached_property
    def sets(self) -> list:
        return [self._levels.set(k) for k in range(self.levels)]

    @cached_property
    def cutoffs(self) -> list:
        return [self._levels.cutoff(k) for k in range(self.levels)]

    @property
    def levels(self) -> int:
        return self._levels.levels

    @classmethod
    def full(cls, graph: WeightedGraph) -> "Exhaustion":
        """Trivial exhaustion of a finite graph: one level covering everything."""
        return cls(graph, [np.arange(graph.n)], [np.ones(graph.n)])

    def masked(self, active: np.ndarray) -> "Exhaustion":
        """Restrict sets and cutoffs to an active-vertex mask.

        The masked cutoffs are admissible truncation parameters for a form
        whose domain vanishes off ``active``.
        """
        active = np.asarray(active, dtype=bool)
        return Exhaustion._of(self.graph, self._levels.masked(active), self.nest_assumed)


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
        graph, dist_root = gen._ball(root, n_levels + plateau)
    else:
        graph = truncate(gen, generator_ball(gen, root, n_levels + plateau))
        dist_root = graph.distances_from([graph.index[root]])
    balls = _Balls(dist_root, np.arange(1, n_levels + 1), plateau, False, dist_root >= 0)
    return Exhaustion._of(graph, balls, nest_assumed=True)


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
    balls = _Balls(dist_root, step * np.arange(1, n_levels + 1), plateau, saturate, dist_root >= 0)
    return Exhaustion._of(graph, balls, nest_assumed=False)
