"""Seeded random graphs, masks and probe functions for the property suites.

Everything is driven by numpy Generators so that identical seeds reproduce
identical corpora, which the command-line selftest and the acceptance tests
rely on.  Graphs are connected by construction (random spanning tree plus
extra edges); connectivity keeps ball exhaustions saturating, so decomposition
values along them are exact.
"""

from __future__ import annotations

import numpy as np

from .forms import GraphForm, assemble
from .graph import WeightedGraph, ball_exhaustion


def random_connected_graph(
    rng: np.random.Generator,
    n_min: int = 4,
    n_max: int = 50,
) -> WeightedGraph:
    """Random connected graph with b in (0, 2], c in [0, 1], m in [0.5, 2]: a random
    spanning tree plus each other pair with probability 0.6 / n."""
    n = int(rng.integers(n_min, n_max + 1))
    ids = [f"v{i}" for i in range(n)]
    m = rng.uniform(0.5, 2.0, size=n)
    c = rng.uniform(0.0, 1.0, size=n)
    c[rng.random(n) < 0.4] = 0.0
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((ids[i], ids[j], float(rng.uniform(0.05, 2.0))))
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for i in range(n):
        for j in range(i + 1, n):
            key = (min(ids[i], ids[j]), max(ids[i], ids[j]))
            if key not in present and rng.random() < 0.15 / n * 4:
                present.add(key)
                edges.append((ids[i], ids[j], float(rng.uniform(0.05, 2.0))))
    return WeightedGraph(ids, m, c, edges)


def random_boundary(rng: np.random.Generator, graph: WeightedGraph) -> list:
    """Random Dirichlet boundary, empty one time in five, never everything."""
    if rng.random() < 0.2:
        return []
    mask = rng.random(graph.n) < 0.25
    if mask.all():
        mask[int(rng.integers(0, graph.n))] = False
    return [graph.ids[i] for i in np.flatnonzero(mask)]


def random_form(rng: np.random.Generator, n_min: int = 4, n_max: int = 50) -> GraphForm:
    graph = random_connected_graph(rng, n_min=n_min, n_max=n_max)
    return assemble(graph, boundary=random_boundary(rng, graph))


def random_function(rng: np.random.Generator, n: int, bound: float = 2.0) -> np.ndarray:
    return rng.uniform(-bound, bound, size=n)


def random_masked_function(
    rng: np.random.Generator, q: GraphForm, bound: float = 2.0
) -> np.ndarray:
    return random_function(rng, q.n, bound) * q.active


def random_cutoff(rng: np.random.Generator, q: GraphForm) -> np.ndarray:
    """Random admissible truncation parameter: in [0, 1], zero off the mask."""
    return rng.uniform(0.0, 1.0, size=q.n) * q.active


def saturating_exhaustion(graph: WeightedGraph, levels: int = 3):
    return ball_exhaustion(graph, graph.ids[0], n_levels=levels, plateau=1)


def form_corpus(seed: int, count: int, n_min: int = 4, n_max: int = 50):
    """Deterministic stream of (form, exhaustion) instances."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = random_form(rng, n_min=n_min, n_max=n_max)
        out.append((q, saturating_exhaustion(q.graph)))
    return out


def _with_graph_data(graph: WeightedGraph, c=None, edges=None) -> WeightedGraph:
    ids = list(graph.ids)
    if c is None:
        c = graph.c
    if edges is None:
        edges = [
            (ids[u], ids[v], float(b))
            for u, v, b in zip(graph.edge_u, graph.edge_v, graph.edge_b)
        ]
    return WeightedGraph(ids, graph.m, c, edges)


def domination_pair_corpus(seed: int, count: int, n_min: int = 4, n_max: int = 12):
    """Pairs (lower, upper) whose cone inequality is exactly decidable.

    Mixes certified-dominating constructions (mask removal, killing
    reduction, edge growth compensated by killing) with certified-refuted
    ones (edge growth or shrinkage, added killing, incomparable masks).
    """
    from .domination import FormPair, check_order_ideal

    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        graph = random_connected_graph(rng, n_min=n_min, n_max=n_max)
        ids = graph.ids
        boundary_low = random_boundary(rng, graph)
        inner = [v for v in boundary_low if rng.random() < 0.5]
        lower = assemble(graph, boundary=boundary_low)
        kind = int(rng.integers(0, 7))
        if kind == 0:
            upper = assemble(graph, boundary=inner)
        elif kind == 1:
            e = int(rng.integers(0, len(graph.edge_b)))
            edges = [
                (ids[u], ids[v], float(b) * (1.6 if k == e else 1.0))
                for k, (u, v, b) in enumerate(
                    zip(graph.edge_u, graph.edge_v, graph.edge_b)
                )
            ]
            upper = assemble(_with_graph_data(graph, edges=edges), boundary=inner)
        elif kind == 2:
            active = lower.active
            cand = [
                k
                for k, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v))
                if active[u] and active[v]
            ]
            if not cand:
                continue
            e = cand[int(rng.integers(0, len(cand)))]
            edges = [
                (ids[u], ids[v], float(b) * (0.5 if k == e else 1.0))
                for k, (u, v, b) in enumerate(
                    zip(graph.edge_u, graph.edge_v, graph.edge_b)
                )
            ]
            upper = assemble(_with_graph_data(graph, edges=edges), boundary=inner)
        elif kind == 3:
            upper = assemble(
                _with_graph_data(graph, c=graph.c * rng.uniform(0.0, 1.0)),
                boundary=inner,
            )
        elif kind == 4:
            v = ids[int(rng.integers(0, graph.n))]
            upper = assemble(graph, boundary=inner, extra_killing={v: 0.8})
        elif kind == 5:
            v = next((w for w in ids if w not in boundary_low), None)
            if v is None or len(boundary_low) == graph.n - 1:
                continue
            upper = assemble(graph, boundary=[v])
            if check_order_ideal(FormPair(lower=lower, upper=upper)):
                continue
        else:
            e = int(rng.integers(0, len(graph.edge_b)))
            u_e, v_e = graph.edge_u[e], graph.edge_v[e]
            delta = 0.3 * float(graph.edge_b[e])
            c_new = graph.c.copy()
            if c_new[u_e] < 2 * delta or c_new[v_e] < 2 * delta:
                continue
            c_new[u_e] -= 2 * delta
            c_new[v_e] -= 2 * delta
            edges = [
                (ids[u], ids[v], float(b) + (delta if k == e else 0.0))
                for k, (u, v, b) in enumerate(
                    zip(graph.edge_u, graph.edge_v, graph.edge_b)
                )
            ]
            upper = assemble(_with_graph_data(graph, c=c_new, edges=edges), boundary=inner)
        pairs.append(FormPair(lower=lower, upper=upper))
    return pairs


def zero_killing(graph: WeightedGraph) -> WeightedGraph:
    """Copy of the graph with the killing weights removed."""
    return _with_graph_data(graph, c=np.zeros(graph.n))


def induced_active_graph(graph: WeightedGraph, active) -> WeightedGraph:
    """Copy keeping only edges with both endpoints active (vertex set unchanged)."""
    active = np.asarray(active, dtype=bool)
    edges = [
        (graph.ids[u], graph.ids[v], float(b))
        for u, v, b in zip(graph.edge_u, graph.edge_v, graph.edge_b)
        if active[u] and active[v]
    ]
    return WeightedGraph(graph.ids, graph.m, graph.c, edges)
