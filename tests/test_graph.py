"""Graph storage, JSON schema, generators and exhaustions."""

import json
import math
import re

import numpy as np
import pytest

from graphforms import (
    GraphFormatError,
    IntegerLineGenerator,
    SquareLatticeGenerator,
    WeightedGraph,
    assemble,
    ball_exhaustion,
    build_exhaustion,
    emit_graph,
    generator_ball,
    load_graph,
    make_path,
    truncate,
    validate,
)

TWO_VERTEX = json.dumps(
    {
        "vertices": [
            {"id": "a", "m": 1.0, "c": 0.0},
            {"id": "b", "m": 1.0, "c": 0.0},
        ],
        "edges": [{"u": "a", "v": "b", "b": 1.0}],
    }
)


class TestLoadGraph:
    def test_two_vertex_file(self):
        g = load_graph(TWO_VERTEX)
        assert g.n == 2
        assert len(g.edge_b) == 1
        assert g.ids == ["a", "b"]
        assert g.edge_b[0] == 1.0

    def test_self_loop_rejected(self):
        bad = json.dumps(
            {
                "vertices": [{"id": "a", "m": 1.0, "c": 0.0}],
                "edges": [{"u": "a", "v": "a", "b": 1.0}],
            }
        )
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(bad)

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([("a", "b", 1.0), ("b", "a", 2.0)], "duplicate edge ('a', 'b')"),
            ([("a", "b", 1.0), ("b", "c", 1.0), ("c", "c", 1.0), ("a", "b", 1.0)], "self-loop"),
            ([("c", "b", 1.0), (2, 1, 1.0), ("a", "a", 1.0)], "duplicate edge ('b', 'c')"),
        ],
    )
    def test_first_bad_edge_reported(self, edges, message):
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, edges)

    def test_zero_measure_rejected(self):
        bad = json.dumps({"vertices": [{"id": "a", "m": 0.0, "c": 0.0}], "edges": []})
        with pytest.raises(GraphFormatError, match="nonpositive measure"):
            load_graph(bad)

    def test_duplicate_id_rejected(self):
        bad = json.dumps(
            {
                "vertices": [
                    {"id": "a", "m": 1.0, "c": 0.0},
                    {"id": "a", "m": 1.0, "c": 0.0},
                ],
                "edges": [],
            }
        )
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            load_graph(bad)

    def test_unknown_vertex_rejected(self):
        bad = json.dumps(
            {
                "vertices": [{"id": "a", "m": 1.0, "c": 0.0}],
                "edges": [{"u": "a", "v": "zz", "b": 1.0}],
            }
        )
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            load_graph(bad)

    def test_negative_values_rejected(self):
        bad = json.dumps(
            {"vertices": [{"id": "a", "m": 1.0, "c": -1.0}], "edges": []}
        )
        with pytest.raises(GraphFormatError, match="negative killing"):
            load_graph(bad)

    def test_malformed_json_rejected(self):
        with pytest.raises(GraphFormatError, match="malformed JSON"):
            load_graph("{not json")


class TestValidate:
    def test_valid_graph_empty_report(self):
        assert validate(load_graph(TWO_VERTEX)) == []

    def test_negative_killing_reported(self):
        g = WeightedGraph(["a"], [1.0], [-1.0], [])
        report = validate(g)
        assert len(report) == 1
        assert "negative killing" in report[0] and "a" in report[0]

    def test_lattice_truncation_valid(self):
        gen = SquareLatticeGenerator()
        g = truncate(gen, generator_ball(gen, "0,0", 3))
        assert validate(g) == []


class TestRoundTrip:
    def test_emit_load_identity(self):
        g = load_graph(TWO_VERTEX)
        g2 = load_graph(emit_graph(g))
        assert validate(g2) == []
        assert g2.to_dict() == g.to_dict()

    def test_edge_emission_order(self):
        g = WeightedGraph(
            ["z", "a", "k"],
            [1, 1, 1],
            [0, 0, 0],
            [("z", "a", 1.0), ("k", "z", 2.0), ("a", "k", 3.0)],
        )
        edges = g.to_dict()["edges"]
        assert [(e["u"], e["v"]) for e in edges] == [("a", "k"), ("a", "z"), ("k", "z")]


class TestMakePath:
    def test_two_vertices(self):
        g = make_path(2, 1.0)
        assert g.ids == ["v0", "v1"]
        assert g.edge_b[0] == 0.5
        assert list(g.m) == [1.0, 1.0]

    def test_three_vertices_half_mesh(self):
        g = make_path(3, 0.5)
        assert g.n == 3
        assert np.allclose(g.edge_b, 1.0)
        assert np.allclose(g.m, 0.5)

    def test_energy_is_discrete_dirichlet_integral(self):
        # hand value: 2 * 0.5 * (1 - 0)^2 = 1.0
        q = assemble(make_path(2, 1.0))
        assert q.evaluate([0.0, 1.0]) == 1.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_energy_identity_small_paths(self, n):
        rng = np.random.default_rng(n)
        h = float(rng.uniform(0.1, 2.0))
        q = assemble(make_path(n, h))
        f = rng.uniform(-2, 2, n)
        direct = math.fsum((f[i + 1] - f[i]) ** 2 / h for i in range(n - 1))
        assert abs(q.evaluate(f) - direct) <= 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_path(1, 1.0)


class TestGenerators:
    def test_repeat_queries_identical(self):
        gen = IntegerLineGenerator(m=0.7, c=0.1, b=2.0)
        assert gen.neighbors("5") == gen.neighbors("5")
        assert gen.measure("5") == gen.measure("5") == 0.7

    def test_truncation_edges_induced(self):
        gen = IntegerLineGenerator()
        g = truncate(gen, ["-1", "0", "1"])
        assert g.n == 3
        assert len(g.edge_b) == 2  # only edges inside the truncation


class TestExhaustion:
    def test_integer_line_cutoff_profile(self):
        # root 0, radii 1..3, plateau 1: chi_1 is 1 on {-1,0,1},
        # 0.5 at distance 1 beyond, 0 from distance 2 on.
        ex = build_exhaustion(IntegerLineGenerator(), "0", n_levels=3, plateau=1)
        g = ex.graph
        chi1 = ex.cutoffs[0]
        assert sorted(g.ids[i] for i in ex.sets[0]) == ["-1", "0", "1"]
        assert chi1[g.index["1"]] == 1.0
        assert chi1[g.index["2"]] == 0.5
        assert chi1[g.index["-2"]] == 0.5
        assert chi1[g.index["3"]] == 0.0

    def test_cutoffs_increase_with_level(self):
        ex = build_exhaustion(IntegerLineGenerator(), "0", n_levels=4, plateau=2)
        for a, b in zip(ex.cutoffs, ex.cutoffs[1:]):
            assert np.all(a <= b)

    def test_cutoff_invariants(self):
        ex = build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=3, plateau=1)
        for F, chi in zip(ex.sets, ex.cutoffs):
            assert float(chi[F].min()) == 1.0
            assert float(chi.max()) == 1.0
            assert float(chi.min()) >= 0.0
        assert ex.nest_assumed

    def test_finite_graph_full_cutoff(self):
        g = make_path(5, 1.0)
        ex = ball_exhaustion(g, "v0", n_levels=3, plateau=1)
        assert np.all(ex.cutoffs[-1] == 1.0)
        assert not ex.nest_assumed

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            build_exhaustion(IntegerLineGenerator(), "x", n_levels=2, plateau=1)


def _per_level_cutoffs(graph, sets, plateau):
    """Oracle: one BFS from each set, as the cutoffs were first defined."""
    return [
        np.maximum(1.0 - graph.distances_from(F) / (plateau + 1.0), 0.0) for F in sets
    ]


def _two_components():
    # A path v0-v1-v2-v3 and a separate edge w0-w1 the root cannot reach.
    ids = ["v0", "v1", "v2", "v3", "w0", "w1"]
    edges = [("v0", "v1", 1.0), ("v1", "v2", 0.5), ("v2", "v3", 2.0), ("w0", "w1", 1.0)]
    return WeightedGraph(ids, [1.0] * 6, [0.0] * 6, edges)


class TestOneBfsCutoffs:
    @pytest.mark.parametrize("plateau", [1, 2, 3])
    @pytest.mark.parametrize(
        "gen,root", [(SquareLatticeGenerator(), "0,0"), (IntegerLineGenerator(), "0")]
    )
    def test_build_exhaustion_matches_per_level_bfs(self, gen, root, plateau):
        ex = build_exhaustion(gen, root, n_levels=5, plateau=plateau)
        g = ex.graph
        dist_root = g.distances_from([g.index[root]])
        expected_sets = [np.flatnonzero(dist_root <= k) for k in range(1, 6)]
        assert [F.tolist() for F in ex.sets] == [F.tolist() for F in expected_sets]
        for chi, oracle in zip(ex.cutoffs, _per_level_cutoffs(g, expected_sets, plateau)):
            assert float(np.max(np.abs(chi - oracle))) == 0.0

    @pytest.mark.parametrize("saturate", [True, False])
    @pytest.mark.parametrize("connected", [True, False])
    def test_ball_exhaustion_matches_per_level_bfs(self, saturate, connected):
        g = make_path(9, 0.5) if connected else _two_components()
        for plateau in (1, 2):
            ex = ball_exhaustion(g, 1, n_levels=3, plateau=plateau, saturate=saturate)
            dist_root = g.distances_from([1])
            ecc = float(np.max(dist_root[np.isfinite(dist_root)]))
            step = max(1, math.ceil(ecc / 3))
            expected_sets = [np.flatnonzero(dist_root <= step * k) for k in (1, 2, 3)]
            if saturate:
                expected_sets[-1] = np.arange(g.n)
            assert [F.tolist() for F in ex.sets] == [F.tolist() for F in expected_sets]
            for chi, oracle in zip(ex.cutoffs, _per_level_cutoffs(g, expected_sets, plateau)):
                assert float(np.max(np.abs(chi - oracle))) == 0.0

    def test_saturated_cutoff_covers_unreachable_vertices(self):
        ex = ball_exhaustion(_two_components(), "v0", n_levels=2, saturate=True)
        assert np.all(ex.cutoffs[-1] == 1.0)
        unsaturated = ball_exhaustion(_two_components(), "v0", n_levels=2, saturate=False)
        assert np.all(unsaturated.cutoffs[-1][4:] == 0.0)

    def test_one_distance_search_per_exhaustion(self, monkeypatch):
        calls = []
        original = WeightedGraph.distances_from

        def counting(self, sources):
            calls.append(1)
            return original(self, sources)

        monkeypatch.setattr(WeightedGraph, "distances_from", counting)
        build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=6, plateau=2)
        assert len(calls) == 1
        ball_exhaustion(make_path(12, 1.0), "v0", n_levels=4, plateau=2)
        assert len(calls) == 2

    def test_distances_match_queue_bfs(self):
        # Multi-source hop distances against a plain queue BFS over neighbors().
        from collections import deque

        gen = SquareLatticeGenerator()
        for g in (truncate(gen, generator_ball(gen, "0,0", 6)), _two_components()):
            for sources in ([0], [0, 3], []):
                expected = np.full(g.n, np.inf)
                queue = deque(sources)
                for s in sources:
                    expected[s] = 0.0
                while queue:
                    x = queue.popleft()
                    for y, _ in g.neighbors(x):
                        if expected[y] == np.inf:
                            expected[y] = expected[x] + 1
                            queue.append(y)
                assert np.array_equal(g.distances_from(sources), expected)

    def test_masked_keeps_order_and_cutoffs(self):
        ex = build_exhaustion(IntegerLineGenerator(), "0", n_levels=3, plateau=1)
        active = np.ones(ex.graph.n, dtype=bool)
        active[ex.graph.index["1"]] = False
        mex = ex.masked(active)
        for F, G, chi, mchi in zip(ex.sets, mex.sets, ex.cutoffs, mex.cutoffs):
            assert G.tolist() == [i for i in F if active[i]]
            assert np.array_equal(mchi, chi * active)


class TestAdjacency:
    def test_neighbors_in_edge_order(self):
        g = _two_components()
        assert g.neighbors(1) == [(0, 1.0), (2, 0.5)]
        assert g.neighbors(4) == [(5, 1.0)]

    def test_truncation_emits_each_pair_once_in_order(self):
        gen = SquareLatticeGenerator()
        g = truncate(gen, generator_ball(gen, "0,0", 3))
        pairs = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
        assert len(set(pairs)) == len(pairs) == 4 * 3**2  # diamond of radius 3
        assert all(u < v for u, v in pairs)
        assert np.all(np.diff(g.edge_u) >= 0)  # emitted from the earlier endpoint

    def test_huge_weights_give_infinite_degree(self):
        ids = ["x", "y", "z"]
        g = WeightedGraph(ids, [1.0] * 3, [0.0] * 3, [("x", "y", 1e308), ("x", "z", 1e308)])
        assert g.weighted_degree(0) == math.inf
        assert g.weighted_degree(1) == 1e308
        assert validate(g) == ["infinite neighbor weight sum at x"]

    def test_opposite_infinite_weights_give_nan_degree(self):
        ids = ["x", "y", "z"]
        g = WeightedGraph(ids, [1.0] * 3, [0.0] * 3, [("x", "y", math.inf), ("x", "z", -math.inf)])
        assert math.isnan(g.weighted_degree(0))
        assert g.weighted_degree(1) == math.inf
        assert g.weighted_degree(2) == -math.inf


def _same_graph(a, b):
    assert a.ids == b.ids
    for name in ("edge_u", "edge_v", "edge_b", "m", "c", "_indptr", "_nbr", "_nbr_b"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestIndexBall:
    """The index-space ball of a built-in generator equals its string-path truncation."""

    @pytest.mark.parametrize(
        "gen,roots",
        [
            (SquareLatticeGenerator(), ["0,0", "3,-2"]),
            (SquareLatticeGenerator(m=0.5, c=0.25, b=3.0), ["3,-2"]),
            (IntegerLineGenerator(), ["0", "-5"]),
            (IntegerLineGenerator(m=2.0, c=0.1, b=0.75), ["-5", "12"]),
        ],
    )
    def test_matches_string_truncation(self, gen, roots):
        for root in roots:
            for radius in range(9):
                _same_graph(gen._ball(root, radius), truncate(gen, generator_ball(gen, root, radius)))

    @pytest.mark.parametrize(
        "gen,root", [(SquareLatticeGenerator(c=0.1), "-4,7"), (IntegerLineGenerator(b=2.0), "9")]
    )
    def test_build_exhaustion_graph_matches_string_path(self, gen, root):
        for levels, plateau in ((1, 1), (5, 2), (12, 3)):
            ex = build_exhaustion(gen, root, n_levels=levels, plateau=plateau)
            oracle = truncate(gen, generator_ball(gen, root, levels + plateau))
            _same_graph(ex.graph, oracle)

    def test_non_grid_generator_takes_the_string_path(self):
        class Ring:
            def contains(self, vid):
                return vid in {"a", "b", "c"}

            def measure(self, vid):
                return 1.0

            def killing(self, vid):
                return 0.0

            def neighbors(self, vid):
                nxt = {"a": "b", "b": "c", "c": "a"}
                prev = {v: u for u, v in nxt.items()}
                return [(nxt[vid], 1.0), (prev[vid], 1.0)]

        ex = build_exhaustion(Ring(), "a", n_levels=1, plateau=1)
        assert ex.graph.ids == ["a", "b", "c"]


class TestCanonicalIds:
    def test_each_lattice_point_once(self):
        assert len(generator_ball(SquareLatticeGenerator(), "0,0", 2)) == 13
        assert len(generator_ball(IntegerLineGenerator(), "0", 2)) == 5

    @pytest.mark.parametrize(
        "gen,root",
        [
            (SquareLatticeGenerator(), "0, 0"),
            (SquareLatticeGenerator(), "+1,0"),
            (SquareLatticeGenerator(), "-0,0"),
            (SquareLatticeGenerator(), "0,0,0"),
            (SquareLatticeGenerator(), "0"),
            (SquareLatticeGenerator(), 0),
            (IntegerLineGenerator(), "+0"),
            (IntegerLineGenerator(), "007"),
            (IntegerLineGenerator(), " 1"),
            (IntegerLineGenerator(), "0,0"),
            (IntegerLineGenerator(), 0),
        ],
    )
    def test_non_canonical_root_rejected(self, gen, root):
        assert not gen.contains(root)
        with pytest.raises(ValueError, match="not generated"):
            generator_ball(gen, root, 2)
        with pytest.raises(ValueError, match="not generated"):
            gen._ball(root, 2)
        with pytest.raises(ValueError, match="not generated"):
            build_exhaustion(gen, root, n_levels=2, plateau=1)


def _star(weights):
    ids = ["x"] + [f"y{k}" for k in range(len(weights))]
    edges = [("x", f"y{k}", w) for k, w in enumerate(weights)]
    return WeightedGraph(ids, [1.0] * len(ids), [0.0] * len(ids), edges)


@pytest.mark.parametrize(
    "weights,expected",
    [
        ([-1e308, -1e308], -math.inf),
        ([1e308, 1e308, -1e308], 1e308),
        ([-1e308, -1e308, 1e308, 0.5], -1e308),
        ([1e308, 1e308, -math.inf], -math.inf),
        ([1e308, 1e308, math.inf, -math.inf], math.nan),
        ([math.inf, -math.inf], math.nan),
    ],
)
def test_weighted_degree_is_the_exact_sum(weights, expected):
    degree = _star(weights).weighted_degree(0)
    if math.isnan(expected):
        assert math.isnan(degree)
    else:
        assert degree == expected
