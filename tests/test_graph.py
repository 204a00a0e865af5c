"""Graph storage, JSON schema, generators and exhaustions."""

import json
import math
import re
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphforms import (
    Exhaustion,
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
    single_vertex,
    truncate,
    validate,
)
from graphforms.graph import _Cutoffs, _bfs_ball, _truncate_loop
from graphforms.resolvent import assemble_stiffness

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

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "x", 1.0)],
            [("a", "b", 1.0), ("zz", "c", 1.0)],
            [("a", "b", 1.0), ("b", 7, 1.0), ("q", "c", 1.0)],
            [("a", "b", 1.0), ("b", "q", 1.0), (["list"], "c", 1.0)],
            [("a", "b", 1.0), (["list"], "c", 1.0), ("q", "c", 1.0)],
            [(0, 1, 1.0), ("q", "c", 1.0)],
            [(np.int64(0), 3, 1.0)],
            [(-1, 2, 1.0)],
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            [(0, 1, 1.0), (np.uint64(1), -1, 1.0)],
            [(0, 1, 1.0), (1, 2**70, 1.0)],
            [(0, 1, 1.0), (1.0, 2, 1.0)],
            [(0, 1, 1.0), (np.array(1), 2, 1.0)],
            [(0, 1, 1.0), (np.True_, 2, 1.0)],
        ],
    )
    def test_endpoint_errors_match_resolve(self, edges):
        # The reference: every endpoint through _resolve, in order.
        ref = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, [])
        with pytest.raises(Exception) as want:
            [(ref._resolve(u), ref._resolve(v)) for u, v, _ in edges]
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, edges)

    def test_ids_indices_and_mixed_lists_agree(self):
        by_id = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, [("c", "a", 1.0), ("b", "c", 2.0)])
        for edges in ([(2, 0, 1.0), (1, 2, 2.0)], [("c", 0, 1.0), ("b", np.int64(2), 2.0)],
                      [(np.int64(2), "a", 1.0), (1, "c", 2.0)]):
            g = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, edges)
            for name in ("edge_u", "edge_v", "edge_b", "_nbr", "_indptr"):
                assert np.array_equal(getattr(g, name), getattr(by_id, name))

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

    def test_non_finite_weights_are_not_called_nonpositive(self):
        ids = ["a", "b", "c", "d", "e", "f"]
        weights = [0.0, -1.0, math.inf, -math.inf, math.nan]
        edges = [("a", v, b) for v, b in zip(ids[1:], weights)]
        g = WeightedGraph(ids, [1.0] * 6, [0.0] * 6, edges)
        report = [v for v in validate(g) if "edge weight" in v]
        assert report == ["nonpositive edge weight b(a,b) = 0.0",
                          "nonpositive edge weight b(a,c) = -1.0",
                          "non-finite edge weight b(a,d) = inf",
                          "non-finite edge weight b(a,e) = -inf",
                          "non-finite edge weight b(a,f) = nan"]


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


def _emit_oracle(g):
    """What emit_graph writes, by the json module's own encoder."""
    return json.dumps(g.to_dict(), sort_keys=True, indent=2) + "\n"


_SPECIAL = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e308,
            1.7976931348623157e308, math.inf, -math.inf, math.nan)
_ID_CHARS = st.sampled_from('"\\,/\x00\x08\x1f\x7f\n\t aé→\u2028😀') | st.characters()


@st.composite
def json_graphs(draw):
    """Small graphs with awkward ids and floats; about half are valid."""
    ids = draw(st.one_of(
        st.lists(st.text(_ID_CHARS, max_size=5), min_size=1, max_size=7, unique=True),
        st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=7, unique=True),
    ))
    n = len(ids)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    if draw(st.booleans()):
        value = st.floats(min_value=5e-324, max_value=1e306)
        killing = st.just(0.0) | st.just(-0.0) | st.floats(min_value=0.0, max_value=1e306)
    else:
        value = killing = st.sampled_from(_SPECIAL) | st.floats()
    m, c, b = (draw(st.lists(s, min_size=k, max_size=k))
               for s, k in ((value, n), (killing, n), (value, len(chosen))))
    return WeightedGraph(ids, m, c, [(i, j, w) for (i, j), w in zip(chosen, b)])


class TestEmitGraph:
    """emit_graph writes the json module's indent=2 text byte for byte."""

    @settings(max_examples=200)
    @given(json_graphs())
    def test_matches_json_dumps(self, g):
        text = emit_graph(g)
        assert text == _emit_oracle(g)
        if isinstance(g.ids[0], str) and not validate(g):
            back = load_graph(text)
            assert back.ids == g.ids and emit_graph(back) == text
            assert np.array_equal(back.m, g.m) and np.array_equal(back.c, g.c)

    @pytest.mark.parametrize("g", [
        single_vertex(1.0, 0.0),
        single_vertex(math.inf, -0.0, vid='q"\\\x01,é'),
        WeightedGraph([3, -1, 2], [1, 2, 3], [0, 0, 0], [(0, 1, 1.0), (2, 1, 2.0)]),
        make_path(5, 0.3),
    ])
    def test_examples(self, g):
        assert emit_graph(g) == _emit_oracle(g)

    def test_lattice(self):
        gen = SquareLatticeGenerator(m=0.3, c=0.1, b=1 / 3)
        g = truncate(gen, generator_ball(gen, "2,-1", 9))
        assert emit_graph(g) == _emit_oracle(g)


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


def _unsaturated(ex):
    """A ball exhaustion with its last cutoff left a ball's, as ``build_exhaustion``'s is."""
    return Exhaustion._of(ex.graph, replace(ex._levels, saturate=False), ex.nest_assumed)


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
            ex = ball_exhaustion(g, 1, n_levels=3, plateau=plateau)
            if not saturate:
                ex = _unsaturated(ex)
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
        ex = ball_exhaustion(_two_components(), "v0", n_levels=2)
        assert np.all(ex.cutoffs[-1] == 1.0)

    def test_one_distance_search_per_exhaustion(self, monkeypatch):
        calls = []
        original = WeightedGraph.distances_from

        def counting(self, sources):
            calls.append(1)
            return original(self, sources)

        monkeypatch.setattr(WeightedGraph, "distances_from", counting)
        # The index ball of a built-in generator hands over its BFS layers.
        build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=6, plateau=2)
        build_exhaustion(IntegerLineGenerator(), "0", n_levels=6, plateau=2)
        assert len(calls) == 0
        ball_exhaustion(make_path(12, 1.0), "v0", n_levels=4, plateau=2)
        assert len(calls) == 1

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
        assert validate(g) == ["infinite neighbor weight sum at x"]

    def test_opposite_infinite_weights_give_nan_degree(self):
        ids = ["x", "y", "z"]
        g = WeightedGraph(ids, [1.0] * 3, [0.0] * 3, [("x", "y", math.inf), ("x", "z", -math.inf)])
        # x's weights sum to NaN, which is no finite degree either.
        assert validate(g) == [
            "non-finite edge weight b(x,y) = inf",
            "non-finite edge weight b(x,z) = -inf",
        ] + [f"infinite neighbor weight sum at {v}" for v in ids]


def _same_graph(a, b):
    assert a.ids == b.ids
    for name in ("edge_u", "edge_v", "edge_b", "m", "c", "_indptr", "_nbr", "_nbr_b"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class _Ring:
    """A generator that is not a built-in grid: the cycle a -> b -> c -> a."""

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


def _unresolved_ids(gen, root, radius) -> list:
    """Ids that no vertex of the ball |x - root|_1 <= radius has: not canonical, of the
    wrong dimension, empty, far out, and every point just outside the ball."""
    if isinstance(gen, SquareLatticeGenerator):
        odd = ["0, 0", "01,0", "+1,0", "-0,0", " 0,0", "0,0,0", "0", "1_0,0", "٣,0", "",
               f"{10**30},0", "9223372036854775808,0"]
    else:
        odd = ["01", "+1", "-0", " 0", "0,0", "1_0", "٣", "", str(10**30), "9223372036854775808"]
    return odd + _bfs_ball(gen, root, radius + 1)[len(_bfs_ball(gen, root, radius)):]


def _same_resolve(ball, oracle, v):
    """ball._resolve(v) returns oracle's index of v, or raises oracle's exact error."""
    try:
        want = oracle._resolve(v)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(exc))}$"):
            ball._resolve(v)
    else:
        assert ball._resolve(v) == want


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
        # The ids and the id -> index dict are built on first read, and every id
        # resolves before that as the dict resolves it.
        for root in roots:
            for radius in range(9):
                ball = gen._ball(root, radius)[0]
                oracle = _truncate_loop(gen, _bfs_ball(gen, root, radius))
                assert [ball._resolve(v) for v in oracle.ids] == list(range(oracle.n))
                for v in _unresolved_ids(gen, root, radius):
                    _same_resolve(ball, oracle, v)
                boundary = oracle.ids[1::3]
                assert np.array_equal(assemble(ball, boundary=boundary).active,
                                      assemble(oracle, boundary=boundary).active)
                assert ball.n == oracle.n
                assert "ids" not in vars(ball) and "index" not in vars(ball)
                for v in (0, np.int64(oracle.n - 1), True, -1, oracle.n, 7.5, None):
                    _same_resolve(ball, oracle, v)  # no str: the integer path, or the dict
                assert type(ball.ids) is list and type(ball.index) is dict
                assert ball.ids is ball.ids and ball.index is ball.index  # built once
                assert ball.index == oracle.index and ball.n == len(ball.ids)
                _same_graph(ball, oracle)

    @pytest.mark.parametrize(
        "gen,roots,radius",
        [(SquareLatticeGenerator(), ["0,0", "3,-2"], r) for r in (20, 45, 71)]
        + [(IntegerLineGenerator(), ["0", "-5"], r) for r in (100, 304)],
    )
    def test_matches_string_truncation_at_real_radii(self, gen, roots, radius):
        # The one-sort order against the queue BFS at the benchmark's sizes.
        for root in roots:
            graph, dist = gen._ball(root, radius)
            oracle = _truncate_loop(gen, _bfs_ball(gen, root, radius))
            assert [graph._resolve(v) for v in oracle.ids] == list(range(oracle.n))
            for v in _unresolved_ids(gen, root, radius):
                _same_resolve(graph, oracle, v)
            _same_graph(graph, oracle)
            assert dist.dtype == np.float64
            assert np.array_equal(dist, graph.distances_from([graph.index[root]]))

    @pytest.mark.parametrize(
        "gen,root", [(SquareLatticeGenerator(c=0.1), "-4,7"), (IntegerLineGenerator(b=2.0), "9")]
    )
    def test_build_exhaustion_graph_matches_string_path(self, gen, root):
        for levels, plateau in ((1, 1), (5, 2), (12, 3)):
            ex = build_exhaustion(gen, root, n_levels=levels, plateau=plateau)
            oracle = _truncate_loop(gen, _bfs_ball(gen, root, levels + plateau))
            _same_graph(ex.graph, oracle)

    @pytest.mark.parametrize(
        "gen,roots",
        [
            (SquareLatticeGenerator(), ["0,0", "3,-2", "-7,1"]),
            (IntegerLineGenerator(), ["0", "-5", "12"]),
        ],
    )
    def test_layers_are_the_root_distances(self, gen, roots):
        for root in roots:
            for radius in range(9):
                graph, dist = gen._ball(root, radius)
                assert dist.dtype == np.float64
                assert np.array_equal(dist, graph.distances_from([graph.index[root]]))

    def test_non_grid_generator_takes_the_string_path(self):
        ex = build_exhaustion(_Ring(), "a", n_levels=1, plateau=1)
        assert ex.graph.ids == ["a", "b", "c"]

    @settings(max_examples=150)
    @given(st.booleans(), st.integers(0, 6), st.data())
    def test_resolve_matches_the_dict(self, lattice, radius, data):
        gen = SquareLatticeGenerator() if lattice else IntegerLineGenerator()
        root = data.draw(st.sampled_from(["0,0", "-3,5"] if lattice else ["0", "17"]))
        ball = gen._ball(root, radius)[0]
        oracle = _truncate_loop(gen, _bfs_ball(gen, root, radius))
        near = _bfs_ball(gen, root, radius + 2)  # the ball, then the points just outside it
        v = data.draw(st.sampled_from(near) | st.sampled_from(_unresolved_ids(gen, root, radius))
                      | st.text(alphabet="0123456789,-+ _", max_size=6)
                      | st.tuples(st.sampled_from(near), st.text(max_size=2)).map("".join))
        _same_resolve(ball, oracle, v)
        assert "ids" not in vars(ball) and "index" not in vars(ball)


class TestGeneratorBall:
    """generator_ball takes the grids' index-space order, equal to the queue BFS."""

    @pytest.mark.parametrize(
        "gen,roots",
        [
            (SquareLatticeGenerator(), ["0,0", "3,-2", "-17,40"]),
            (IntegerLineGenerator(), ["0", "-5", "123"]),
        ],
    )
    def test_matches_the_generic_bfs(self, gen, roots):
        for root in roots:
            for radius in range(41):
                assert generator_ball(gen, root, radius) == _bfs_ball(gen, root, radius)

    @pytest.mark.parametrize("radius", [-1, -40, 2.5, 2.0, math.nan, "3", None])
    @pytest.mark.parametrize(
        "gen,root", [(SquareLatticeGenerator(), "0,0"), (IntegerLineGenerator(), "0"),
                     (_Ring(), "a")]
    )
    def test_rejects_a_bad_radius(self, gen, root, radius):
        with pytest.raises(ValueError, match="radius must be a nonnegative integer"):
            generator_ball(gen, root, radius)
        if isinstance(gen, SquareLatticeGenerator | IntegerLineGenerator):
            with pytest.raises(ValueError, match="radius must be a nonnegative integer"):
                gen._ball(root, radius)

    def test_integer_radius_types(self):
        gen = SquareLatticeGenerator()
        assert generator_ball(gen, "0,0", np.int64(3)) == generator_ball(gen, "0,0", 3)
        assert generator_ball(_Ring(), "a", 0) == ["a"]


@st.composite
def grid_id_lists(draw):
    """(generator, ids): part of a grid ball in any order, on random grid data, now
    and then with an id that is not canonical, unknown, repeated or far away."""
    lattice = draw(st.booleans())
    data = {k: draw(st.sampled_from([0.0, 0.25, 1.0, 3.0])) for k in ("c", "b")}
    cls = SquareLatticeGenerator if lattice else IntegerLineGenerator
    gen = cls(m=draw(st.sampled_from([0.5, 1.0, 2.0])), **data)
    root = draw(st.sampled_from(["0,0", "-3,5"] if lattice else ["0", "17"]))
    ball = generator_ball(gen, root, draw(st.integers(0, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [ball[i] for i in rng.permutation(len(ball)) if rng.random() < 0.8]
    if draw(st.booleans()):
        odd = draw(st.sampled_from(["+1,0", "01,2", " 1,0", "-0,0", "1_0,0", "1,2,3", "4",
                                    "a,b", "", "9223372036854775808,0", "9223372036854775807,0",
                                    "-9223372036854775808,0", "400,-400", "dup"]))
        if not lattice:  # the line's counterpart
            odd = "4,0" if odd == "4" else odd.split(",")[0]
        if odd == "dup":
            odd = ids[0] if ids else "dup"
        ids.insert(int(rng.integers(len(ids) + 1)), odd)
    return gen, ids


class TestIndexTruncate:
    """truncate on the built-in grids finds the edges in index space, with the graph
    (or the error) that the loop over gen.neighbors gives."""

    @settings(max_examples=200)
    @given(grid_id_lists())
    def test_matches_the_loop(self, case):
        gen, ids = case
        try:
            oracle = _truncate_loop(gen, list(ids))
        except ValueError as exc:  # GraphFormatError included
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                truncate(gen, ids)
        else:
            _same_graph(truncate(gen, iter(ids)), oracle)

    @pytest.mark.parametrize(
        "gen,root,radius",
        [(SquareLatticeGenerator(c=0.1), "2,-1", 70), (IntegerLineGenerator(b=0.5), "-9", 300)],
    )
    def test_balls_take_the_index_path(self, gen, root, radius):
        ids = generator_ball(gen, root, radius)
        assert np.array_equal(gen._points(ids)[0][0], [int(t) for t in root.split(",")])
        _same_graph(truncate(gen, ids), _truncate_loop(gen, ids))
        _same_graph(truncate(gen, ids[::-1]), _truncate_loop(gen, ids[::-1]))

    @pytest.mark.parametrize("ids", [["-9223372036854775808,0", "-9223372036854775808,1"],
                                     ["9223372036854775807,-3", "9223372036854775806,-3"]])
    def test_extreme_coordinates(self, ids):
        # int64 differences wrap at the ends of the range, and keys must not
        gen = SquareLatticeGenerator()
        assert gen._points(ids) is not None
        _same_graph(truncate(gen, ids), _truncate_loop(gen, ids))
        assert truncate(gen, ids).edge_u.tolist() == [0]

    @pytest.mark.parametrize("ids", [["0,0", "+1,0"], ["0,0", "1000,0"], [], ["0,0", 7]])
    def test_other_ids_take_the_loop(self, ids):
        # a non-canonical id, a box too sparse for the table, no ids, an id that is no str
        assert SquareLatticeGenerator()._points(ids) is None


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


class TestImplicitCutoffs:
    """Ball exhaustions keep root distances; their levels match the dense cutoffs."""

    def _exhaustions(self):
        line = build_exhaustion(IntegerLineGenerator(), "0", n_levels=5, plateau=2)
        lattice = build_exhaustion(SquareLatticeGenerator(), "1,1", n_levels=4, plateau=3)
        yield line
        yield lattice
        active = np.ones(lattice.graph.n, dtype=bool)
        active[[0, 3, 17]] = False
        yield lattice.masked(active)
        yield lattice.masked(active).masked(np.arange(lattice.graph.n) % 5 != 1)
        for plateau in (1, 2, 4):
            for ex in (ball_exhaustion(_two_components(), "v1", 3, plateau),
                       ball_exhaustion(make_path(17, 1.0), "v3", 4, plateau)):
                yield ex
                yield _unsaturated(ex)

    def test_nothing_dense_until_read(self):
        ex = build_exhaustion(SquareLatticeGenerator(), "0,0", n_levels=6, plateau=2)
        mex = ex.masked(np.ones(ex.graph.n, dtype=bool))
        for e in (ex, mex):
            assert "cutoffs" not in vars(e) and "sets" not in vars(e)
        assert mex.levels == 6

    def test_enter_and_freeze_match_a_scan_of_the_cutoffs(self):
        for ex in self._exhaustions():
            enter, freeze = ex._levels.enter_freeze()
            scanned = _Cutoffs(ex.sets, ex.cutoffs).enter_freeze()
            assert np.array_equal(enter, scanned[0])
            assert np.array_equal(freeze, scanned[1])

    def test_values_match_the_dense_cutoffs(self):
        rng = np.random.default_rng(3)
        for ex in self._exhaustions():
            dense = np.array(ex.cutoffs)
            level = rng.integers(ex.levels, size=50)
            vertex = rng.integers(ex.graph.n, size=(2, 50))
            assert np.array_equal(ex._levels.values(level, vertex), dense[level, vertex])
            for k in range(ex.levels):
                assert np.array_equal(ex._levels.cutoff(k), dense[k])

    def test_masking_a_ball_exhaustion_with_a_wrong_shape_fails_as_before(self):
        ex = build_exhaustion(IntegerLineGenerator(), "0", n_levels=2, plateau=1)
        for n in (ex.graph.n - 1, ex.graph.n + 1):
            with pytest.raises(ValueError, match="broadcast"):
                ex.masked(np.ones(n, dtype=bool))


def _eager_csr(g):
    """(indptr, neighbours, weights) by a loop over the edges: each edge in both
    directions, in edge order per vertex."""
    rows = [[] for _ in range(g.n)]
    for u, v, b in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_b.tolist()):
        rows[u].append((v, b))
        rows[v].append((u, b))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    pairs = [p for r in rows for p in r]
    return indptr, np.array([v for v, _ in pairs], dtype=int), np.array([b for _, b in pairs])


def _bfs(rows, source):
    dist = [math.inf] * len(rows)
    dist[source], frontier = 0, [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y, _ in rows[x]:
                if dist[y] == math.inf:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def _adjacency_graphs():
    """(label, graph) from every constructor: ids, int indices, JSON, grids and a ring."""
    ids = ["a", "b", "c", "d", "e"]
    edges = [("c", "a", 1.5), ("b", "c", 2.0), ("a", "d", 0.25), ("d", "b", 1e308), ("b", "a", 1e308)]
    yield "ids", WeightedGraph(ids, [1.0] * 5, [0.0, 0.5, 0.0, 0.0, 1.0], edges)
    yield "indices", WeightedGraph(ids, [1.0] * 5, [0.0] * 5, [(3, 0, 1.0), (2, 1, 0.5), (4, 1, 3.0)])
    yield "from_ends", WeightedGraph._from_ends(ids, [1.0] * 5, [0.0] * 5,
                                                ["e", "a", "c", "e", "b", "c"],
                                                np.array([1.0, 2.0, 0.5]))
    gen = SquareLatticeGenerator(b=0.5)
    yield "truncate grid", truncate(gen, generator_ball(gen, "2,-1", 4)[::-1])
    yield "truncate ring", truncate(_Ring(), ["c", "a", "b"])
    yield "load_graph", load_graph(emit_graph(truncate(gen, generator_ball(gen, "0,0", 3))))
    yield "build_exhaustion grid", build_exhaustion(IntegerLineGenerator(), "0", 4, 2).graph
    yield "build_exhaustion ring", build_exhaustion(_Ring(), "b", 1, 1).graph
    yield "isolated", _two_components()


def _counting_adjacency(monkeypatch) -> list:
    """Record each graph whose adjacency is built, from here on."""
    build = WeightedGraph._adjacency.func
    builds = []

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(WeightedGraph, "_adjacency")
    monkeypatch.setattr(WeightedGraph, "_adjacency", prop)
    return builds


class TestLazyAdjacency:
    """The CSR adjacency is built on first use, once, and equals an eager build."""

    @pytest.mark.parametrize("label", [label for label, _ in _adjacency_graphs()])
    def test_matches_an_eager_build(self, label, monkeypatch):
        g = dict(_adjacency_graphs())[label]
        builds = _counting_adjacency(monkeypatch)
        indptr, nbr, nbr_b = _eager_csr(g)
        rows = [list(zip(nbr[a:b].tolist(), nbr_b[a:b].tolist())) for a, b in zip(indptr, indptr[1:])]
        for i in range(g.n):
            assert g.neighbors(i) == rows[i]
            assert g.distances_from([i]).tolist() == _bfs(rows, i)
        eager = WeightedGraph.__new__(WeightedGraph)
        eager.__dict__.update(g.__dict__, _adjacency=(indptr, nbr, nbr_b))
        assert validate(g) == validate(eager)
        assert builds in ([], [g])  # [] when load_graph's validate built it
        for got, want in zip((g._indptr, g._nbr, g._nbr_b), (indptr, nbr, nbr_b)):
            assert got.dtype.kind == want.dtype.kind and np.array_equal(got, want)
            assert not got.flags.writeable

    def test_built_once_on_first_use(self, monkeypatch):
        builds = _counting_adjacency(monkeypatch)
        g = WeightedGraph(["a", "b", "c"], [1.0] * 3, [0.0] * 3, [("a", "b", 1.0), ("b", "c", 2.0)])
        assert builds == []
        for _ in range(2):
            g.neighbors(1), g.distances_from([0]), validate(g)
        assert builds == [g]

    def test_grid_decomposition_never_builds_it(self, monkeypatch):
        # Nor the ids or the id -> index dict: the boundary id resolves from its coordinates.
        from graphforms import reflected_form
        from graphforms.graph import _GridBall, _IntegerGrid

        builds = _counting_adjacency(monkeypatch)
        made = []
        format_ids = _IntegerGrid._ids
        monkeypatch.setattr(_IntegerGrid, "_ids", staticmethod(
            lambda *args: made.append("ids") or format_ids(*args)))
        index = cached_property(lambda self: made.append("index") or {})
        index.__set_name__(_GridBall, "index")
        monkeypatch.setattr(_GridBall, "index", index)
        for gen, root, boundary in ((SquareLatticeGenerator(c=0.1), "0,0", "-1,0"),
                                    (IntegerLineGenerator(), "3", "2")):
            ex = build_exhaustion(gen, root, n_levels=5, plateau=2)
            q = assemble(ex.graph, boundary=[boundary])
            assert np.flatnonzero(~q.active).tolist() == [1]
            f = np.linspace(-1.0, 2.0, q.n) * q.active
            reflected_form(q, ex, f)
            assert "ids" not in vars(ex.graph) and "index" not in vars(ex.graph)
        assert builds == [] and made == []


class TestStoredArrays:
    """A graph keeps read-only copies of its data: no caller write reaches it."""

    def test_caller_writes_do_not_reach_the_graph(self):
        from graphforms.reflection import form_oracle_killing, form_oracle_main

        m, c = np.ones(3), np.zeros(3)
        g = WeightedGraph(["a", "b", "c"], m, c, [("a", "b", 1.0), ("b", "c", 1.0)])
        q = assemble(g)
        K = assemble_stiffness(q).toarray()
        m[0], c[1] = 5.0, 2.0
        f = [0.0, 1.0, 0.0]
        assert np.array_equal(assemble_stiffness(q).toarray(), K)
        assert q.evaluate(f) == 4.0
        assert form_oracle_main(q, f) + form_oracle_killing(q, f) == 4.0
        assert g.m.tolist() == [1.0] * 3 and g.c.tolist() == [0.0] * 3

    def test_arrays_are_read_only(self):
        gen = SquareLatticeGenerator()
        for g in (make_path(4, 0.5), load_graph(TWO_VERTEX), truncate(gen, generator_ball(gen, "0,0", 2)),
                  build_exhaustion(gen, "0,0", 2, 1).graph, truncate(_Ring(), ["a", "b", "c"])):
            for name in ("m", "c", "edge_u", "edge_v", "edge_b"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(g, name)[0] = 0
