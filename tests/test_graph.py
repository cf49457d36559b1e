from __future__ import annotations

import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from wicolor import (
    DuplicateEdgeError,
    PreconditionError,
    UndirectedWeightedGraph,
    WeightedDigraph,
    as_weight,
    cap,
    check_fixed_point,
    check_total_coloring,
    coloring_violations,
    embed_undirected,
    is_valid_coloring,
    max_weighted_indegree,
    random_subcubic_instance,
    underlying_graph,
    weighted_indegree,
)
from wicolor.graph import MAX_EXPONENT, _check_vertex

F = Fraction


class _FractionSubclass(Fraction):
    pass


class TestAsWeight:
    def test_accepts_fraction_int_string(self):
        assert as_weight(F(7, 10)) == F(7, 10)
        assert as_weight(1) == F(1)
        assert as_weight(0) == F(0)
        assert as_weight("7/10") == F(7, 10)
        assert as_weight("0.7") == F(7, 10)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_weight(0.7)

    def test_rejects_bool(self):
        # True == 1 and False == 0 as ints, but a flag is not a weight
        for flag in (True, False):
            with pytest.raises(TypeError):
                as_weight(flag)
        with pytest.raises(TypeError):
            WeightedDigraph(2, [(1, 2, True)])
        with pytest.raises(TypeError):
            UndirectedWeightedGraph(2, [(1, 2, False)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            as_weight(F(3, 2))
        with pytest.raises(ValueError):
            as_weight(F(-1, 2))
        with pytest.raises(ValueError):
            as_weight(2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_weight("7/")
        with pytest.raises(TypeError):
            as_weight(None)

    @pytest.mark.parametrize(
        "build", [as_weight, lambda token: WeightedDigraph(2, [(1, 2, token)])]
    )
    def test_huge_exponent_refused_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exponent above {MAX_EXPONENT} in magnitude"):
            build("1e-10000000")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "value",
        [
            F(0),
            F(1),
            F(1, 2),
            F(-1, 2),
            F(3, 2),
            _FractionSubclass(1, 2),
            _FractionSubclass(3, 2),
            0,
            1,
            2,
            "1/2",
            "3/2",
            "1/0",
            "5e-1",
            "1e-4300",
            "1e",
            True,
            False,
            0.5,
            None,
        ],
        ids=repr,
    )
    def test_matches_reference(self, value):
        """Same result and type, or the same exception type and message,
        as the function that range-checked the Fraction itself."""
        try:
            expected = bruteforce.reference_as_weight(value)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as info:
                as_weight(value)
            assert str(info.value) == str(exc)
        else:
            got = as_weight(value)
            assert (got, type(got)) == (expected, type(expected))


class TestCap:
    @pytest.mark.parametrize(
        "w, expected",
        [
            (F(1), 0),
            (F(1, 2), 1),
            (F(2, 3), 1),
            (F(1, 3), 2),
            (F(7, 10), 1),
            (F(3, 10), 3),
            (F(1, 10), 9),
            (F(9, 10), 1),
        ],
    )
    def test_examples(self, w, expected):
        assert cap(w) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            cap(F(0))
        with pytest.raises(PreconditionError):
            cap(F(-1, 2))

    @given(
        num=st.integers(min_value=1, max_value=60),
        den=st.integers(min_value=1, max_value=60),
    )
    def test_tight_threshold(self, num, den):
        w = F(num, den)
        if w > 1:
            w = 1 / w
        m = cap(w)
        assert m * w < 1 <= (m + 1) * w

    @given(
        a=st.integers(min_value=1, max_value=40),
        b=st.integers(min_value=1, max_value=40),
        c=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=40),
    )
    def test_antitone(self, a, b, c, d):
        w1 = F(min(a, b), max(a, b))
        w2 = F(min(c, d), max(c, d))
        if w1 <= w2:
            assert cap(w1) >= cap(w2)


class TestWeightedDigraph:
    def test_canonical_order_and_equality(self):
        G1 = WeightedDigraph(3, [(2, 1, F(1, 2)), (1, 3, F(1, 4))])
        G2 = WeightedDigraph(3, [(1, 3, F(1, 4)), (2, 1, F(1, 2))])
        assert G1 == G2
        assert hash(G1) == hash(G2)
        assert G1.arcs == ((1, 3, F(1, 4)), (2, 1, F(1, 2)))

    def test_string_weights_coerced(self):
        G = WeightedDigraph(2, [(1, 2, "7/10")])
        assert G.arcs[0][2] == F(7, 10)

    def test_antiparallel_arcs_allowed(self):
        G = WeightedDigraph(2, [(1, 2, F(1)), (2, 1, F(1, 2))])
        assert len(G.arcs) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedDigraph(2, [(1, 1, F(1, 2))])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(DuplicateEdgeError, match=r"duplicate arc \(1, 2\)"):
            WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 1, F(1, 4)), (1, 2, F(1, 4))])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            WeightedDigraph(2, [(1, 3, F(1, 2))])
        with pytest.raises(ValueError):
            WeightedDigraph(2, [(0, 1, F(1, 2))])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            WeightedDigraph(-1)

    def test_rejects_bool_vertex_count(self):
        # True would be serialized as "p wig True 0", which no parser reads
        with pytest.raises(ValueError, match="vertex count must be a nonnegative int"):
            WeightedDigraph(True, [])

    def test_empty_graph(self):
        G = WeightedDigraph(0)
        assert G.arcs == ()
        assert list(G.vertices) == []
        assert G.scale == {} and G.in_units == {}

    def test_in_out_structures(self, golden5):
        assert [(t, w) for t, h, w in golden5.arcs if h == 2] == [(4, F(3, 5)), (5, F(7, 10))]
        assert [(h, w) for t, h, w in golden5.arcs if t == 3] == [(1, F(1, 5)), (4, F(9, 10))]
        assert golden5.in_units[2] == ((4, 6), (5, 7))  # in tenths, vertex 2's unit
        assert golden5.in_neighbors[1] == frozenset({2, 3})
        assert golden5.in_neighbors[3] == frozenset({1, 2})

    def test_in_neighbors_include_zero_weight(self):
        G = WeightedDigraph(2, [(1, 2, F(0))])
        assert G.in_neighbors[2] == frozenset({1})

    def test_scale_is_per_vertex(self, golden5):
        # vertex 5's one in-arc weighs 1/2; the others mix fifths and tenths
        assert golden5.scale == {1: 10, 2: 10, 3: 10, 4: 10, 5: 2}
        assert golden5.in_units[5] == ((4, 1),)
        G = WeightedDigraph(3, [(1, 2, F(1, 4)), (2, 3, F(1, 6))])
        assert G.scale == {1: 1, 2: 4, 3: 6}


ODD_TRIPLES = [
    (True, 2, F(1, 2)),
    (1, False, F(1, 2)),
    (0, 2, F(1, 2)),
    (1, 3, F(1, 2)),
    (-1, 2, F(1, 2)),
    (1.0, 2, F(1, 2)),
    (1, "2", F(1, 2)),
    (1, 2, F(3, 2)),
    (1, 2, F(-1, 2)),
    (1, 2, _FractionSubclass(1, 2)),
    (1, 2, _FractionSubclass(3, 2)),
    (1, 2, "7/10"),
    (1, 2, "x"),
    (1, 2, 1),
    (1, 2, 2),
    (1, 2, True),
    (1, 2, 0.5),
    (1, 2, None),
    (2, 1, F(1)),
    (1, 2, F(0)),
]


class TestConstructorChecks:
    """The constructors skip the vertex and weight checks for an int in
    1..n and a Fraction in [0, 1], and fall back to them otherwise: any
    triple gives what `_check_vertex` and `as_weight` give."""

    @pytest.mark.parametrize("triple", ODD_TRIPLES, ids=repr)
    @pytest.mark.parametrize(
        "graph_type, role",
        (
            (WeightedDigraph, ("arc tail", "arc head")),
            (UndirectedWeightedGraph, ("edge endpoint", "edge endpoint")),
        ),
        ids=("digraph", "undirected"),
    )
    def test_same_outcome_as_the_checks(self, graph_type, role, triple):
        a, b, weight = triple
        try:
            _check_vertex(2, a, role[0])
            _check_vertex(2, b, role[1])
            expected = as_weight(weight)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as info:
                graph_type(2, [triple])
            assert str(info.value) == str(exc)
        else:
            graph = graph_type(2, [triple])
            stored = (graph.arcs if graph_type is WeightedDigraph else graph.edges)[0][2]
            assert (stored, type(stored)) == (expected, type(expected))

    def test_embedding_equals_the_constructor(self):
        for seed in range(20):
            H = random_subcubic_instance(4 + seed % 9, seed=seed)
            arcs = [arc for u, v, w in H.edges for arc in ((v, u, w), (u, v, w))]
            G = embed_undirected(H)
            assert G == WeightedDigraph(H.n, arcs)
            assert hash(G) == hash(WeightedDigraph(H.n, arcs))
            assert G.in_units == WeightedDigraph(H.n, arcs).in_units


class TestUndirectedWeightedGraph:
    def test_canonicalizes_endpoint_order(self):
        H = UndirectedWeightedGraph(3, [(3, 1, F(1, 2))])
        assert H.edges == ((1, 3, F(1, 2)),)

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(DuplicateEdgeError, match=r"duplicate edge \{1, 2\}"):
            UndirectedWeightedGraph(2, [(1, 2, F(1, 2)), (2, 1, F(1, 4))])

    def test_rejects_bool_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be a nonnegative int"):
            UndirectedWeightedGraph(True, [])

    def test_degree_and_adjacency(self, prism):
        assert prism.max_degree == 3
        assert all(prism.degree(v) == 3 for v in prism.vertices)
        assert prism.adjacency[1] == ((2, F(1)), (5, F(1)), (6, F(1, 2)))

    def test_degree_rejects_unknown_vertex(self, prism):
        with pytest.raises(ValueError):
            prism.degree(11)


class TestEndpointChecks:
    """A bad endpoint in either position gets `_check_vertex`'s error."""

    @pytest.mark.parametrize(
        "graph_type, position, role",
        [
            (WeightedDigraph, 0, "arc tail"),
            (WeightedDigraph, 1, "arc head"),
            (UndirectedWeightedGraph, 0, "edge endpoint"),
            (UndirectedWeightedGraph, 1, "edge endpoint"),
        ],
    )
    @pytest.mark.parametrize(
        "vertex, error, message",
        [
            (0, ValueError, "{role} 0 outside 1..3"),
            (4, ValueError, "{role} 4 outside 1..3"),
            (-1, ValueError, "{role} -1 outside 1..3"),
            (True, TypeError, "{role} must be an int, got True"),
            (1.0, TypeError, "{role} must be an int, got 1.0"),
            ("1", TypeError, "{role} must be an int, got '1'"),
        ],
    )
    def test_bad_endpoints_get_their_errors(
        self, graph_type, position, role, vertex, error, message
    ):
        ends = [vertex, 2] if position == 0 else [2, vertex]
        with pytest.raises(error) as info:
            graph_type(3, [(*ends, F(1, 2))])
        assert str(info.value) == message.format(role=role)


class TestColoringChecks:
    def test_total_check_passes(self):
        check_total_coloring(3, {1: 1, 2: 5, 3: 1})

    def test_partial_coloring_rejected(self):
        with pytest.raises(PreconditionError):
            check_total_coloring(3, {1: 1, 2: 1})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            check_total_coloring(2, {1: 1, 2: 1, 3: 1})

    def test_nonpositive_color_rejected(self):
        with pytest.raises(PreconditionError):
            check_total_coloring(2, {1: 0, 2: 1})

    def test_bool_color_rejected(self):
        with pytest.raises(PreconditionError):
            check_total_coloring(1, {1: True})

    def test_golden_valid(self, golden5, golden5_valid):
        assert is_valid_coloring(golden5, golden5_valid)
        assert coloring_violations(golden5, golden5_valid) == []

    def test_golden_invalid_single_violation(self, golden5, golden5_invalid):
        assert not is_valid_coloring(golden5, golden5_invalid)
        assert coloring_violations(golden5, golden5_invalid) == [(3, F(1))]

    def test_monochromatic_everything(self, golden5):
        mono = {v: 1 for v in golden5.vertices}
        viol = coloring_violations(golden5, mono)
        assert [v for v, _ in viol] == [2, 3, 4]
        assert dict(viol)[2] == F(13, 10)

    def test_violation_reports_exact_indegree(self):
        G = WeightedDigraph(3, [(1, 3, F(1, 2)), (2, 3, F(1, 2))])
        mono = {1: 1, 2: 1, 3: 1}
        assert coloring_violations(G, mono) == [(3, F(1))]
        assert is_valid_coloring(G, {1: 1, 2: 2, 3: 1})


class TestIndegrees:
    def test_weighted_indegree(self, golden5):
        assert weighted_indegree(golden5, 2) == F(13, 10)

    def test_max_weighted_indegree(self, golden5):
        assert max_weighted_indegree(golden5) == F(13, 10)
        assert max_weighted_indegree(WeightedDigraph(3)) == 0


class TestUnderlyingAndEmbedding:
    def test_underlying_golden(self, golden5):
        U = underlying_graph(golden5)
        assert U.edges == (
            (1, 2, F(7, 10)),
            (1, 3, F(7, 10)),
            (2, 3, F(3, 10)),
            (2, 4, F(3, 5)),
            (2, 5, F(7, 10)),
            (3, 4, F(9, 10)),
            (4, 5, F(1, 2)),
        )
        assert U.max_degree == 4

    def test_underlying_keeps_larger_weight(self):
        G = WeightedDigraph(2, [(1, 2, F(1, 4)), (2, 1, F(3, 4))])
        assert underlying_graph(G).edges == ((1, 2, F(3, 4)),)

    def test_embed_doubles_edges(self, prism, prism_digraph):
        assert prism_digraph.n == prism.n
        assert len(prism_digraph.arcs) == 2 * len(prism.edges)
        for u, v, w in prism.edges:
            assert prism_digraph.arc_weights[(u, v)] == w
            assert prism_digraph.arc_weights[(v, u)] == w

    def test_embed_then_underlying_round_trips(self, prism):
        assert underlying_graph(embed_undirected(prism)) == prism


# Shared strategy: a small digraph plus an arbitrary total coloring of it.

@st.composite
def digraph_and_coloring(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    arcs = []
    for t, h in chosen:
        num = draw(st.integers(min_value=0, max_value=8))
        arcs.append((t, h, F(num, 8)))
    colors = {v: draw(st.integers(min_value=1, max_value=3)) for v in range(1, n + 1)}
    return WeightedDigraph(n, arcs), colors


class TestAgainstBruteForce:
    @given(digraph_and_coloring())
    @settings(max_examples=60, deadline=None)
    def test_violations_match_definition(self, case):
        G, colors = case
        assert coloring_violations(G, colors) == bruteforce.reference_violations(G, colors)

    @given(digraph_and_coloring())
    @settings(max_examples=60, deadline=None)
    def test_validity_is_absence_of_violations(self, case):
        G, colors = case
        assert is_valid_coloring(G, colors) == (not bruteforce.reference_violations(G, colors))


# The integer view: every solver and check reads each vertex's in_units
# against its own scale; the Fraction references must agree with it
# exactly.

DENOMINATORS = {
    "dyadic": (8,),
    "tenths": (10,),
    "thirds": (3,),
    "mixed": (1, 2, 3, 4, 6, 7, 10, 12),
}


def _random_digraph(n: int, denominators: tuple[int, ...], seed: int) -> WeightedDigraph:
    """Random arcs whose numerators run 0..den, so zero-weight and
    weight-1 arcs both occur."""
    rng = random.Random(seed)
    arcs = []
    for t in range(1, n + 1):
        for h in range(1, n + 1):
            if t != h and rng.random() < 0.6:
                den = rng.choice(denominators)
                arcs.append((t, h, F(rng.randint(0, den), den)))
    return WeightedDigraph(n, arcs)


def _cases():
    for family, denominators in DENOMINATORS.items():
        for seed in range(6):
            yield family, _random_digraph(3 + seed, denominators, seed)
    yield "empty", WeightedDigraph(0)
    yield "no arcs", WeightedDigraph(3)
    yield "all zero", WeightedDigraph(3, [(1, 2, 0), (2, 3, 0), (3, 1, 0)])
    yield "all one", WeightedDigraph(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1), (2, 1, 1)])


CASES = list(_cases())
CASE_IDS = [f"{family}-{i}" for i, (family, _) in enumerate(CASES)]


@pytest.mark.parametrize("family, G", CASES, ids=CASE_IDS)
class TestIntegerUnits:
    def test_units_are_weights_times_the_scale(self, family, G):
        assert set(G.in_units) == set(G.scale) == set(G.vertices)
        for v in G.vertices:
            in_arcs = [(t, w) for t, h, w in G.arcs if h == v]
            scale = G.scale[v]
            assert scale == lcm(1, *(w.denominator for _, w in in_arcs))
            assert [t for t, _ in G.in_units[v]] == [t for t, _ in in_arcs]
            for (_, units), (_, w) in zip(G.in_units[v], in_arcs):
                assert type(units) is int
                assert units == int(w * scale)

    def test_indegrees_match_fraction_sums(self, family, G):
        in_arcs = {v: [(t, w) for t, h, w in G.arcs if h == v] for v in G.vertices}
        sums = {v: sum((w for _, w in in_arcs[v]), F(0)) for v in G.vertices}
        assert max_weighted_indegree(G) == max(sums.values(), default=F(0))
        for v in G.vertices:
            assert weighted_indegree(G, v) == sums[v]

    def test_violations_match_the_fraction_reference(self, family, G):
        rng = random.Random(G.n)
        for k in (1, 2, 3):
            for _ in range(20):
                colors = {v: rng.randint(1, k) for v in G.vertices}
                expected = bruteforce.reference_violations(G, colors)
                got = coloring_violations(G, colors)
                assert got == expected
                assert all(type(d) is Fraction for _, d in got)
                assert is_valid_coloring(G, colors) == (not expected)

    def test_fixed_point_check_matches_the_fraction_reference(self, family, G):
        for bits in range(1, 6):
            assert check_fixed_point(G, bits) == bruteforce.reference_fixed_point(G, bits)
