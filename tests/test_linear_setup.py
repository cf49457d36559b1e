"""Decomposition set-up of the tree DPs against its first, quadratic form.

`validate_decomposition` asks whether an arc's endpoints share a bag by
testing their sets of holding bags for a common one, where it first
formed every vertex pair of every bag.  `TreeDecomposition` sets
`parent`, `children` and `preorder` in one walk from the root, where it
first made three passes.  `bruteforce` keeps both first forms; here the
violation lists must be equal on built decompositions broken by random
moves, and the walk must equal a BFS and a DFS on random trees under
every root.  `BudgetSolver`'s charges are compared with the reference in
`test_dp_reference_loops.py`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from wicolor import (
    BudgetSolver,
    FormatError,
    TreeDecomposition,
    WeightedDigraph,
    build_decomposition,
    parse_decomposition,
    random_instance,
    validate_decomposition,
)
from wicolor import fpt_budget

MUTATIONS = ("drop", "add", "foreign", "empty", "reroot", "hang")


@st.composite
def mutated_decompositions(draw):
    """A built decomposition of a random graph, changed by a few moves:
    drop a vertex from a bag, add a graph vertex or a foreign one to a
    bag, empty a bag, root at another bag, or hang a leaf bag holding
    some of a bag's vertices.  Most results are invalid."""
    n = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.sampled_from((0.15, 0.3, 0.5)))
    G = random_instance(n, p, seed=draw(st.integers(0, 10**6)), bits=2)
    D = build_decomposition(G, draw(st.sampled_from(("min-degree", "min-fill", "exact-small"))))
    bags = [set(bag) for bag in D.bags]
    edges = list(D.tree_edges)
    root = D.root
    for move in draw(st.lists(st.sampled_from(MUTATIONS), max_size=6)):
        bag = draw(st.integers(0, len(bags) - 1))
        if move == "drop" and bags[bag]:
            bags[bag].discard(draw(st.sampled_from(sorted(bags[bag]))))
        elif move == "add":
            bags[bag].add(draw(st.integers(1, n)))
        elif move == "foreign":
            bags[bag].add(draw(st.sampled_from((0, -1, n + 1, n + 7))))
        elif move == "empty":
            bags[bag].clear()
        elif move == "reroot":
            root = bag
        elif move == "hang":
            bags.append(set(draw(st.sets(st.sampled_from(sorted(bags[bag] or {1}))))))
            edges.append((bag, len(bags) - 1))
    return G, TreeDecomposition(bags, edges, root)


@given(mutated_decompositions())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_validation_matches_the_reference_on_mutated_decompositions(case):
    G, D = case
    assert validate_decomposition(G, D) == bruteforce.reference_validate_decomposition(G, D)


def test_validation_reports_both_directions_of_an_uncovered_arc():
    G = WeightedDigraph(3, [(1, 2, "1/2"), (2, 1, "1/2"), (3, 1, "1/4")])
    D = TreeDecomposition([{1, 3}, {2, 5}, set()], [(0, 1), (1, 2)], root=2)
    got = validate_decomposition(G, D)
    assert [(v.property_index, v.witness) for v in got] == [(0, 5), (2, (1, 2)), (2, (1, 2))]
    assert got == bruteforce.reference_validate_decomposition(G, D)


def random_tree_edges(count: int, seed: int) -> list[tuple[int, int]]:
    """A random tree on `count` bags: each bag but one hangs off an
    earlier one, then the bags are relabeled and the edges shuffled and
    turned at random."""
    rng = random.Random(seed)
    label = list(range(count))
    rng.shuffle(label)
    edges = []
    for i in range(1, count):
        a, b = label[rng.randrange(i)], label[i]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


@pytest.mark.parametrize("seed", range(40))
def test_tree_walk_matches_the_reference_under_every_root(seed):
    count = 1 + seed % 23
    edges = random_tree_edges(count, seed)
    bags = [{i} for i in range(count)]
    base = TreeDecomposition(bags, edges)
    for root in range(count):
        expected = bruteforce.reference_tree_walk(count, edges, root)
        for D in (TreeDecomposition(bags, edges, root), base.root_at(root)):
            assert (D.parent, D.children, D.preorder) == expected
            assert D.root == root


@pytest.mark.parametrize(
    "edges, root",
    [
        ([(0, 1), (1, 2), (0, 2)], 0),  # the walk from the root meets a cycle
        ([(0, 1), (1, 2), (0, 2)], 3),  # the cycle lies off the root's part
        ([(0, 1), (2, 3), (3, 4), (2, 4)], 1),
        ([(0, 1), (2, 3), (3, 4), (2, 4)], 4),
    ],
)
def test_disconnected_tree_edges_are_refused(edges, root):
    bags = [{1}] * (len(edges) + 1)
    with pytest.raises(ValueError, match=r"^tree edges do not connect all bags$"):
        TreeDecomposition(bags, edges, root)


def test_a_cycle_through_a_hub_is_refused_at_the_first_revisit():
    # hub 0 joined to bags 1..k, an edge between two of its neighbours
    # and one separate bag: count-1 edges; a walk that did not stop at
    # the first revisit would go round 0-1-2 about k/3 times, each pass
    # pushing k-1 bags
    k = 10_000
    edges = [(0, b) for b in range(1, k + 1)] + [(1, 2)]
    bags = [{1}] * (k + 2)
    for root in (0, 2, k + 1):
        with pytest.raises(ValueError, match=r"^tree edges do not connect all bags$"):
            TreeDecomposition(bags, edges, root)


def test_wrong_edge_count_and_bad_root_keep_their_messages():
    with pytest.raises(ValueError, match=r"^3 tree edges cannot form a tree on 3 bags$"):
        TreeDecomposition([{1}, {2}, {3}], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match=r"^root index 2 out of range$"):
        TreeDecomposition([{1}, {2}], [(0, 1)], 2)
    with pytest.raises(ValueError, match=r"^root index 2 out of range$"):
        TreeDecomposition([{1}, {2}], [(0, 1)]).root_at(2)
    with pytest.raises(ValueError, match=r"^root index True out of range$"):
        TreeDecomposition([{1}, {2}], [(0, 1)]).root_at(True)


def test_an_arc_in_no_common_bag_is_never_charged(monkeypatch):
    """With validation bypassed, an arc whose endpoints share no bag
    trips the charge check instead of being charged somewhere."""
    G = WeightedDigraph(3, [(1, 2, "1/2"), (2, 3, "1/2")])
    D = TreeDecomposition([{2, 3}, {1}], [(0, 1)])
    monkeypatch.setattr(fpt_budget, "validate_decomposition", lambda G, D: [])
    with pytest.raises(AssertionError, match="every arc must be charged at exactly one bag"):
        BudgetSolver(G, D)


def test_a_charge_sits_at_the_deeper_top_bag():
    # 1 tops bag 0 and 2 tops bag 1, the child holding both: arc 1 -> 2
    # is charged there; 3 tops bag 2, which holds 2 too
    G = WeightedDigraph(3, [(1, 2, "1/2"), (2, 3, "1/4"), (3, 2, "1/4")])
    D = TreeDecomposition([{1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    solver = BudgetSolver(G, D)
    assert solver.charge_list == [[], [(1, 2, 2)], [(2, 3, 1), (3, 2, 1)]]


def test_first_repeated_bag_vertex_names_its_line():
    members = " ".join(map(str, [*range(1, 3001), 2999, 7, 3000]))
    with pytest.raises(FormatError) as info:
        parse_decomposition(f"s td 1 3003 3000\nb 1 {members}\n", 3000)
    assert (info.value.line, info.value.bare_message) == (2, "vertex 2999 repeated in bag 1")
