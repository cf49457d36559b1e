"""Both DPs on arbitrary valid decompositions, not only the built ones.

A decomposition is built, then reshaped by moves that keep it valid:
subdividing a tree edge with a bag that holds both ends' shared
vertices, carrying a vertex along a tree path, hanging a copy of a bag
or an empty bag as a leaf, and re-rooting.  Whatever the shape, the oracle and both DPs must agree
on the chromatic value, and every witness must be valid.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from wicolor import (
    TreeDecomposition,
    build_decomposition,
    exact_chi_w,
    is_valid_coloring,
    random_instance,
    solve_fpt_budget,
    solve_fpt_indegree,
    validate_decomposition,
)

MOVES = ("subdivide", "carry", "hang-copy", "hang-empty", "reroot")


def tree_path(edges: list[tuple[int, int]], start: int, end: int) -> list[int]:
    """The bags on the tree path from `start` to `end`, both included."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    came_from = {start: start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in came_from:
                came_from[nxt] = cur
                queue.append(nxt)
    path = [end]
    while path[-1] != start:
        path.append(came_from[path[-1]])
    return path


@st.composite
def reshaped_decompositions(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    p = draw(st.sampled_from((0.3, 0.45, 0.6)))
    G = random_instance(
        n, p, seed=draw(st.integers(0, 10**6)), bits=draw(st.integers(1, 2))
    )
    D = build_decomposition(G, draw(st.sampled_from(("min-degree", "min-fill", "exact-small"))))
    bags = [set(bag) for bag in D.bags]
    edges = list(D.tree_edges)
    root = D.root
    for move in draw(st.lists(st.sampled_from(MOVES), max_size=8)):
        bag = draw(st.integers(0, len(bags) - 1))
        if move == "subdivide" and edges:
            # the new bag holds what both ends share, or the holders of a
            # shared vertex would fall apart, and any more of their vertices
            a, b = edges.pop(draw(st.integers(0, len(edges) - 1)))
            either = sorted(bags[a] | bags[b])
            extra = draw(st.sets(st.sampled_from(either))) if either else set()
            bags.append(bags[a] & bags[b] | extra)
            edges += [(a, len(bags) - 1), (len(bags) - 1, b)]
        elif move == "carry" and bags[bag]:
            v = draw(st.sampled_from(sorted(bags[bag])))
            for i in tree_path(edges, bag, draw(st.integers(0, len(bags) - 1))):
                bags[i].add(v)
        elif move in ("hang-copy", "hang-empty"):
            bags.append(set(bags[bag]) if move == "hang-copy" else set())
            edges.append((bag, len(bags) - 1))
        elif move == "reroot":
            root = bag
    return G, TreeDecomposition(bags, edges, root)


@given(reshaped_decompositions())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dps_agree_with_the_oracle_on_any_valid_decomposition(case):
    G, D = case
    assert validate_decomposition(G, D) == []
    expected = exact_chi_w(G).chromatic
    for solve in (solve_fpt_indegree, solve_fpt_budget):
        result = solve(G, D)
        assert result.chromatic == expected
        assert is_valid_coloring(G, result.witness)
        assert max(result.witness.values(), default=1) <= expected
