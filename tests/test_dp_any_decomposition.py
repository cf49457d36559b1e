"""Both DPs through their one decision protocol, on any valid decomposition.

Both solvers subclass `TreeDP`: `solve()` is the least k that `decide(k)`
accepts, and `witness()` reads the coloring of the last accepted
`decide(k)`.  A decomposition is built, then reshaped by moves that keep
it valid: subdividing a tree edge with a bag that holds both ends'
shared vertices, carrying a vertex along a tree path, hanging a copy of
a bag or an empty bag as a leaf, and re-rooting.  Whatever the shape,
the oracle and both DPs must agree on the chromatic value, in the
library and through `wicolor solve --decomposition`, and every witness
must be valid.  A witness read looks up each bag once, and each of its
checks fires on a corrupted memo, table or bag order.
"""

from __future__ import annotations

import io
import tempfile
from collections import Counter, deque
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicolor import (
    BudgetSolver,
    IndegreeSolver,
    PreconditionError,
    TreeDecomposition,
    build_decomposition,
    exact_chi_w,
    is_valid_coloring,
    max_weighted_indegree,
    random_instance,
    serialize_decomposition,
    serialize_digraph,
    solve_fpt_budget,
    solve_fpt_indegree,
    validate_decomposition,
)
from wicolor import cli, fpt_budget, fpt_indegree

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


@given(reshaped_decompositions(), st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cli_agrees_with_the_oracle_on_any_serialized_decomposition(case, data):
    G, D = case
    # the file lists the decomposition's root as bag 1; --root picks another
    root = data.draw(st.integers(1, len(D.bags)))
    expected = exact_chi_w(G).chromatic
    with tempfile.TemporaryDirectory() as tmp:
        g, td, w = (str(Path(tmp) / name) for name in ("g.wig", "g.td", "w"))
        Path(g).write_text(serialize_digraph(G), encoding="utf-8")
        Path(td).write_text(serialize_decomposition(D, n=G.n), encoding="utf-8")
        argv = ["solve", g, "--decomposition", td, "--all-methods", "--out", w]
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv + ["--root", str(root)] if root > 1 else argv) == 0
            reports = [
                dict(token.split("=", 1) for token in line.split())
                for line in out.getvalue().splitlines()
                if line.startswith("solver=")
            ]
            assert [r["solver"] for r in reports] == ["exact", "fpt-budget", "fpt-indegree"]
            for report in reports:
                assert int(report["chromatic"]) == expected, report
                assert cli.main(["validate", g, report["witness"]]) == 0


def protocol_case(seed: int, strategy: str):
    G = random_instance(4 + seed % 5, (0.3, 0.5)[seed % 2], seed=seed, bits=1 + seed % 2)
    return G, build_decomposition(G, strategy)


@pytest.mark.parametrize("strategy", ("exact-small", "min-fill"))
@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("solver_class", (IndegreeSolver, BudgetSolver), ids=lambda c: c.__name__)
def test_one_decision_protocol(solver_class, seed, strategy):
    G, D = protocol_case(seed, strategy)
    solver = solver_class(G, D)
    chi = solver.solve().chromatic
    assert chi == exact_chi_w(G).chromatic
    assert not any(solver.decide(k) for k in range(1, chi))
    # every accepted decide(k) leaves a valid k-coloring behind
    for k in range(chi, solver.palette + 1):
        assert solver.decide(k)
        witness = solver.witness()
        assert is_valid_coloring(G, witness)
        assert set(witness.values()) <= set(range(1, k + 1))
    k = solver.palette
    for bag, shared in enumerate(solver.shared_set):
        colors = {v: 1 + i % k for i, v in enumerate(sorted(shared))}
        assert solver.shared_key(bag, colors) == tuple(1 + i % k for i in range(len(shared)))
        with pytest.raises(PreconditionError, match="shared set"):
            solver.shared_key(bag, {**colors, G.n + 1: 1})
        if shared:
            with pytest.raises(PreconditionError, match="shared set"):
                solver.shared_key(bag, dict(list(colors.items())[1:]))
            # a color is an int, as check_total_coloring requires; 1.5 lies
            # in 1..k and True equals 1, so only the type refuses them
            for color in (0, k + 1, 1.5, True):
                with pytest.raises(PreconditionError, match=f"outside 1..{k}"):
                    solver.shared_key(bag, {**colors, min(shared): color})
    with pytest.raises(PreconditionError, match=">= 1"):
        solver.decide(0)
    # a float count would color with 1..ceil(k), and True would run as 1
    for k in (2.5, True, "2"):
        with pytest.raises(PreconditionError, match=f"^color count must be an int, got {k!r}$"):
            solver.decide(k)


@pytest.mark.parametrize("solver_class", (IndegreeSolver, BudgetSolver), ids=lambda c: c.__name__)
def test_solve_skips_one_color_only_when_it_must_fail(solver_class):
    """solve() starts at k = 2 exactly when some vertex's whole indegree
    reaches 1, and keeps the answer, witness and memo_stats() of the
    k = 1, 2, ... loop."""
    starts = set()
    for seed in range(16):
        G, D = protocol_case(seed, "min-fill")
        solver = solver_class(G, D)
        asked = []
        solver.decide = lambda k, _decide=solver.decide: asked.append(k) or _decide(k)
        result = solver.solve()
        reference = solver_class(G, D)
        k = next(k for k in range(1, reference.palette + 1) if reference.decide(k))
        assert (result.chromatic, result.witness) == (k, reference.witness())
        assert solver.memo_stats() == reference.memo_stats()
        assert asked[0] == (2 if max_weighted_indegree(G) >= 1 else 1)
        starts.add(asked[0])
    assert starts == {1, 2}


@pytest.mark.parametrize("solver_class", (IndegreeSolver, BudgetSolver), ids=lambda c: c.__name__)
def test_each_solver_checks_through_its_own_module(monkeypatch, solver_class):
    """The benchmark's tracer (perfbench/tracer.py) times decomposition
    and witness checks by wrapping these names in each solver's module,
    so each solver must look them up there, once per solve."""
    calls = {}
    for owner in (fpt_indegree, fpt_budget):
        for name in ("validate_decomposition", "is_valid_coloring"):
            key = f"{owner.__name__}.{name}"
            calls[key] = 0

            def counted(*args, _key=key, _fn=getattr(owner, name)):
                calls[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
    solver_class(*protocol_case(3, "min-fill")).solve()
    own = solver_class.__module__ + "."
    assert calls == {key: int(key.startswith(own)) for key in calls}


@pytest.mark.parametrize("solver_class", (IndegreeSolver, BudgetSolver), ids=lambda c: c.__name__)
def test_witness_needs_an_accepted_decision(solver_class):
    G = random_instance(8, 0.5, seed=3, bits=2)
    solver = solver_class(G, build_decomposition(G, "min-fill"))
    with pytest.raises(PreconditionError, match="returned True"):
        solver.witness()
    chi = solver.solve().chromatic
    assert chi > 1
    assert not solver.decide(chi - 1)
    with pytest.raises(PreconditionError, match="returned True"):
        solver.witness()
    assert solver.decide(chi)
    assert is_valid_coloring(G, solver.witness())


def witness_reads(solver):
    """One witness() of the solver, and the (inherited colors, pick) each
    bag's lookup was asked for, per bag."""
    reads: dict[int, list] = {}
    look_up = solver._bag_colors

    def recording(bag, inherited, pick):
        reads.setdefault(bag, []).append((inherited, pick))
        return look_up(bag, inherited, pick)

    solver._bag_colors = recording
    try:
        return solver.witness(), reads
    finally:
        del solver._bag_colors


def reads_every_bag_once(solver, reads) -> bool:
    return Counter({bag: len(asked) for bag, asked in reads.items()}) == Counter(
        range(len(solver.decomposition.bags))
    )


def stored_slot(solver, bag, inherited, pick):
    """The dict and key holding what witness() reads for bag."""
    if isinstance(solver, IndegreeSolver):
        return solver.memo, (bag, inherited)
    return solver.tables[bag][fpt_budget._first_use(inherited)], pick


def drop_entry(solver, bag, inherited, pick):
    table, key = stored_slot(solver, bag, inherited, pick)
    del table[key]


def change_first_color(solver, bag, inherited, pick):
    # another color in 1..k for the first shared vertex: a real one in
    # the memo, a canonical one (always 1 there) in the budget tables
    table, key = stored_slot(solver, bag, inherited, pick)
    k = solver.k
    if isinstance(solver, IndegreeSolver):
        colors = table[key]
        table[key] = (1 + colors[0] % k, *colors[1:])
    else:
        colors, picks = table[key]
        table[key] = ((1 + colors[0] % k, *colors[1:]), picks)


def free_an_ancestor_vertex(solver, bag, inherited, pick):
    # the bag's first free vertex becomes one the root colors
    order, ns = solver.order[bag], len(inherited)
    solver.order[bag] = (*order[:ns], solver.order[solver.decomposition.root][0], *order[ns + 1 :])


def drop_a_free_vertex(solver, bag, inherited, pick):
    solver.order[bag] = solver.order[bag][:-1]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (drop_entry, r"no stored \w+ for an accepted state of bag {bag}$"),
        (change_first_color, r"^bag {bag} does not keep its inherited colors$"),
        (free_an_ancestor_vertex, r"^vertex \d+ colored twice$"),
        (drop_a_free_vertex, r"^witness not total$"),
    ],
    ids=lambda arg: arg.__name__ if callable(arg) else "",
)
@pytest.mark.parametrize("solver_class", (IndegreeSolver, BudgetSolver), ids=lambda c: c.__name__)
def test_witness_refuses_corrupted_tables(solver_class, corrupt, message):
    """Each check of the root-first read fires on a corruption of what
    an accepted decide(k) stored: a missing entry, stored colors that do
    not start with the inherited ones, a vertex both inherited and free,
    and a vertex no bag colors."""
    G = random_instance(8, 0.3, seed=0, bits=2)
    solver = solver_class(G, build_decomposition(G, "min-fill"))
    assert len(solver.decomposition.bags) >= 3
    assert solver.decide(solver.palette) and solver.k >= 2
    _, reads = witness_reads(solver)
    # a bag below the root that inherits colors and colors a vertex itself
    bag = next(
        bag
        for bag in solver.decomposition.preorder[1:]
        if 0 < len(solver.shared_set[bag]) < len(solver.order[bag])
    )
    corrupt(solver, bag, *reads[bag][0])
    with pytest.raises(AssertionError, match=message.format(bag=bag)):
        solver.witness()
