"""The tree DPs' per-bag loops against their first, plainer form.

`TreeDP`'s bag layout, the indegree DP's `_back` lists and coloring
enumeration, the budget DP's charges, `_minimal` and witness relabel
were rewritten without closures, generator expressions or per-bag sets.
`bruteforce` keeps each in the form it had before, in the units it had
before: every weight times the lcm of all the graph's denominators
(`bruteforce.global_units`).  Here both forms must give the same layout
(the reference's units converted to each head's own), the same
colorings in the same order for every state a solve visits, the same
antichains and the same witness, on the acceptance family, on reshaped
decompositions and on the benchmark's 2 x k ladders.  There, too, each
witness of either DP looks up every bag exactly once.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from test_dp_any_decomposition import reads_every_bag_once, reshaped_decompositions, witness_reads
from wicolor import (
    BudgetSolver,
    IndegreeSolver,
    build_decomposition,
    extended_bags,
    fpt_budget,
    is_valid_coloring,
    min_precision_bits,
    random_instance,
)


def acceptance_case(i: int):
    """Instance i of the acceptance sweep (tests/test_acceptance.py)."""
    n = 2 + i % 11
    bits = 1 + i % 3 if n <= 6 else 1 + i % 2
    p = min(1.0, 2.5 / n) if n <= 6 else 1.25 / n
    G = random_instance(n, p, seed=1000 + i, weight_model="dyadic", bits=bits)
    return G, build_decomposition(G, "exact-small"), bits


def ladder_case(k: int, bits: int):
    """The benchmark's ladder of k columns at `bits` bits."""
    G = bruteforce.dyadic_ladder(k, bits, seed=10 * k + bits)
    return G, build_decomposition(G, "min-fill"), bits


CASES = [pytest.param(*acceptance_case(i), id=f"acceptance-{i}") for i in range(200)] + [
    pytest.param(*ladder_case(k, bits), id=f"ladder-k{k}-b{bits}")
    for k in (8, 16, 32, 64)
    for bits in (1, 2, 3)
]


def check_layout(G, D, bits):
    """Both solvers' layout and arc tables equal the reference ones, with
    each arc's units converted to its head's own."""
    indegree, budget = IndegreeSolver(G, D), BudgetSolver(G, D, bits)
    for solver, tracked in ((indegree, extended_bags(D, G)), (budget, D.bags)):
        shared, order, position, kids = bruteforce.reference_layout(D, tracked)
        assert solver.shared_set == shared
        assert solver.order == order
        assert solver.position == position
        assert solver.kids == kids
    total, _ = bruteforce.global_units(G)

    def own(units, head):
        return units * G.scale[head] // total

    _, order, position, _ = bruteforce.reference_layout(D, extended_bags(D, G))
    back = bruteforce.reference_back(G, D, order, position)
    assert indegree._back == [
        [[(q, h, own(u, order[i][h])) for q, h, u in at] for at in lists]
        for i, lists in enumerate(back)
    ]
    _, order, position, _ = bruteforce.reference_layout(D, D.bags)
    charge_list, charges = bruteforce.reference_charges(G, D, position)
    assert budget.charge_list == [[(t, h, own(u, h)) for t, h, u in at] for at in charge_list]
    charges = [[(a, b, own(u, order[i][b])) for a, b, u in at] for i, at in enumerate(charges)]
    assert [Counter(at) for at in budget._charges] == [Counter(at) for at in charges]


def check_colorings(G, D):
    """Every (k, bag, key) state a solve asks `_colorings` for yields the
    reference's colorings, in the reference's order."""
    solver = IndegreeSolver(G, D)
    enumerate_bag = solver._colorings
    visited = []

    def recording(bag, key):
        visited.append((solver.k, bag, key))
        return enumerate_bag(bag, key)

    solver._colorings = recording
    solver.solve()
    assert visited
    _, order, position, _ = bruteforce.reference_layout(D, extended_bags(D, G))
    back = bruteforce.reference_back(G, D, order, position)
    total, _ = bruteforce.global_units(G)
    for k, bag, key in visited:
        solver.k = k
        got = [tuple(colors) for colors in enumerate_bag(bag, key)]
        reference = bruteforce.reference_colorings(back[bag], total, k, key)
        assert got == [tuple(colors) for colors in reference], (k, bag, key)


def check_witness(G, D, bits):
    """The budget witness of every accepted decide(k) equals the
    reference relabel's, and is read with one lookup per bag."""
    solver = BudgetSolver(G, D, bits)
    chi = solver.solve().chromatic
    for k in range(chi, solver.palette + 1):
        assert solver.decide(k)
        witness, reads = witness_reads(solver)
        assert is_valid_coloring(G, witness)
        assert reads_every_bag_once(solver, reads)
        assert witness == bruteforce.reference_budget_witness(solver)


@pytest.mark.parametrize("G, D, bits", CASES)
def test_layout_matches_the_reference(G, D, bits):
    check_layout(G, D, bits)


@pytest.mark.parametrize("G, D, bits", CASES)
def test_colorings_match_the_reference_on_every_visited_state(G, D, bits):
    check_colorings(G, D)


@pytest.mark.parametrize("G, D, bits", CASES)
def test_budget_witness_matches_the_reference(G, D, bits):
    check_witness(G, D, bits)


@pytest.mark.parametrize("G, D, bits", CASES)
def test_indegree_witness_reads_every_bag_once(G, D, bits):
    solver = IndegreeSolver(G, D)
    chi = solver.solve().chromatic
    for k in range(chi, solver.palette + 1):
        assert solver.decide(k)
        witness, reads = witness_reads(solver)
        assert is_valid_coloring(G, witness)
        assert reads_every_bag_once(solver, reads)


@given(reshaped_decompositions())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_loops_match_the_reference_on_reshaped_decompositions(case):
    G, D = case
    bits = min_precision_bits(G)
    check_layout(G, D, bits)
    check_colorings(G, D)
    check_witness(G, D, bits)


@pytest.mark.parametrize("G, D, bits", CASES[:12])
def test_colorings_match_the_reference_on_every_key(G, D, bits):
    """Also on the keys no solve asks for: every k-coloring of each
    bag's shared prefix, so an inherited prefix at exactly the scale is
    met whatever the search visits."""
    solver = IndegreeSolver(G, D)
    _, order, position, _ = bruteforce.reference_layout(D, extended_bags(D, G))
    backs = bruteforce.reference_back(G, D, order, position)
    total, _ = bruteforce.global_units(G)
    for k in range(1, solver.palette + 1):
        solver.k = k
        for bag, back in enumerate(backs):
            for key in product(range(1, k + 1), repeat=len(solver.shared_set[bag])):
                got = [tuple(colors) for colors in solver._colorings(bag, key)]
                reference = bruteforce.reference_colorings(back, total, k, key)
                assert got == [tuple(colors) for colors in reference], (k, bag, key)


@st.composite
def pair_lists(draw):
    """(vector, origin) pairs over a few vectors of one length, so that
    vectors repeat with different origins."""
    length = draw(st.integers(0, 4))
    pool = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * length), min_size=1, max_size=5, unique=True)
    )
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 9)), max_size=12))


@given(pair_lists())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_minimal_matches_the_reference(pairs):
    got = fpt_budget._minimal(pairs)
    reference = bruteforce.reference_minimal(pairs)
    assert list(got.items()) == list(reference.items())


def test_minimal_of_one_repeated_vector_keeps_its_first_origin():
    pairs = [((2, 1), "a"), ((2, 1), "b"), ((2, 1), "c")]
    assert list(fpt_budget._minimal(pairs).items()) == [((2, 1), "a")]
    assert fpt_budget._minimal([]) == {}
