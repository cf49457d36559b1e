"""The paper's complexity claims, stated as deterministic counts.

Only table sizes are counted, never times, so these tests pass or fail
the same way on any machine.

- Treewidth plus precision bounds the budget DP's state: on the dyadic
  2 x k ladders (width 2 under min-fill), the entries a bag stores stay
  under a constant set by the width and the bits alone, however long
  the ladder.
- A stored demand coordinate of vertex v is a sum of some of v's
  in-arc units, counted in v's own unit 1/scale_v and below scale_v,
  so it takes at most min(scale_v, 2^indeg(v)) distinct values, for
  any rational weights.  On b-bit fixed point weights scale_v <= 2^b.
- Pathwidth alone is not the parameter: the partition gadget has a
  width-2 path decomposition, yet its largest bag table grows with the
  number of elements, whose precision grows with their total.
- The bounds sandwich the optimum beyond the oracle's reach: on the
  ladders and the gadgets, the budget DP's chi lies between
  `bound_report`'s lower bound and each of its upper bounds.

The claim on interval graphs needs an instance family that the
generators do not build yet.
"""

from __future__ import annotations

import random

import pytest

from test_dp_reference_loops import acceptance_case, ladder_case
from wicolor import (
    BudgetSolver,
    bound_report,
    build_decomposition,
    partition_instance,
    random_instance,
)


def first_use_keys(length: int) -> int:
    """Colorings of `length` vertices up to renaming colors (the Bell number)."""
    row = [1]  # Bell triangle
    for _ in range(length):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def bag_entry_bound(shared: int, bits: int) -> int:
    """Most entries a bag sharing `shared` vertices can store: one
    antichain of demand vectors in {0..2^bits-1}^shared per first-use
    key, and an antichain there has at most 2^(bits*(shared-1)) vectors
    (two vectors that agree off the last coordinate are comparable)."""
    return first_use_keys(shared) * (1 << bits * max(shared - 1, 0))


@pytest.mark.parametrize("bits", (1, 2, 3))
def test_ladder_entries_per_bag_do_not_grow_with_length(bits):
    per_bag = {}
    for k in (8, 16, 32, 64, 128):
        G, D, _ = ladder_case(k, bits)
        assert D.width == 2
        solver = BudgetSolver(G, D, bits)
        solver.solve()
        for bag, table in enumerate(solver.tables):
            entries = sum(len(front) for front in table.values())
            assert entries <= bag_entry_bound(len(solver.shared_set[bag]), bits)
        per_bag[k] = solver.memo_stats().color_entries / len(D.bags)
    # the bound above is the constant: width 2 shares at most 2 vertices
    assert max(per_bag.values()) <= bag_entry_bound(2, bits), per_bag


def largest_table(G, D, bits=None) -> int:
    """The most entries one bag stores under decide(2)."""
    solver = BudgetSolver(G, D, bits)
    solver.decide(2)
    return max(sum(len(front) for front in table.values()) for table in solver.tables)


def test_width_two_gadget_tables_grow_with_the_elements():
    gadget = []
    for m in range(4, 17, 2):
        rng = random.Random(5)
        G, D = partition_instance([rng.randint(1, 20) for _ in range(m)])
        assert D.width == 2
        gadget.append(largest_table(G, D))
    assert all(a < b for a, b in zip(gadget, gadget[1:])), gadget
    # the dyadic ladders have width 2 too, and their tables stay bounded
    ladders = [largest_table(*ladder_case(k, 1)) for k in (8, 16, 32, 64)]
    assert max(ladders) <= bag_entry_bound(2, 1) < gadget[-1], (ladders, gadget)


def test_bounds_sandwich_the_budget_optimum():
    cases = [ladder_case(k, bits)[:2] for k in (8, 16, 32, 64) for bits in (1, 2, 3)]
    for m in range(4, 17, 2):
        rng = random.Random(5)
        cases.append(partition_instance([rng.randint(1, 20) for _ in range(m)]))
    chis = []
    for G, D in cases:
        chi = BudgetSolver(G, D).solve().chromatic
        report = bound_report(G, D)
        assert report.lower_chromatic <= chi, (G.n, report)
        uppers = (
            report.upper_degree_weight,
            report.upper_sum_weights,
            report.upper_indegree,
            report.treewidth_cap,
        )
        assert chi <= min(uppers), (G.n, chi, report)
        chis.append((chi, report.treewidth_cap))
    # at m = 14 and 16 the elements' total is odd, so no equal split
    # exists and chi meets the width cap
    assert chis[12:] == [(2, 3)] * 5 + [(3, 3)] * 2, chis


def demand_cases():
    yield from (acceptance_case(i) for i in range(200))
    yield from (ladder_case(k, bits) for k in (8, 16, 32, 64) for bits in (1, 2, 3))
    for seed in range(200):  # denominators 1..10: no common precision
        n = 3 + seed % 10
        G = random_instance(n, 0.25, seed=3100 + seed, weight_model="uniform-rational")
        yield G, build_decomposition(G, "exact-small"), None


def test_demand_coordinates_take_few_values():
    checked = reached = 0
    for G, D, bits in demand_cases():
        solver = BudgetSolver(G, D, bits)
        for k in range(1, solver.palette + 1):
            solver.decide(k)
            for bag, table in enumerate(solver.tables):
                for j, v in enumerate(solver.order[bag][: len(solver.shared_set[bag])]):
                    values = {vec[j] for front in table.values() for vec in front}
                    bound = min(G.scale[v], 1 << len(G.in_neighbors[v]))
                    assert len(values) <= bound, (bag, v)
                    checked += 1
                    reached += len(values) == bound
    # the tables are not empty, and the bound is reached, so it is tight
    assert checked > 1000 and reached > 100, (checked, reached)
