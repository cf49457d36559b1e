"""Release acceptance gate: nine end-to-end checks.

Each test covers one numbered criterion and prints a single
"criterion N (...): PASS" line when it holds (the line flips to FAIL
before the assertion error surfaces otherwise).  Criteria with a time
budget measure wall time and enforce it here, so a pathological
regression fails loudly instead of just running long.

The shared 200-instance sweep (criteria 3, 6, 8) fixes a deterministic
family: instance i has n = 2 + (i % 11) vertices, dyadic weights of
b = 1 + (i % 3) bits (n <= 6) or 1 + (i % 2) bits (n > 6), arc
probability 2.5/n clamped to 1 (n <= 6) or 1.25/n, and seed 1000 + i.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

import bruteforce
from wicolor import (
    BudgetSolver,
    IndegreeSolver,
    TreeDecomposition,
    UndirectedWeightedGraph,
    WeightedDigraph,
    bound_report,
    build_decomposition,
    coloring_violations,
    complete_embed,
    embed_undirected,
    exact_chi_w,
    greedy_recolor_trace,
    is_valid_coloring,
    parse_coloring,
    parse_digraph,
    parse_undirected,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    reduce_defective,
    solve_fpt_budget,
    solve_fpt_indegree,
    subcubic_two_coloring_trace,
    underlying_graph,
    upper_bound_degree_weight,
    validate_decomposition,
)
from wicolor.data import load_text

F = Fraction


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


@dataclass
class SweepRecord:
    index: int
    graph: WeightedDigraph
    decomposition: TreeDecomposition
    bits: int
    exact: object
    indegree: object
    budget: object
    indegree_solver: IndegreeSolver
    budget_solver: BudgetSolver


@pytest.fixture(scope="session")
def sweep() -> tuple[list[SweepRecord], float]:
    records = []
    start = time.perf_counter()
    for i in range(200):
        n = 2 + i % 11
        bits = 1 + i % 3 if n <= 6 else 1 + i % 2
        p = min(1.0, 2.5 / n) if n <= 6 else 1.25 / n
        G = random_instance(n, p, seed=1000 + i, weight_model="dyadic", bits=bits)
        D = build_decomposition(G, "exact-small")
        indegree_solver = IndegreeSolver(G, D)
        budget_solver = BudgetSolver(G, D, bits)
        records.append(
            SweepRecord(
                index=i,
                graph=G,
                decomposition=D,
                bits=bits,
                exact=exact_chi_w(G),
                indegree=indegree_solver.solve(),
                budget=budget_solver.solve(),
                indegree_solver=indegree_solver,
                budget_solver=budget_solver,
            )
        )
    return records, time.perf_counter() - start


def test_criterion_1_golden_file_fidelity():
    with criterion(1, "golden files, validation under 1 ms"):
        G = parse_digraph(load_text("golden5.wig"))
        valid = parse_coloring(load_text("golden5_valid.col"))
        invalid = parse_coloring(load_text("golden5_invalid.col"))

        coloring_violations(G, valid)  # warm caches before timing
        start = time.perf_counter()
        good = coloring_violations(G, valid)
        bad = coloring_violations(G, invalid)
        elapsed = time.perf_counter() - start

        assert good == []
        # the violated vertex collects 7/10 + 3/10 = exactly 1
        assert bad == [(3, F(1))]
        assert elapsed < 0.001, f"validation took {elapsed * 1000:.3f} ms"


def test_criterion_2_prism_instances():
    with criterion(2, "prism solved by all methods, relaxed variant two-colored, under 5 s"):
        start = time.perf_counter()
        prism = parse_undirected(load_text("prism10.wug"))
        G = embed_undirected(prism)
        D = build_decomposition(G, "exact-small")
        assert exact_chi_w(G).chromatic == 3
        assert solve_fpt_indegree(G, D).chromatic == 3
        assert solve_fpt_budget(G, D, bits=1).chromatic == 3

        relaxed = UndirectedWeightedGraph(
            10,
            [
                (u, v, F(9, 10) if w == 1 else w)
                for u, v, w in prism.edges
            ],
        )
        assert exact_chi_w(embed_undirected(relaxed)).chromatic == 2
        coloring, flips = subcubic_two_coloring_trace(relaxed)
        assert flips <= len(relaxed.edges)
        assert is_valid_coloring(embed_undirected(relaxed), coloring)
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.1f} s"


def test_criterion_3_solver_agreement(sweep):
    with criterion(3, "200-instance sweep, three solvers agree, under 10 min"):
        records, elapsed = sweep
        assert len(records) == 200
        for r in records:
            assert r.graph.n <= 12
            assert r.bits <= 3
            assert (
                r.exact.chromatic == r.indegree.chromatic == r.budget.chromatic
            ), f"instance {r.index} disagrees"
            for result in (r.exact, r.indegree, r.budget):
                assert is_valid_coloring(r.graph, result.witness)
                assert max(result.witness.values(), default=1) == result.chromatic
        assert elapsed < 600, f"sweep took {elapsed:.1f} s"


def _all_graphs(n: int):
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = [
            (u, v, F(1)) for i, (u, v) in enumerate(pairs) if bits >> i & 1
        ]
        yield UndirectedWeightedGraph(n, edges)


def _sampled_graphs(n: int, count: int, seed: int):
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    for _ in range(count):
        edges = [(u, v, F(1)) for u, v in pairs if rng.random() < 0.5]
        yield UndirectedWeightedGraph(n, edges)


def test_criterion_4_defective_reduction():
    with criterion(4, "defective reduction, zero mismatches, under 10 min"):
        start = time.perf_counter()
        cases = 0
        spot_rng = random.Random(97)
        for H in (
            graph
            for n in range(1, 6)
            for graph in _all_graphs(n)
        ):
            cases += _check_reduction(H, spot_rng)
        for H in _sampled_graphs(6, 500, seed=20260824):
            cases += _check_reduction(H, spot_rng)
        assert cases == (1 + 2 + 8 + 64 + 1024 + 500) * 3 * 4
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"took {elapsed:.1f} s"


def _check_reduction(H: UndirectedWeightedGraph, spot_rng: random.Random) -> int:
    checked = 0
    for d in (0, 1, 2):
        threshold = bruteforce.brute_defective_number(H, d)
        reduction_threshold = exact_chi_w(reduce_defective(H, d)).chromatic
        for k in (1, 2, 3, 4):
            defective_ok = k >= threshold
            reduction_ok = k >= reduction_threshold
            assert defective_ok == reduction_ok, (
                f"mismatch n={H.n} edges={H.edges} d={d} k={k}"
            )
            checked += 1
        # spot-check the thresholds against direct per-k enumeration
        if spot_rng.random() < 0.01:
            for k in (1, 2, 3, 4):
                assert bruteforce.brute_defective_ok(H, d, k) == (k >= threshold)
    return checked


def test_criterion_5_partition_gadgets():
    with criterion(5, "partition gadget on all small multisets, under 5 min"):
        start = time.perf_counter()
        count = 0
        for size in range(1, 7):
            for elements in combinations_with_replacement(range(1, 9), size):
                G, D = partition_instance(list(elements))
                two_colorable = exact_chi_w(G, k_limit=2) is not None
                assert two_colorable == bruteforce.brute_partitionable(elements), (
                    f"elements {elements}"
                )
                assert D.width == 2
                assert validate_decomposition(G, D) == []
                count += 1
        assert count == 3002
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"took {elapsed:.1f} s"


def test_criterion_6_bound_sandwich(sweep):
    with criterion(6, "bounds sandwich the optimum on the sweep"):
        records, _ = sweep
        for r in records:
            report = bound_report(r.graph, r.decomposition)
            chi = r.exact.chromatic
            assert report.lower_chromatic <= chi, f"instance {r.index}"
            for upper in (
                report.upper_degree_weight,
                report.upper_sum_weights,
                report.upper_indegree,
                report.treewidth_cap,
            ):
                assert chi <= upper, f"instance {r.index}"


def test_criterion_7_constructive_procedures():
    with criterion(7, "greedy recolor and sub-cubic two-coloring, under 1 min"):
        start = time.perf_counter()
        for i in range(100):
            G = random_instance(4 + i % 7, 0.45, seed=3000 + i, bits=3)
            k = upper_bound_degree_weight(G)
            coloring, steps = greedy_recolor_trace(G, k)
            assert steps <= len(underlying_graph(G).edges)
            assert is_valid_coloring(G, coloring)
            assert max(coloring.values()) <= k
        for i in range(100):
            H = random_subcubic_instance(
                5 + i % 8, seed=3100 + i, weight_one_probability=0.0
            )
            coloring, flips = subcubic_two_coloring_trace(H)
            assert flips <= len(H.edges)
            assert set(coloring.values()) <= {1, 2}
            assert is_valid_coloring(embed_undirected(H), coloring)
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_8_memo_tables_within_caps(sweep):
    with criterion(8, "memo tables within analytical caps on the sweep"):
        records, _ = sweep
        for r in records:
            D = r.decomposition
            palette = D.width + 1
            stats = r.indegree_solver.memo_stats()
            cap = sum(
                palette ** len(shared) for shared in r.indegree_solver.shared_set
            )
            assert stats.entries <= cap, f"instance {r.index}"

            budget_stats = r.budget_solver.memo_stats()
            values = 1 << r.bits
            color_cap = sum(
                (palette * values) ** len(shared)
                for shared in r.budget_solver.shared_set
            )
            distribute_cap = sum(
                len(D.children[i]) * (palette * values) ** len(D.bags[i])
                for i in range(len(D.bags))
            )
            assert budget_stats.color_entries <= color_cap, f"instance {r.index}"
            assert budget_stats.distribute_entries <= distribute_cap, (
                f"instance {r.index}"
            )


def test_criterion_9_complete_embedding_invariance():
    with criterion(9, "zero-padding never changes the optimum"):
        for i in range(100):
            G = random_instance(3 + i % 8, 0.35, seed=3200 + i, bits=3)
            padded = complete_embed(G)
            before = exact_chi_w(G)
            after = exact_chi_w(padded)
            assert before.chromatic == after.chromatic, f"instance {i}"
            assert is_valid_coloring(padded, before.witness)
            assert is_valid_coloring(G, after.witness)
