from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from test_dp_any_decomposition import reads_every_bag_once, witness_reads
from wicolor import (
    BudgetSolver,
    IndegreeSolver,
    PreconditionError,
    SolveResult,
    TreeDecomposition,
    WeightedDigraph,
    build_decomposition,
    check_fixed_point,
    embed_undirected,
    exact_chi_w,
    is_valid_coloring,
    min_precision_bits,
    parse_coloring,
    random_instance,
    random_subcubic_instance,
    serialize_digraph,
    solve_fpt_budget,
    solve_fpt_indegree,
)
from wicolor import cli
from wicolor.cli import main
from wicolor.fpt_budget import _first_use

F = Fraction


def fan_instance() -> tuple[WeightedDigraph, TreeDecomposition]:
    """Four arcs of weight 1/2 into vertex 1, children split 2|3 and 4|5."""
    G = WeightedDigraph(5, [(j, 1, F(1, 2)) for j in (2, 3, 4, 5)])
    D = TreeDecomposition([{1}, {1, 2, 3}, {1, 4, 5}], [(0, 1), (0, 2)])
    return G, D


def star_instance(children: int, bits: int, seed: int) -> tuple[WeightedDigraph, TreeDecomposition]:
    """Hub bag {1} with `children` leaf bags {1, a, b}.  Both a and b
    feed vertex 1, and a heavy arc between them often keeps them apart,
    so at two colors every leaf draws on vertex 1's one budget."""
    rng = random.Random(seed)
    scale = 1 << bits
    arcs = []
    bags = [{1}]
    for i in range(children):
        a, b = 2 + 2 * i, 3 + 2 * i
        bags.append({1, a, b})
        arcs += [(v, 1, F(rng.randint(1, scale // 2), scale)) for v in (a, b)]
        arcs += [(u, v, F(1)) for u, v in ((a, b), (b, a)) if rng.random() < 0.5]
        arcs += [(1, v, F(rng.randint(1, scale), scale)) for v in (a, b) if rng.random() < 0.5]
    G = WeightedDigraph(1 + 2 * children, arcs)
    return G, TreeDecomposition(bags, [(0, i) for i in range(1, children + 1)])


def ladder(k: int, scale: int, seed: int) -> WeightedDigraph:
    """The 2 x k ladder with weights m/scale, m in 1..scale, on both arc
    directions of every edge; column j holds vertices 2j+1 and 2j+2, so
    min-fill eliminates it as a chain of depth 2k-1."""
    rng = random.Random(seed)
    arcs = []
    for j in range(k):
        top, bottom = 2 * j + 1, 2 * j + 2
        pairs = [(top, bottom)]
        if j + 1 < k:
            pairs += [(top, top + 2), (bottom, bottom + 2)]
        for u, v in pairs:
            arcs.append((u, v, F(rng.randint(1, scale), scale)))
            arcs.append((v, u, F(rng.randint(1, scale), scale)))
    return WeightedDigraph(2 * k, arcs)


def two_feeders() -> tuple[WeightedDigraph, TreeDecomposition]:
    """Two arcs of weight 1/2 into vertex 1, one per child bag."""
    G = WeightedDigraph(3, [(2, 1, F(1, 2)), (3, 1, F(1, 2))])
    D = TreeDecomposition([{1}, {1, 2}, {1, 3}], [(0, 1), (0, 2)])
    return G, D


class TestFixedPointChecks:
    def test_dyadic_weights_pass(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(3, 4))])
        assert check_fixed_point(G, 2) is None

    def test_insufficient_bits_reported(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(3, 4))])
        assert check_fixed_point(G, 1) == (2, 3, F(3, 4))

    def test_non_dyadic_reported(self):
        G = WeightedDigraph(2, [(1, 2, F(1, 3))])
        assert check_fixed_point(G, 5) == (1, 2, F(1, 3))
        assert check_fixed_point(G, 10) == (1, 2, F(1, 3))

    def test_first_offending_arc_in_arc_order(self):
        # vertex 1 fails first, but arc (1, 3) comes before its in-arc (2, 1)
        G = WeightedDigraph(3, [(2, 1, F(1, 4)), (1, 3, F(1, 3)), (1, 2, F(1, 2))])
        assert check_fixed_point(G, 1) == (1, 3, F(1, 3))
        assert check_fixed_point(G, 2) == (1, 3, F(1, 3))

    def test_bits_must_be_positive(self):
        with pytest.raises(PreconditionError):
            check_fixed_point(WeightedDigraph(1), 0)

    def test_min_precision_examples(self):
        assert min_precision_bits(WeightedDigraph(2)) == 1
        assert min_precision_bits(WeightedDigraph(2, [(1, 2, F(1, 2))])) == 1
        assert min_precision_bits(WeightedDigraph(2, [(1, 2, F(1))])) == 1
        assert min_precision_bits(WeightedDigraph(2, [(1, 2, F(0))])) == 1
        assert (
            min_precision_bits(
                WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(3, 8))])
            )
            == 3
        )
        assert min_precision_bits(WeightedDigraph(2, [(1, 2, F(7, 10))])) is None

    def test_min_precision_is_sufficient_and_tight(self):
        for seed in range(15):
            G = random_instance(6, 0.5, seed=1900 + seed, bits=3)
            bits = min_precision_bits(G)
            assert check_fixed_point(G, bits) is None
            if bits > 1:
                assert check_fixed_point(G, bits - 1) is not None


class TestSmallExamples:
    def test_single_heavy_arc(self):
        G = WeightedDigraph(2, [(1, 2, F(1))])
        solver = BudgetSolver(G, TreeDecomposition([{1, 2}]), 1)
        assert not solver.decide(1)
        assert solver.decide(2)
        assert solver.solve().chromatic == 2

    def test_single_light_arc(self):
        G = WeightedDigraph(2, [(1, 2, F(1, 2))])
        solver = BudgetSolver(G, TreeDecomposition([{1, 2}]), 1)
        assert solver.decide(1)
        assert solver.solve().chromatic == 1

    def test_heavy_path(self):
        G = WeightedDigraph(3, [(1, 2, F(1)), (2, 3, F(1))])
        D = TreeDecomposition([{1, 2}, {2, 3}], [(0, 1)])
        result = BudgetSolver(G, D, 1).solve()
        assert result.chromatic == 2
        assert is_valid_coloring(G, result.witness)

    def test_two_feeders_value(self):
        G, D = two_feeders()
        result = BudgetSolver(G, D, 2).solve()
        assert result.chromatic == 2
        assert result.chromatic == exact_chi_w(G).chromatic

    def test_fan_value(self):
        G, D = fan_instance()
        result = BudgetSolver(G, D, 2).solve()
        assert result.chromatic == 2
        assert result.chromatic == exact_chi_w(G).chromatic

    @pytest.mark.parametrize("strategy", ["min-degree", "min-fill", "exact-small"])
    def test_empty_graph_needs_one_color(self, strategy):
        G = WeightedDigraph(0)
        D = build_decomposition(G, strategy)
        assert D.width == -1
        assert BudgetSolver(G, D, 1).solve() == exact_chi_w(G) == SolveResult(1, {})

    def test_prism(self, prism_digraph):
        D = build_decomposition(prism_digraph, "exact-small")
        result = BudgetSolver(prism_digraph, D, 1).solve()
        assert result.chromatic == 3
        assert is_valid_coloring(prism_digraph, result.witness)

    def test_no_shared_vertices_with_child(self):
        G = WeightedDigraph(3, [(2, 3, F(1))])
        D = TreeDecomposition([{1}, {2, 3}], [(0, 1)])
        solver = BudgetSolver(G, D, 1)
        assert not solver.decide(1)
        assert solver.decide(2)
        # the child shares nothing, so its table has the one empty key
        assert solver.demands(1, {}) == [{}]
        assert solver.solve().chromatic == 2


class TestDistribute:
    def test_budget_cannot_be_spent_twice(self):
        # vertex 1 takes less than 1; each child needs 1/2 at vertex 1 to
        # stay single-colored, so one child always pays with a second color
        G, D = two_feeders()
        solver = BudgetSolver(G, D, 2)
        assert not solver.decide(1)
        assert solver.demands(1, {1: 1}) == [{1: F(1, 2)}]  # each child alone fits
        assert solver.demands(2, {1: 1}) == [{1: F(1, 2)}]
        assert solver.decide(2)

    def test_generous_budget_allows_one_color(self):
        G = WeightedDigraph(3, [(2, 1, F(1, 4)), (3, 1, F(1, 4))])
        D = TreeDecomposition([{1}, {1, 2}, {1, 3}], [(0, 1), (0, 2)])
        # each child spends 1 unit; 3 units cover both
        assert BudgetSolver(G, D, 2).decide(1)
        # a root-bag arc of 2 units leaves 1 unit: one child only
        G = WeightedDigraph(4, [(2, 1, F(1, 4)), (3, 1, F(1, 4)), (4, 1, F(2, 4))])
        D = TreeDecomposition([{1, 4}, {1, 2}, {1, 3}], [(0, 1), (0, 2)])
        solver = BudgetSolver(G, D, 2)
        assert not solver.decide(1)
        assert solver.solve().chromatic == 2 == exact_chi_w(G).chromatic

    def test_past_last_child_is_zero(self):
        G, D = two_feeders()
        solver = BudgetSolver(G, D, 2)
        solver.decide(2)
        leaf = 1
        # with no children past its own charges, a leaf adds nothing:
        # colored apart from vertex 2 it charges nothing; sharing
        # a color costs 1/2, which the zero vector dominates
        assert solver.demands(leaf, {1: 1}) == [{1: 0}]
        assert solver.demands(leaf, {1: 2}) == [{1: 0}]
        solver.decide(1)
        assert solver.demands(leaf, {1: 1}) == [{1: F(1, 2)}]

    def test_color_count_must_be_positive(self):
        G, D = two_feeders()
        solver = BudgetSolver(G, D, 2)
        with pytest.raises(PreconditionError):
            solver.decide(0)

    def test_matches_brute_force_over_all_splits(self):
        # independent check of the demand sums: enumerate every way to
        # hand out vertex 1's budget to the two children, computing child
        # feasibility directly from the definition
        G, D = two_feeders()
        bits = 2
        full = (1 << bits) - 1
        units = 2  # 1/2 at 2 bits

        def child_value(budget: int) -> int:
            # free vertex may share color 1 (spending `units`) or differ
            return 1 if budget >= units else 2

        best = min(
            max(child_value(s1), child_value(s2))
            for s1 in range(full + 1)
            for s2 in range(full + 1)
            if s1 + s2 <= full
        )
        assert BudgetSolver(G, D, bits).solve().chromatic == best == 2


class TestSharedBudget:
    @pytest.mark.parametrize("children", [3, 4, 5])
    def test_star_children_share_the_hub_budget(self, children):
        for seed in range(6):
            bits = 2 + seed % 2
            G, D = star_instance(children, bits, seed=2500 + 10 * children + seed)
            expected = exact_chi_w(G).chromatic
            for root in range(len(D.bags)):
                result = BudgetSolver(G, D.root_at(root), bits).solve()
                assert result.chromatic == expected, (children, seed, root)
                assert is_valid_coloring(G, result.witness)

    def test_star_needs_the_split(self):
        # four leaves each charge vertex 1 a weight of 1/2: each leaf
        # alone fits one color, no two leaves together do
        G = WeightedDigraph(9, [(v, 1, F(1, 4)) for v in range(2, 10)])
        D = TreeDecomposition(
            [{1}] + [{1, 2 + 2 * i, 3 + 2 * i} for i in range(4)], [(0, i) for i in range(1, 5)]
        )
        solver = BudgetSolver(G, D, 2)
        assert not solver.decide(1)
        assert all(solver.demands(leaf, {1: 1}) == [{1: F(1, 2)}] for leaf in range(1, 5))
        assert solver.solve().chromatic == exact_chi_w(G).chromatic == 2


class TestLongChains:
    """The 800-vertex ladder decomposes into a chain of 800 bags."""

    CHAINS = [
        pytest.param("fpt-budget", 1, id="1"),
        pytest.param("fpt-budget", 3, id="3"),
        pytest.param("fpt-indegree", 1, id="fpt-indegree"),
    ]

    @pytest.mark.parametrize("method,bits", CHAINS)
    def test_library_solves_the_chain(self, method, bits):
        G = ladder(400, 1 << bits, seed=4000 + bits)
        D = build_decomposition(G, "min-fill")
        solve = solve_fpt_budget if method == "fpt-budget" else solve_fpt_indegree
        result = solve(G, D)
        assert result.chromatic == 2
        assert is_valid_coloring(G, result.witness)
        assert not is_valid_coloring(G, {v: 1 for v in G.vertices})

    @pytest.mark.parametrize("method,bits", CHAINS)
    def test_cli_solves_the_chain(self, method, bits, tmp_path, capsys):
        G = ladder(400, 1 << bits, seed=4000 + bits)
        graph, out = tmp_path / "ladder.wig", tmp_path / "ladder.col"
        graph.write_text(serialize_digraph(G), encoding="utf-8")
        code = main(["solve", str(graph), "--method", method, "--out", str(out)])
        assert code == 0
        assert f"solver={method} chromatic=2" in capsys.readouterr().out
        assert is_valid_coloring(G, parse_coloring(out.read_text(encoding="utf-8")))

    def test_auto_solves_a_rational_chain(self, tmp_path, capsys, monkeypatch):
        # once the oracle gives up, auto runs the budget DP, which counts
        # tenths in each vertex's own unit
        monkeypatch.setattr(cli, "ORACLE_WORK_BUDGET", 0)
        G = ladder(128, 10, seed=1280)
        graph, out = tmp_path / "ladder.wig", tmp_path / "ladder.col"
        graph.write_text(serialize_digraph(G), encoding="utf-8")
        assert main(["solve", str(graph), "--out", str(out)]) == 0
        assert "solver=fpt-budget chromatic=2 " in capsys.readouterr().out
        assert is_valid_coloring(G, parse_coloring(out.read_text(encoding="utf-8")))
        assert not is_valid_coloring(G, {v: 1 for v in G.vertices})

    def test_auto_answers_a_rational_chain_from_the_oracle(self, tmp_path, capsys):
        G = ladder(128, 10, seed=1280)
        graph, out = tmp_path / "ladder.wig", tmp_path / "ladder.col"
        graph.write_text(serialize_digraph(G), encoding="utf-8")
        assert main(["solve", str(graph), "--out", str(out), "--stats"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("solver=exact chromatic=2 ")
        assert "oracle_gave_up" not in line
        assert is_valid_coloring(G, parse_coloring(out.read_text(encoding="utf-8")))

    def test_oracle_solves_a_long_chain_without_recursion(self):
        G = ladder(1000, 2, seed=1000)
        result = exact_chi_w(G, max_n=10**6)
        assert result.chromatic == 2
        assert is_valid_coloring(G, result.witness)


OPTIMIZED_SCRIPT = """
import sys
from fractions import Fraction
from wicolor import TreeDecomposition, WeightedDigraph, cli, fpt_budget, fpt_indegree

assert False, "assert statements must be stripped"
G = WeightedDigraph(2, [(1, 2, Fraction(1, 2))])
D = TreeDecomposition([{1, 2}])
# the child bag {2} inherits vertex 2's color; its stored color is changed
D2 = TreeDecomposition([{1, 2}, {2}], [(0, 1)])


def corrupted_memo():
    solver = fpt_indegree.IndegreeSolver(G, D2)
    solver.decide(2)
    for (bag, key), colors in solver.memo.items():
        if bag == 1 and colors is not None:
            solver.memo[bag, key] = (3 - colors[0], *colors[1:])
    return solver.witness()


def corrupted_tables():
    solver = fpt_budget.BudgetSolver(G, D2, 1)
    solver.decide(2)
    for front in solver.tables[1].values():
        for demand, (colors, picks) in front.items():
            front[demand] = ((2, *colors[1:]), picks)
    return solver.witness()


fpt_indegree.is_valid_coloring = fpt_budget.is_valid_coloring = lambda G, c: False
cli.exact_chi_w = lambda G, **limits: None
runs = {
    "fpt-indegree-memo": corrupted_memo,
    "fpt-budget-tables": corrupted_tables,
    "fpt-indegree": lambda: fpt_indegree.IndegreeSolver(G, D).solve(),
    "fpt-budget": lambda: fpt_budget.BudgetSolver(G, D, 1).solve(),
    "cli-exact": lambda: cli.main(["solve", sys.argv[1], "--method", "exact"]),
}
for name, run in runs.items():
    try:
        run()
    except AssertionError as exc:
        print(name, "raised", exc)
    else:
        print(name, "returned")
"""


def test_witness_checks_survive_optimized_mode(tmp_path):
    graph = tmp_path / "g.wig"
    graph.write_text("p wig 2 1\ne 1 2 1/2\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, str(graph)],
        capture_output=True,
        text=True,
        env={"PATH": "", "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if not line.startswith("instance=")]
    assert [line.split()[:2] for line in lines] == [
        ["fpt-indegree-memo", "raised"],
        ["fpt-budget-tables", "raised"],
        ["fpt-indegree", "raised"],
        ["fpt-budget", "raised"],
        ["cli-exact", "raised"],
    ], proc.stdout
    assert all(line.endswith("does not keep its inherited colors") for line in lines[:2])


class TestPreconditions:
    def test_invalid_decomposition_rejected(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(1, 2))])
        with pytest.raises(PreconditionError, match="decomposition invalid"):
            BudgetSolver(G, TreeDecomposition([{1, 2}]), 1)

    def test_vertex_outside_the_graph_rejected(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(1, 2))])
        with pytest.raises(PreconditionError, match="outside 1..3"):
            BudgetSolver(G, TreeDecomposition([{1, 2, 3, 5}]), 1)

    def test_wrong_precision_rejected(self):
        G = WeightedDigraph(2, [(1, 2, F(3, 4))])
        with pytest.raises(PreconditionError, match="fixed point"):
            BudgetSolver(G, TreeDecomposition([{1, 2}]), 1)

    def test_coarse_bits_refused_naming_the_arc(self, golden5):
        # golden5's weights are fifths and tenths: no precision fits them
        D = build_decomposition(golden5, "exact-small")
        for bits in (1, 4, 10):
            arc = next((t, h, w) for t, h, w in golden5.arcs if (1 << bits) % w.denominator)
            with pytest.raises(PreconditionError) as refused:
                BudgetSolver(golden5, D, bits)
            assert refused.value.witness == arc
            assert str(refused.value).startswith(
                f"arc ({arc[0]}, {arc[1]}) weight {arc[2]} is not {bits}-bit fixed point"
            )

    def test_bits_change_nothing(self, prism_digraph):
        # the units are each vertex's own whether or not bits are given
        D = build_decomposition(prism_digraph, "min-fill")
        omitted = BudgetSolver(prism_digraph, D)
        bits = min_precision_bits(prism_digraph)
        for given_bits in (bits, bits + 2):
            given = BudgetSolver(prism_digraph, D, given_bits)
            assert omitted.solve() == given.solve()
            assert omitted.memo_stats() == given.memo_stats()
            assert omitted.tables == given.tables

    def test_solver_takes_non_dyadic_weights_without_bits(self, golden5):
        solver = BudgetSolver(golden5, build_decomposition(golden5, "exact-small"))
        result = solver.solve()
        assert result.chromatic == exact_chi_w(golden5).chromatic == 2
        assert is_valid_coloring(golden5, result.witness)

    def test_non_dyadic_solved_by_the_function(self, golden5):
        D = build_decomposition(golden5, "exact-small")
        assert solve_fpt_budget(golden5, D).chromatic == 2

    def test_autodetected_bits(self):
        G = WeightedDigraph(3, [(1, 2, F(1, 2)), (2, 3, F(3, 8))])
        D = build_decomposition(G, "exact-small")
        assert solve_fpt_budget(G, D).chromatic == exact_chi_w(G).chromatic

    def test_demands_require_shared_cover(self):
        G, D = two_feeders()
        solver = BudgetSolver(G, D, 2)
        solver.decide(2)
        with pytest.raises(PreconditionError, match="shared set"):
            solver.demands(1, {})
        with pytest.raises(PreconditionError, match="shared set"):
            solver.demands(1, {1: 1, 2: 1})


class TestWitnessFromTheTables:
    def test_each_entry_records_a_coloring_and_child_vectors(self):
        G = random_instance(10, 0.5, seed=5, bits=1)
        solver = BudgetSolver(G, build_decomposition(G, "exact-small"), 1)
        solver.solve()
        for bag, table in enumerate(solver.tables):
            ns = len(solver.shared_set[bag])
            for key, front in table.items():
                for demand, (colors, picks) in front.items():
                    assert colors[:ns] == key and len(demand) == ns
                    assert len(picks) == len(solver.kids[bag])
                    for (child, pos), pick in zip(solver.kids[bag], picks):
                        child_key = tuple(colors[p] for p in pos)
                        assert pick in solver.tables[child][_first_use(child_key)]

    def test_a_missing_entry_names_its_bag(self):
        G = random_instance(10, 0.5, seed=5, bits=1)
        solver = BudgetSolver(G, build_decomposition(G, "exact-small"), 1)
        witness = solver.solve().witness
        root = solver.decomposition.root
        _, picks = solver.tables[root][()][()]
        (child, _), demand = solver.kids[root][0], picks[0]
        shared = solver.order[child][: len(solver.shared_set[child])]
        key = _first_use(tuple(witness[v] for v in shared))
        del solver.tables[child][key][demand]
        with pytest.raises(AssertionError, match=rf"bag {child}$"):
            solver.witness()


class TestBenchLadders:
    """The benchmark's 2 x k ladders: min-fill chains of depth 2k-1."""

    @pytest.mark.parametrize("bits", (1, 2, 3))
    @pytest.mark.parametrize("k", (8, 16, 32, 64, 128))
    def test_budget_agrees_with_indegree(self, k, bits):
        G = ladder(k, 1 << bits, seed=10 * k + bits)
        D = build_decomposition(G, "min-fill")
        solver = BudgetSolver(G, D, bits)
        result = solver.solve()
        assert result.chromatic == solve_fpt_indegree(G, D).chromatic
        assert is_valid_coloring(G, result.witness)
        assert reads_every_bag_once(solver, witness_reads(solver)[1])


class TestChargingDiscipline:
    def test_every_bag_read_once_during_replay(self, prism_digraph):
        D = build_decomposition(prism_digraph, "exact-small")
        solver = BudgetSolver(prism_digraph, D, 1)
        solver.solve()
        assert reads_every_bag_once(solver, witness_reads(solver)[1])

    def test_reads_are_per_witness(self, prism_digraph):
        D = build_decomposition(prism_digraph, "exact-small")
        solver = BudgetSolver(prism_digraph, D, 1)
        solver.solve()
        first = witness_reads(solver)
        assert witness_reads(solver) == first
        assert reads_every_bag_once(solver, first[1])

    def test_charge_lists_partition_the_arcs(self):
        for seed in range(15):
            G = random_instance(8, 0.4, seed=2000 + seed, bits=2)
            D = build_decomposition(G, "min-fill")
            solver = BudgetSolver(G, D, 2)
            charged = [arc for charges in solver.charge_list for arc in charges]
            assert sorted((t, h) for t, h, _ in charged) == sorted(
                (t, h) for t, h, _ in G.arcs
            )

    def test_zero_weight_arcs_appear_in_charge_lists(self):
        G = WeightedDigraph(2, [(1, 2, F(0))])
        solver = BudgetSolver(G, TreeDecomposition([{1, 2}]), 1)
        assert solver.charge_list[0] == [(1, 2, 0)]
        assert solver.solve().chromatic == 1


class TestAgainstOracle:
    def test_random_instances(self):
        for seed in range(40):
            bits = 1 + seed % 2
            G = random_instance(7, 0.45, seed=2100 + seed, bits=bits)
            D = build_decomposition(G, "exact-small")
            result = BudgetSolver(G, D, bits).solve()
            assert result.chromatic == exact_chi_w(G).chromatic
            assert is_valid_coloring(G, result.witness)
            assert max(result.witness.values()) == result.chromatic
            assert result.chromatic <= D.width + 1

    def test_agrees_with_indegree_solver(self):
        for seed in range(12):
            G = random_instance(7, 0.35, seed=2200 + seed, bits=2)
            D = build_decomposition(G, "exact-small")
            assert (
                BudgetSolver(G, D, 2).solve().chromatic
                == IndegreeSolver(G, D).solve().chromatic
            )

    def test_root_choice_does_not_matter(self):
        G = random_instance(6, 0.5, seed=43, bits=1)
        D = build_decomposition(G, "exact-small")
        values = {
            BudgetSolver(G, D.root_at(i), 1).solve().chromatic
            for i in range(len(D.bags))
        }
        assert values == {exact_chi_w(G).chromatic}

    def test_uniform_rational_instances(self):
        # any rational weights, each vertex in its own unit: the same
        # chi as the oracle and the indegree DP, with a valid witness
        chis = set()
        for seed in range(200):
            n = 3 + seed % 10
            G = random_instance(n, 0.4, seed=3100 + seed, weight_model="uniform-rational")
            D = build_decomposition(G, "exact-small")
            result = BudgetSolver(G, D).solve()
            assert result.chromatic == exact_chi_w(G).chromatic, seed
            assert result.chromatic == IndegreeSolver(G, D).solve().chromatic, seed
            assert is_valid_coloring(G, result.witness)
            chis.add(result.chromatic)
        assert chis == {1, 2, 3, 4}

    def test_tenths_subcubic_instances(self):
        for seed in range(60):
            G = embed_undirected(random_subcubic_instance(6 + seed % 11, seed=3300 + seed))
            D = build_decomposition(G, "min-fill")
            result = BudgetSolver(G, D).solve()
            assert result.chromatic == exact_chi_w(G).chromatic, seed
            assert result.chromatic == IndegreeSolver(G, D).solve().chromatic, seed
            assert is_valid_coloring(G, result.witness)

    def test_extra_bits_change_nothing(self):
        for seed in range(8):
            G = random_instance(5, 0.5, seed=2300 + seed, bits=1)
            D = build_decomposition(G, "exact-small")
            assert (
                BudgetSolver(G, D, 1).solve().chromatic
                == BudgetSolver(G, D, 3).solve().chromatic
            )


class TestMemoization:
    def test_stats_are_deterministic(self, prism_digraph):
        D = build_decomposition(prism_digraph, "exact-small")
        first = BudgetSolver(prism_digraph, D, 1)
        first.solve()
        second = BudgetSolver(prism_digraph, D, 1)
        second.solve()
        assert first.memo_stats() == second.memo_stats()

    def test_parent_colorings_read_the_child_tables(self):
        # fan at 2 colors: colors are interchangeable, so the root tries
        # only color 1 for vertex 1 (the one first-use canonical coloring
        # of its bag) and reads the entry of both children once; each
        # child stores one minimal vector for its one canonical key (1,)
        # (its free pair colored apart), where a table of every coloring
        # held one per color of vertex 1
        G, D = fan_instance()
        solver = BudgetSolver(G, D, 2)
        assert solver.solve().chromatic == 2
        stats = solver.memo_stats()
        assert stats.hits == 2
        assert stats.color_entries == 1 + 1 + 1
        assert solver.demands(1, {1: 2}) == [{1: 0}]
        assert solver.memo_stats() == stats  # reading a table changes nothing

    def test_budget_keys_stay_in_range(self):
        G, D = fan_instance()
        solver = BudgetSolver(G, D, 2)
        k = solver.solve().chromatic
        for bag, table in enumerate(solver.tables):
            for colors, front in table.items():
                assert all(1 <= c <= k for c in colors)
                for demand in front:
                    for v, units in zip(solver.order[bag], demand):
                        assert 0 <= units <= G.scale[v] - 1

    def test_entries_bounded_by_state_space(self):
        for seed in range(15):
            bits = 1 + seed % 2
            G = random_instance(8, 0.4, seed=2400 + seed, bits=bits)
            D = build_decomposition(G, "exact-small")
            solver = BudgetSolver(G, D, bits)
            solver.solve()
            stats = solver.memo_stats()
            palette = D.width + 1
            values = 1 << bits  # budgets range over 0..2^b - 1
            color_cap = sum(
                (palette * values) ** len(shared) for shared in solver.shared_set
            )
            distribute_cap = sum(
                len(D.children[i]) * (palette * values) ** len(D.bags[i])
                for i in range(len(D.bags))
            )
            assert stats.color_entries <= color_cap
            assert stats.distribute_entries <= distribute_cap
            assert stats.max_key_width <= max(len(bag) for bag in D.bags)


def _bell_partitions(items: int, blocks: int) -> int:
    """Partitions of `items` labelled items into at most `blocks` blocks
    (sum of Stirling numbers of the second kind)."""
    row = [1]  # S(0, j)
    for n in range(1, items + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, n + 1)]
    return sum(row[: blocks + 1])


def _is_first_use(colors: tuple[int, ...]) -> bool:
    top = 0
    for c in colors:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def _symmetric_case(name: str, request) -> tuple[WeightedDigraph, TreeDecomposition, int]:
    if name == "fan":
        return (*fan_instance(), 2)
    if name == "prism":
        G = request.getfixturevalue("prism_digraph")
        return G, build_decomposition(G, "exact-small"), 1
    return (*star_instance(4, 2, seed=2700 + int(name.removeprefix("star-"))), 2)


SYMMETRIC_CASES = ["fan", "star-0", "star-1", "star-2", "prism"]


class TestColorSymmetry:
    """Tables hold one key per class of shared colorings equal up to
    renaming colors: the first-use canonical one."""

    @pytest.mark.parametrize("name", SYMMETRIC_CASES)
    def test_demands_ignore_color_names(self, name, request):
        solver = BudgetSolver(*_symmetric_case(name, request))
        k = solver.solve().chromatic
        for bag, shared in enumerate(solver.shared_set):
            keys = sorted(shared)
            for colors in product(range(1, k + 1), repeat=len(keys)):
                coloring = dict(zip(keys, colors))
                expected = solver.demands(bag, coloring)
                for perm in permutations(range(1, k + 1)):
                    renamed = {v: perm[c - 1] for v, c in coloring.items()}
                    assert solver.demands(bag, renamed) == expected, (bag, coloring, perm)

    def test_colors_outside_the_palette_are_refused(self):
        G, D = fan_instance()
        solver = BudgetSolver(G, D, 2)
        solver.decide(2)
        assert solver.demands(1, {1: 1}) == [{1: 0}]
        for color in (0, 3):
            with pytest.raises(PreconditionError, match="outside 1..2"):
                solver.demands(1, {1: color})

    @pytest.mark.parametrize("name", SYMMETRIC_CASES)
    def test_keys_are_first_use_canonical(self, name, request):
        solver = BudgetSolver(*_symmetric_case(name, request))
        k = solver.solve().chromatic
        for bag, table in enumerate(solver.tables):
            assert all(_is_first_use(key) for key in table), bag
            assert len(table) <= _bell_partitions(len(solver.shared_set[bag]), k), bag

    def test_partition_counts(self):
        assert [_bell_partitions(n, n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
        assert _bell_partitions(4, 2) == 1 + 7
        assert _bell_partitions(3, 1) == 1

    def test_witness_reads_the_tables_without_summing(self):
        G = random_instance(10, 0.5, seed=5, bits=1)
        solver = BudgetSolver(G, build_decomposition(G, "exact-small"), 1)
        k = solver.solve().chromatic
        calls: list[tuple[int, tuple[int, ...]]] = []
        layers = solver._layers
        solver._layers = lambda bag, colors: calls.append((bag, colors)) or layers(bag, colors)
        assert solver.decide(k)
        assert calls
        calls.clear()
        assert is_valid_coloring(G, solver.witness())
        assert calls == []

    # the three dense cli-auto graphs and a width-7 graph, with the
    # color_entries of the decisive run when every k-coloring of every
    # bag was filled
    ALL_COLORINGS = [
        pytest.param(10, 0.4, 0, 1, 4189, id="dense-p0.4-b1"),
        pytest.param(10, 0.4, 0, 2, 760, id="dense-p0.4-b2"),
        pytest.param(10, 0.5, 0, 1, 1894, id="dense-p0.5-b1"),
        pytest.param(10, 0.5, 5, 1, 4216, id="random-10-seed5"),
    ]

    @pytest.mark.parametrize("n,p,seed,bits,all_entries", ALL_COLORINGS)
    def test_wide_bags_store_a_quarter(self, n, p, seed, bits, all_entries):
        G = random_instance(n, p, seed=seed, bits=bits)
        D = build_decomposition(G, "exact-small")
        solver = BudgetSolver(G, D, bits)
        result = solver.solve()
        assert result.chromatic == exact_chi_w(G).chromatic
        assert is_valid_coloring(G, result.witness)
        assert max(result.witness.values()) == result.chromatic
        assert reads_every_bag_once(solver, witness_reads(solver)[1])
        assert 4 * solver.memo_stats().color_entries <= all_entries
