from __future__ import annotations

import dataclasses
import hashlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from wicolor import (
    InstanceTooLargeError,
    build_decomposition,
    is_valid_coloring,
    parse_coloring,
    parse_decomposition,
    parse_digraph,
    random_instance,
    serialize_digraph,
)
from wicolor import cli
from wicolor.cli import main
from wicolor.data import load_text

F = Fraction


@pytest.fixture()
def files(tmp_path):
    for name in ("golden5.wig", "golden5_valid.col", "golden5_invalid.col", "prism10.wug"):
        (tmp_path / name).write_text(load_text(name), encoding="utf-8")
    return tmp_path


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_exact_on_golden(self, files, capsys):
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"), "--method", "exact")
        assert code == 0
        header, line = out.strip().splitlines()
        assert re.fullmatch(
            rf"instance={re.escape(str(files / 'golden5.wig'))} digest=[0-9a-f]{{12}} n=5 arcs=9",
            header,
        )
        assert line.startswith("solver=exact chromatic=2 witness=- time_ms=")

    def test_digest_is_the_sha256_prefix_of_the_file(self, files, capsys):
        text = (files / "golden5.wig").read_text(encoding="utf-8")
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"))
        assert code == 0
        assert f" digest={expected} " in out.splitlines()[0]

    def test_witness_written_and_valid(self, files, capsys):
        out_path = files / "witness.col"
        code, out, _ = run(
            capsys,
            "solve",
            str(files / "golden5.wig"),
            "--method",
            "fpt-indegree",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert f"witness={out_path}" in out
        witness = parse_coloring(out_path.read_text(encoding="utf-8"))
        G = parse_digraph(load_text("golden5.wig"))
        assert is_valid_coloring(G, witness)
        assert max(witness.values()) == 2

    def test_budget_on_undirected_prism(self, files, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            str(files / "prism10.wug"),
            "--method",
            "fpt-budget",
        )
        assert code == 0
        assert "solver=fpt-budget chromatic=3" in out

    def test_bits_is_not_an_option(self, files, capsys):
        # the precision is read off the weights (min_precision_bits)
        code, _, err = run(capsys, "solve", str(files / "prism10.wug"), "--bits", "1")
        assert code == 1
        assert "--bits" in err

    @pytest.mark.parametrize(
        "flags",
        [
            (),
            ("--method", "exact"),
            ("--method", "fpt-indegree"),
            ("--method", "fpt-budget"),
            ("--all-methods",),
        ],
    )
    def test_empty_graph_needs_one_color(self, tmp_path, capsys, flags):
        path = tmp_path / "empty.wig"
        path.write_text("p wig 0 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(path), *flags)
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines) == (3 if flags == ("--all-methods",) else 1)
        assert all("chromatic=1" in line for line in lines)

    @pytest.mark.parametrize("method", ["fpt-indegree", "fpt-budget", "exact", "auto"])
    def test_decomposition_naming_a_foreign_vertex(self, tmp_path, capsys, method):
        graph, td = foreign_vertex_files(tmp_path)
        code, _, err = run(
            capsys, "solve", str(graph), "--method", method, "--decomposition", str(td)
        )
        assert code == 3
        assert "vertex 5 in a bag is outside 1..3" in err

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_missing_decomposition_file(self, tmp_path, capsys, method):
        # thirds on a complete digraph of five: auto picks exact
        graph = tmp_path / "k5.wig"
        arcs = [f"e {a} {b} 1/3" for a in range(1, 6) for b in range(1, 6) if a != b]
        graph.write_text("\n".join(["p wig 5 20", *arcs, ""]), encoding="utf-8")
        code, _, err = run(
            capsys, "solve", str(graph), "--method", method,
            "--decomposition", str(tmp_path / "absent.td"),
        )
        assert code == 2
        assert "cannot read input" in err

    def test_budget_rejects_non_dyadic(self, files, capsys):
        code, _, err = run(
            capsys, "solve", str(files / "golden5.wig"), "--method", "fpt-budget"
        )
        assert code == 3
        assert "precondition:" in err and "not dyadic" in err

    @pytest.mark.parametrize(
        ("method", "solver_class"),
        [("fpt-indegree", cli.IndegreeSolver), ("fpt-budget", cli.BudgetSolver)],
    )
    def test_memo_tokens_are_the_memo_stats_fields(self, files, capsys, method, solver_class):
        graph, td = files / "prism10.wug", files / "prism.td"
        run(capsys, "decomp", "build", str(graph), "--strategy", "min-fill", "--out", str(td))
        code, out, _ = run(
            capsys, "solve", str(graph), "--method", method, "--decomposition", str(td), "--stats"
        )
        assert code == 0
        tokens = [token.split("=", 1) for token in out.strip().splitlines()[-1].split()]
        G, _ = cli._load_digraph(str(graph))
        solver = solver_class(G, parse_decomposition(td.read_text(encoding="utf-8")))
        solver.solve()
        stats = solver.memo_stats()
        expected = [("memo_" + f.name, getattr(stats, f.name)) for f in dataclasses.fields(stats)]
        assert [(key, int(value)) for key, value in tokens if key.startswith("memo_")] == expected

    def test_all_methods_agree_on_prism(self, files, capsys):
        code, out, _ = run(capsys, "solve", str(files / "prism10.wug"), "--all-methods")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert [line.split()[0] for line in lines] == [
            "solver=exact",
            "solver=fpt-budget",
            "solver=fpt-indegree",
        ]
        assert all("chromatic=3" in line for line in lines)

    def test_all_methods_skips_budget_when_not_dyadic(self, files, capsys):
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"), "--all-methods")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert [line.split()[0] for line in lines] == [
            "solver=exact",
            "solver=fpt-indegree",
        ]
        assert all("chromatic=2" in line for line in lines)

    def test_all_methods_write_suffixed_witnesses(self, files, capsys):
        prefix = files / "w"
        code, _, _ = run(
            capsys,
            "solve",
            str(files / "prism10.wug"),
            "--all-methods",
            "--out",
            str(prefix),
        )
        assert code == 0
        for method in ("exact", "fpt-budget", "fpt-indegree"):
            assert (files / f"w.{method}").exists()

    def test_all_methods_build_the_decomposition_once(self, files, capsys, monkeypatch):
        calls = []

        def counting_build(graph, strategy="min-fill"):
            calls.append(strategy)
            return build_decomposition(graph, strategy)

        monkeypatch.setattr(cli, "build_decomposition", counting_build)
        code, out, _ = run(capsys, "solve", str(files / "prism10.wug"), "--all-methods")
        assert code == 0
        assert calls == ["exact-small"]
        assert len(out.strip().splitlines()) == 4

    def test_stats_reported(self, files, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            str(files / "prism10.wug"),
            "--method",
            "fpt-indegree",
            "--stats",
        )
        assert code == 0
        assert "memo_entries=" in out
        assert "memo_hits=" in out

    @pytest.fixture()
    def oracle_gives_up(self, monkeypatch):
        # with no oracle work allowed, auto falls back to the dispatch rule
        monkeypatch.setattr(cli, "ORACLE_WORK_BUDGET", 0)

    def test_auto_picks_budget_for_dyadic(self, files, capsys, oracle_gives_up):
        (files / "dyadic.wig").write_text("p wig 2 1\ne 1 2 1/2\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(files / "dyadic.wig"))
        assert code == 0
        assert "solver=fpt-budget" in out

    def test_auto_picks_indegree_for_sparse_rationals(self, files, capsys, oracle_gives_up):
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"))
        assert code == 0
        assert "solver=fpt-indegree" in out

    def test_auto_falls_back_to_exact(self, files, capsys, oracle_gives_up):
        lines = ["p wig 5 4"] + [f"e {j} 1 7/10" for j in (2, 3, 4, 5)]
        (files / "dense.wig").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(files / "dense.wig"))
        assert code == 0
        assert "solver=exact" in out

    def test_auto_answers_from_the_oracle_within_its_budget(self, files, capsys):
        (files / "dyadic.wig").write_text("p wig 2 1\ne 1 2 1/2\n", encoding="utf-8")
        lines = ["p wig 5 4"] + [f"e {j} 1 7/10" for j in (2, 3, 4, 5)]
        (files / "dense.wig").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name in ("dyadic.wig", "golden5.wig", "dense.wig"):
            code, out, _ = run(capsys, "solve", str(files / name))
            assert code == 0
            assert "solver=exact" in out

    def test_auto_stats_report_the_oracle_work(self, files, capsys, monkeypatch):
        assert "oracle_work" not in run(capsys, "solve", str(files / "golden5.wig"))[1]
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"), "--stats")
        assert code == 0
        work = int(re.search(r"oracle_work=(\d+)", out).group(1))
        assert 0 < work <= cli.ORACLE_WORK_BUDGET
        assert "oracle_gave_up" not in out and "memo_" not in out
        monkeypatch.setattr(cli, "ORACLE_WORK_BUDGET", 3)
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"), "--stats")
        assert code == 0
        line = out.strip().splitlines()[-1]
        assert line.startswith("solver=fpt-indegree chromatic=2 ")
        assert "memo_entries=" in line
        # the first choice already examines all five vertices
        assert line.endswith("oracle_work=5 oracle_gave_up=1")

    def test_auto_answers_a_wide_dyadic_graph_from_the_oracle(self, files, capsys):
        # min-fill width 9: the budget DP took seconds on it, the oracle
        # answers within its budget
        G = random_instance(16, 0.3, seed=3, bits=1)
        graph, out_path = files / "wide.wig", files / "wide.col"
        graph.write_text(serialize_digraph(G), encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(graph), "--out", str(out_path))
        assert code == 0
        assert "solver=exact chromatic=4 " in out
        witness = parse_coloring(out_path.read_text(encoding="utf-8"))
        assert is_valid_coloring(G, witness)
        assert max(witness.values()) == 4

    def test_auto_refuses_partition_m20_after_the_budget(self, files, capsys, monkeypatch):
        refusals = []

        def recording(G, **kwargs):
            try:
                return real(G, **kwargs)
            except InstanceTooLargeError as exc:
                refusals.append((kwargs.get("work_limit"), exc.size, exc.limit))
                raise

        real = cli.exact_chi_w
        monkeypatch.setattr(cli, "exact_chi_w", recording)
        elements = "5 9 4 11 19 6 1 14 14 3 4 5 11 16 19 15 14 7 7 11".split()
        prefix = files / "m20"
        assert run(capsys, "gen", "partition", *elements, "--out", str(prefix))[0] == 0
        code, _, err = run(capsys, "solve", f"{prefix}.wig", "--stats")
        assert code == 4
        assert "gave up after" in err
        # the budgeted oracle gave up; the rule picked exact, which above
        # the vertex guard would repeat that very search, so auto refused
        budget = cli.ORACLE_WORK_BUDGET
        assert len(refusals) == 1
        assert refusals[0][0] == budget == refusals[0][2] < refusals[0][1]

    def test_auto_falls_back_to_indegree_on_a_given_decomposition(
        self, files, capsys, oracle_gives_up
    ):
        # rational weights and in-degree 15: the rule picks exact, which
        # above 16 vertices only a given decomposition can replace
        elements = "3 1 4 1 5 9 2 6 5 3 5 8 9 7 9".split()
        prefix = files / "m15"
        assert run(capsys, "gen", "partition", *elements, "--out", str(prefix))[0] == 0
        code, out, _ = run(
            capsys, "solve", f"{prefix}.wig", "--decomposition", f"{prefix}.td", "--stats"
        )
        assert code == 0
        assert " n=17 " in out
        line = out.strip().splitlines()[-1]
        assert line.startswith("solver=fpt-indegree chromatic=3 ")
        assert line.endswith("oracle_gave_up=1")
        code, _, err = run(capsys, "solve", f"{prefix}.wig", "--stats")
        assert code == 4
        assert "gave up after" in err

    def test_supplied_decomposition_and_root(self, files, capsys):
        td = files / "prism.td"
        run(
            capsys,
            "decomp",
            "build",
            str(files / "prism10.wug"),
            "--strategy",
            "exact-small",
            "--out",
            str(td),
        )
        code, out, _ = run(
            capsys,
            "solve",
            str(files / "prism10.wug"),
            "--method",
            "fpt-indegree",
            "--decomposition",
            str(td),
            "--root",
            "2",
        )
        assert code == 0
        assert "chromatic=3" in out

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, "solve", str(files / "absent.wig"))
        assert code == 2
        assert "cannot read input" in err

    def test_unparseable_file(self, files, capsys):
        (files / "broken.wig").write_text("p wig 2 1\ne 1 2 3/2\n", encoding="utf-8")
        code, _, err = run(capsys, "solve", str(files / "broken.wig"))
        assert code == 2
        assert "parse error" in err

    def test_guard_on_oversized_exact(self, files, capsys):
        # above 16 vertices exact refuses once its work budget runs out
        elements = "5 9 4 11 19 6 1 14 14 3 4 5 11 16 19 15 14 7 7 11".split()
        prefix = files / "m20"
        assert run(capsys, "gen", "partition", *elements, "--out", str(prefix))[0] == 0
        code, _, err = run(capsys, "solve", f"{prefix}.wig", "--method", "exact")
        assert code == 4
        assert "guard: exhaustive search gave up after" in err

    @pytest.mark.parametrize("flags", [("--method", "exact"), ("--all-methods",)])
    def test_exact_answers_above_the_vertex_guard(self, files, capsys, flags):
        # the 2 x 32 ladder: 64 vertices, answered within the work budget
        pairs = [(2 * j + 1, 2 * j + 2) for j in range(32)]
        pairs += [(v, v + 2) for v in range(1, 63)]
        arcs = [f"e {a} {b} 1/2" for u, v in pairs for a, b in ((u, v), (v, u))]
        graph = files / "ladder.wig"
        graph.write_text("\n".join([f"p wig 64 {len(arcs)}", *arcs]) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(graph), *flags)
        assert code == 0
        assert "solver=exact chromatic=2 " in out
        if flags == ("--all-methods",):
            assert "solver=fpt-budget chromatic=2 " in out
            assert "solver=fpt-indegree chromatic=2 " in out

    def test_unknown_method_is_usage_error(self, files, capsys):
        code, _, _ = run(
            capsys, "solve", str(files / "golden5.wig"), "--method", "sat"
        )
        assert code == 1

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys)[0] == 1


def foreign_vertex_files(tmp_path):
    """A 3-vertex path and a one-bag decomposition that also names vertex 5."""
    graph = tmp_path / "path3.wig"
    graph.write_text("p wig 3 2\ne 1 2 1/2\ne 2 3 1/2\n", encoding="utf-8")
    td = tmp_path / "foreign.td"
    td.write_text("s td 1 4 5\nb 1 1 2 3 5\n", encoding="utf-8")
    return graph, td


class TestBounds:
    def test_invalid_decomposition_refused(self, tmp_path, capsys):
        graph = tmp_path / "triangle.wig"
        graph.write_text("p wig 3 3\ne 1 2 1\ne 2 3 1\ne 3 1 1\n", encoding="utf-8")
        td = tmp_path / "singletons.td"
        td.write_text("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n", encoding="utf-8")
        code, out, err = run(capsys, "bounds", str(graph), "--decomposition", str(td))
        assert code == 3
        assert out == ""
        assert "decomposition invalid" in err

    def test_decomposition_and_build_conflict(self, files, capsys):
        td = files / "golden.td"
        run(capsys, "decomp", "build", str(files / "golden5.wig"), "--out", str(td))
        code, out, err = run(
            capsys, "bounds", str(files / "golden5.wig"),
            "--decomposition", str(td), "--build", "min-fill",
        )
        assert code == 1
        assert out == ""
        assert "not allowed with argument" in err

    def test_empty_graph_cap_is_one(self, tmp_path, capsys):
        path = tmp_path / "empty.wig"
        path.write_text("p wig 0 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "bounds", str(path), "--build", "min-fill")
        assert code == 0
        assert "treewidth_cap=1" in out.splitlines()

    def test_report_above_the_search_guard(self, tmp_path, capsys):
        # 21 vertices is past the chromatic-number search; the lower bound
        # falls back to chi >= 2 and the upper bounds need no search
        path = tmp_path / "arc21.wig"
        path.write_text("p wig 21 1\ne 1 2 1\n", encoding="utf-8")
        code, out, err = run(capsys, "bounds", str(path))
        assert code == 0, err
        assert out.splitlines() == [
            "lower_chromatic=2",
            "upper_degree_weight=2",
            "upper_sum_weights=3",
            "upper_indegree=3",
        ]


    def test_golden(self, files, capsys):
        code, out, _ = run(capsys, "bounds", str(files / "golden5.wig"))
        assert code == 0
        assert out.splitlines() == [
            "lower_chromatic=1",
            "upper_degree_weight=3",
            "upper_sum_weights=7",
            "upper_indegree=3",
        ]

    def test_prism_with_build(self, files, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            str(files / "prism10.wug"),
            "--build",
            "exact-small",
        )
        assert code == 0
        assert out.splitlines() == [
            "lower_chromatic=2",
            "upper_degree_weight=4",
            "upper_sum_weights=15",
            "upper_indegree=6",
            "treewidth_cap=5",
        ]

    def test_with_decomposition_file(self, files, capsys):
        td = files / "golden.td"
        run(
            capsys,
            "decomp",
            "build",
            str(files / "golden5.wig"),
            "--strategy",
            "exact-small",
            "--out",
            str(td),
        )
        code, out, _ = run(
            capsys,
            "bounds",
            str(files / "golden5.wig"),
            "--decomposition",
            str(td),
        )
        assert code == 0
        assert "treewidth_cap=3" in out


class TestGen:
    def test_defective_from_undirected(self, files, capsys):
        (files / "edge.wug").write_text("p wug 2 1\ne 1 2 1\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "gen", "defective", str(files / "edge.wug"), "--d", "1"
        )
        assert code == 0
        G = parse_digraph(out)
        assert G.arcs == ((1, 2, F(1, 2)), (2, 1, F(1, 2)))

    def test_defective_from_digraph_uses_structure(self, files, capsys):
        code, out, _ = run(
            capsys, "gen", "defective", str(files / "golden5.wig"), "--d", "2"
        )
        assert code == 0
        G = parse_digraph(out)
        assert len(G.arcs) == 14  # both directions of the 7 underlying edges
        assert all(w == F(1, 3) for _, _, w in G.arcs)

    def test_complete_embed(self, files, capsys):
        code, out, _ = run(
            capsys, "gen", "complete-embed", str(files / "golden5.wig")
        )
        assert code == 0
        assert len(parse_digraph(out).arcs) == 20

    def test_partition_to_stdout(self, files, capsys):
        code, out, _ = run(capsys, "gen", "partition", "1", "2", "3")
        assert code == 0
        graph_text, td_text = out.split("s td", 1)
        G = parse_digraph(graph_text)
        D = parse_decomposition("s td" + td_text)
        assert G.n == 5
        assert D.width == 2

    def test_partition_to_files(self, files, capsys):
        prefix = files / "part"
        code, out, _ = run(
            capsys, "gen", "partition", "1", "2", "3", "--out", str(prefix)
        )
        assert code == 0
        assert f"graph={prefix}.wig decomposition={prefix}.td width=2" in out
        code, out, _ = run(
            capsys,
            "decomp",
            "validate",
            f"{prefix}.wig",
            f"{prefix}.td",
        )
        assert code == 0
        assert "valid=true width=2" in out

    def test_random_is_deterministic(self, files, capsys):
        args = ("gen", "random", "--n", "6", "--p", "0.5", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert parse_digraph(first).n == 6

    def test_random_to_file(self, files, capsys):
        out_path = files / "random.wig"
        code, _, _ = run(
            capsys,
            "gen",
            "random",
            "--n",
            "5",
            "--p",
            "0.4",
            "--seed",
            "9",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert parse_digraph(out_path.read_text(encoding="utf-8")).n == 5

    def test_random_rejects_bad_probability(self, files, capsys):
        code, _, err = run(
            capsys, "gen", "random", "--n", "5", "--p", "1.5", "--seed", "0"
        )
        assert code == 3
        assert "precondition" in err


class TestDecomp:
    def test_build_reports_width(self, files, capsys):
        code, out, _ = run(
            capsys,
            "decomp",
            "build",
            str(files / "prism10.wug"),
            "--strategy",
            "exact-small",
        )
        assert code == 0
        assert out.splitlines()[0] == "width=4 bags=10"
        D = parse_decomposition("\n".join(out.splitlines()[1:]) + "\n")
        assert D.width == 4

    def test_validate_good(self, files, capsys):
        td = files / "prism.td"
        run(
            capsys,
            "decomp",
            "build",
            str(files / "prism10.wug"),
            "--strategy",
            "min-fill",
            "--out",
            str(td),
        )
        code, out, _ = run(
            capsys, "decomp", "validate", str(files / "prism10.wug"), str(td)
        )
        assert code == 0
        assert out.startswith("valid=true width=")

    def test_validate_bad(self, files, capsys):
        td = files / "golden.td"
        run(
            capsys,
            "decomp",
            "build",
            str(files / "golden5.wig"),
            "--strategy",
            "min-fill",
            "--out",
            str(td),
        )
        code, out, _ = run(
            capsys, "decomp", "validate", str(files / "prism10.wug"), str(td)
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == "valid=false"
        assert any(line.startswith("violation property=1") for line in lines[1:])


    def test_validate_foreign_vertex(self, tmp_path, capsys):
        graph, td = foreign_vertex_files(tmp_path)
        code, out, _ = run(capsys, "decomp", "validate", str(graph), str(td))
        assert code == 3
        assert out.splitlines() == [
            "valid=false",
            "violation property=0 vertex 5 in a bag is outside 1..3",
        ]


class TestValidate:
    def test_valid_coloring(self, files, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            str(files / "golden5.wig"),
            str(files / "golden5_valid.col"),
        )
        assert code == 0
        assert out.strip() == "valid=true"

    def test_invalid_coloring(self, files, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            str(files / "golden5.wig"),
            str(files / "golden5_invalid.col"),
        )
        assert code == 3
        assert out.splitlines() == ["valid=false", "violation vertex=3 indegree=1"]

    def test_partial_coloring_is_precondition_error(self, files, capsys):
        (files / "partial.col").write_text("1 1\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "validate",
            str(files / "golden5.wig"),
            str(files / "partial.col"),
        )
        assert code == 3
        assert "precondition" in err


class TestExperiment:
    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, "experiment", "conjecture", "--trials", "0")
        assert code == 0
        assert out.strip() == "none found in 0 trials"

    def test_deterministic_search(self, capsys):
        args = (
            "experiment",
            "conjecture",
            "--trials",
            "5",
            "--seed",
            "1",
            "--max-n",
            "8",
        )
        code, first, _ = run(capsys, *args)
        assert code == 0
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_max_n_guard(self, capsys):
        code, _, err = run(
            capsys, "experiment", "conjecture", "--max-n", "17", "--trials", "1"
        )
        assert code == 3
        assert "guard" in err or "precondition" in err

    def test_max_n_must_be_positive(self, capsys):
        code, _, _ = run(
            capsys, "experiment", "conjecture", "--max-n", "0", "--trials", "1"
        )
        assert code == 3

    def test_negative_trials(self, capsys):
        code, _, _ = run(capsys, "experiment", "conjecture", "--trials", "-1")
        assert code == 3


class TestEntryPoint:
    def test_module_execution(self, tmp_path):
        graph = tmp_path / "g.wig"
        graph.write_text("p wig 2 1\ne 1 2 1\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "wicolor.cli", "solve", str(graph), "--method", "exact"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "chromatic=2" in proc.stdout

    def test_import_leaves_openssl_unloaded(self):
        # hashlib loads OpenSSL; only the digest of a read graph needs it
        script = "import sys, wicolor, wicolor.cli; print('_hashlib' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
