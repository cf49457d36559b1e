from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import bruteforce
from wicolor import (
    BudgetSolver,
    IndegreeSolver,
    InstanceTooLargeError,
    bound_report,
    build_decomposition,
    embed_undirected,
    exact_chi_w,
    is_valid_coloring,
    parse_coloring,
    parse_decomposition,
    parse_digraph,
    parse_graph_auto,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    serialize_digraph,
    serialize_undirected,
)
from wicolor import cli
from wicolor.cli import main
from wicolor.decomposition import STRATEGIES
from wicolor.data import load_text

F = Fraction


@pytest.fixture()
def files(tmp_path):
    for name in ("golden5.wig", "golden5_valid.col", "golden5_invalid.col", "prism10.wug"):
        (tmp_path / name).write_text(load_text(name), encoding="utf-8")
    return tmp_path


def ladder32(directory):
    """The 2 x 32 ladder with weight 1/2 on both arcs of each edge, as a
    .wig file in `directory`: 64 vertices and chi = 2."""
    pairs = [(2 * j + 1, 2 * j + 2) for j in range(32)] + [(v, v + 2) for v in range(1, 63)]
    arcs = [f"e {a} {b} 1/2" for u, v in pairs for a, b in ((u, v), (v, u))]
    graph = directory / "ladder.wig"
    graph.write_text("\n".join([f"p wig 64 {len(arcs)}", *arcs]) + "\n", encoding="utf-8")
    return graph


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
        # its header declares 5 vertices, so it is refused before any bag is read
        graph, td = foreign_vertex_files(tmp_path)
        code, out, err = run(
            capsys, "solve", str(graph), "--method", method, "--decomposition", str(td)
        )
        assert code == 2
        assert "solver=" not in out
        assert err == "parse error: line 1: header vertex count 5 is not the graph's 3\n"

    @pytest.mark.parametrize("declared", [4, 9])
    @pytest.mark.parametrize("method", ["fpt-indegree", "fpt-budget", "exact", "auto"])
    def test_decomposition_header_with_another_vertex_count(
        self, tmp_path, capsys, method, declared
    ):
        graph, td = six_vertex_files(tmp_path, declared)
        code, out, err = run(
            capsys, "solve", str(graph), "--method", method, "--decomposition", str(td)
        )
        assert code == 2
        assert "solver=" not in out
        assert err == f"parse error: line 1: header vertex count {declared} is not the graph's 6\n"
        td.write_text(td.read_text(encoding="utf-8").replace(f" {declared}\n", " 6\n", 1))
        assert run(capsys, "solve", str(graph), "--method", method, "--decomposition", str(td))[0] == 0

    @pytest.mark.parametrize("method", ["exact", "auto"])
    def test_missing_decomposition_file(self, tmp_path, capsys, method):
        # thirds on a complete digraph of five, which the oracle answers:
        # a named decomposition file is still read
        graph = tmp_path / "k5.wig"
        arcs = [f"e {a} {b} 1/3" for a in range(1, 6) for b in range(1, 6) if a != b]
        graph.write_text("\n".join(["p wig 5 20", *arcs, ""]), encoding="utf-8")
        code, _, err = run(
            capsys, "solve", str(graph), "--method", method,
            "--decomposition", str(tmp_path / "absent.td"),
        )
        assert code == 2
        assert "cannot read input" in err

    def test_budget_solves_non_dyadic(self, files, capsys):
        # fifths and tenths: each vertex counts in its own unit
        code, out, err = run(
            capsys, "solve", str(files / "golden5.wig"), "--method", "fpt-budget"
        )
        assert code == 0 and err == ""
        assert out.strip().splitlines()[-1].startswith("solver=fpt-budget chromatic=2 ")

    def test_distinct_huge_denominators_cost_their_own_size(self, tmp_path, capsys):
        # a path whose arcs weigh 1/q for distinct odd 300-digit q: each
        # vertex's unit is its own arc's denominator, never an lcm of all
        rng = random.Random(44)
        qs = [rng.randrange(10**299, 10**300) | 1 for _ in range(120)]
        assert len(set(qs)) == len(qs)
        lines = [f"p wig {len(qs) + 1} {len(qs)}"]
        lines += [f"e {v} {v + 1} 1/{q}" for v, q in enumerate(qs, start=1)]
        path = tmp_path / "path.wig"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        G = cli._parse_digraph(path.read_text(encoding="utf-8"))
        assert G.scale == {1: 1, **{v + 1: q for v, q in enumerate(qs, start=1)}}
        assert all(pairs == ((v - 1, 1),) for v, pairs in G.in_units.items() if v > 1)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert " chromatic=1 " in out.strip().splitlines()[-1]

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
        G = cli._parse_digraph(graph.read_text(encoding="utf-8"))
        solver = solver_class(G, parse_decomposition(td.read_text(encoding="utf-8"), G.n))
        solver.solve()
        stats = solver.memo_stats()
        expected = [("memo_" + f.name, getattr(stats, f.name)) for f in dataclasses.fields(stats)]
        assert [(key, int(value)) for key, value in tokens if key.startswith("memo_")] == expected

    @pytest.mark.parametrize(
        ("graph", "method", "memo_tokens"),
        [
            ("subcubic18", "fpt-indegree", "memo_entries=94 memo_hits=56 memo_max_key_width=17"),
            ("dyadic20", "fpt-indegree", "memo_entries=493 memo_hits=578 memo_max_key_width=15"),
            (
                "dyadic20",
                "fpt-budget",
                "memo_entries=219 memo_color_entries=65 memo_distribute_entries=154"
                " memo_hits=142 memo_max_key_width=6",
            ),
        ],
        ids=["subcubic18-indegree", "dyadic20-indegree", "dyadic20-budget"],
    )
    def test_exact_small_memo_tokens_are_pinned(self, tmp_path, capsys, graph, method, memo_tokens):
        # the tables of the compacted exact-small decomposition: a change
        # to the order or to the compaction shows here
        texts = {
            "subcubic18": ("wug", lambda: serialize_undirected(random_subcubic_instance(18, seed=1))),
            "dyadic20": ("wig", lambda: serialize_digraph(random_instance(20, 0.1, seed=4, bits=2))),
        }
        suffix, text = texts[graph]
        path = tmp_path / f"{graph}.{suffix}"
        path.write_text(text(), encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(path), "--method", method, "--stats")
        assert code == 0
        tokens = out.strip().splitlines()[-1].split()
        assert tokens[:2] == [f"solver={method}", "chromatic=2"]
        assert " ".join(t for t in tokens if t.startswith("memo_")) == memo_tokens

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

    def test_all_methods_run_budget_when_not_dyadic(self, files, capsys):
        code, out, _ = run(capsys, "solve", str(files / "golden5.wig"), "--all-methods")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert [line.split()[0] for line in lines] == [
            "solver=exact",
            "solver=fpt-budget",
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
        # with no oracle work allowed, auto falls back to the budget DP
        monkeypatch.setattr(cli, "ORACLE_WORK_BUDGET", 0)

    @pytest.mark.parametrize(
        ("name", "text", "chromatic"),
        [
            ("dyadic.wig", "p wig 2 1\ne 1 2 1/2\n", 1),
            ("golden5.wig", None, 2),
            ("dense.wig", "\n".join(["p wig 5 4"] + [f"e {j} 1 7/10" for j in (2, 3, 4, 5)]), 2),
        ],
        ids=["dyadic", "sparse-rational", "dense-rational"],
    )
    def test_auto_falls_back_to_the_budget_dp(
        self, files, capsys, oracle_gives_up, name, text, chromatic
    ):
        # whatever the weights or the in-degrees, the one fallback
        if text is not None:
            (files / name).write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "solve", str(files / name))
        assert code == 0
        assert out.splitlines()[-1].startswith(f"solver=fpt-budget chromatic={chromatic} ")

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
        assert line.startswith("solver=fpt-budget chromatic=2 ")
        assert "memo_entries=" in line
        # the first choice already examines all five vertices
        assert line.endswith("oracle_work=5 oracle_gave_up=1")

    def test_report_lines_are_pinned_whole(self, files, capsys, monkeypatch):
        def lines(*argv):
            code, out, err = run(capsys, "solve", *argv)
            assert (code, err) == (0, "")
            return re.sub(r"time_ms=\d+\.\d\b", "time_ms=*", out).splitlines()

        prism, golden, w = (str(files / name) for name in ("prism10.wug", "golden5.wig", "w"))
        assert lines(prism, "--all-methods", "--stats", "--out", w) == [
            f"instance={prism} digest=d2f90086f8be n=10 arcs=30",
            f"solver=exact chromatic=3 witness={w}.exact time_ms=*",
            f"solver=fpt-budget chromatic=3 witness={w}.fpt-budget time_ms=*"
            " memo_entries=196 memo_color_entries=55 memo_distribute_entries=141"
            " memo_hits=139 memo_max_key_width=5",
            f"solver=fpt-indegree chromatic=3 witness={w}.fpt-indegree time_ms=*"
            " memo_entries=39 memo_hits=0 memo_max_key_width=10",
        ]
        golden_header = f"instance={golden} digest=fb7f82c04173 n=5 arcs=9"
        assert lines(golden, "--stats") == [
            golden_header,
            "solver=exact chromatic=2 witness=- time_ms=* oracle_work=26",
        ]
        monkeypatch.setattr(cli, "ORACLE_WORK_BUDGET", 3)
        assert lines(golden, "--stats") == [
            golden_header,
            "solver=fpt-budget chromatic=2 witness=- time_ms=* memo_entries=12"
            " memo_color_entries=5 memo_distribute_entries=7 memo_hits=7"
            " memo_max_key_width=3 oracle_work=5 oracle_gave_up=1",
        ]

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

    def test_auto_answers_partition_m20_after_the_budget(self, files, capsys, monkeypatch):
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
        witness = files / "m20.col"
        code, out, err = run(capsys, "solve", f"{prefix}.wig", "--stats", "--out", str(witness))
        assert (code, err) == (0, "")
        # the budgeted oracle gave up once; the budget DP answered on the
        # built decomposition, and its witness is valid
        line = out.strip().splitlines()[-1]
        assert line.startswith(f"solver=fpt-budget chromatic=3 witness={witness} ")
        assert line.endswith("oracle_work=50001 oracle_gave_up=1")
        budget = cli.ORACLE_WORK_BUDGET
        assert len(refusals) == 1
        assert refusals[0][0] == budget == refusals[0][2] < refusals[0][1]
        G = parse_digraph((files / "m20.wig").read_text(encoding="utf-8"))
        coloring = parse_coloring(witness.read_text(encoding="utf-8"))
        assert is_valid_coloring(G, coloring) and max(coloring.values()) == 3

    @pytest.fixture()
    def m15(self, files, capsys):
        # the 17-vertex partition gadget of 15 elements, with its width-2 .td
        elements = "3 1 4 1 5 9 2 6 5 3 5 8 9 7 9".split()
        prefix = files / "m15"
        assert run(capsys, "gen", "partition", *elements, "--out", str(prefix))[0] == 0
        return prefix

    def test_auto_fallback_reads_the_given_decomposition(
        self, files, capsys, oracle_gives_up, m15
    ):
        code, out, _ = run(capsys, "solve", f"{m15}.wig", "--decomposition", f"{m15}.td", "--stats")
        assert code == 0
        assert " n=17 " in out
        line = out.strip().splitlines()[-1]
        assert line.startswith("solver=fpt-budget chromatic=3 ")
        assert line.endswith("oracle_work=17 oracle_gave_up=1")
        G = parse_digraph((files / "m15.wig").read_text(encoding="utf-8"))
        D = parse_decomposition((files / "m15.td").read_text(encoding="utf-8"), n=G.n)
        # the built exact-small decomposition gives other tokens (memo_entries=71)
        solver = cli.BudgetSolver(G, D)
        solver.solve()
        expected = {f"memo_{key}": value for key, value in dataclasses.asdict(solver.memo_stats()).items()}
        tokens = dict(token.split("=", 1) for token in line.split())
        assert {key: int(value) for key, value in tokens.items() if key.startswith("memo_")} == expected

    def test_all_methods_keep_going_when_exact_gives_up(
        self, files, capsys, oracle_gives_up, m15
    ):
        # exact refuses the 17-vertex gadget; both DPs still answer on the
        # given decomposition, and the exit code reports the refusal
        prefix = m15
        code, out, err = run(
            capsys,
            "solve",
            f"{prefix}.wig",
            "--all-methods",
            "--decomposition",
            f"{prefix}.td",
            "--out",
            str(files / "w"),
        )
        assert code == 4
        assert err == "guard: exhaustive search gave up after 17 examined vertices (limit 0)\n"
        lines = out.strip().splitlines()
        assert len(lines) == 3 and " n=17 " in lines[0]
        G = parse_digraph((files / "m15.wig").read_text(encoding="utf-8"))
        for line, method in zip(lines[1:], ("fpt-budget", "fpt-indegree")):
            assert line.startswith(f"solver={method} chromatic=3 witness={files / 'w'}.{method} ")
            witness = parse_coloring((files / f"w.{method}").read_text(encoding="utf-8"))
            assert is_valid_coloring(G, witness)
            assert max(witness.values()) == 3
        assert not (files / "w.exact").exists()

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

    def test_root_without_decomposition_is_usage_error(self, files, capsys):
        # a built decomposition has its own root, so --root would be ignored
        code, out, err = run(capsys, "solve", str(files / "golden5.wig"), "--root", "99")
        assert code == 1
        assert out == ""
        assert err == "wicolor solve: error: argument --root: needs --decomposition\n"

    @pytest.mark.parametrize(
        ("td_text", "root", "message"),
        [
            ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2 1\n1 2\n", "0", "root bag 0 outside 1..2"),
            ("s td 2 5 5\nb 1 1 2 3 4 5\nb 2 1\n1 2\n", "99", "root bag 99 outside 1..2"),
            # the file is read before the root is looked up in it
            ("s td 2 1 5\nb 1 1\nb 2 2\n", "99", "0 tree edges cannot form a tree on 2 bags"),
        ],
        ids=["0", "99", "99-broken-tree"],
    )
    def test_root_outside_the_file(self, files, capsys, td_text, root, message):
        td = files / "g.td"
        td.write_text(td_text, encoding="utf-8")
        code, _, err = run(
            capsys, "solve", str(files / "golden5.wig"), "--decomposition", str(td), "--root", root
        )
        assert code == 2
        assert err == f"parse error: {message}\n"

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, "solve", str(files / "absent.wig"))
        assert code == 2
        assert "cannot read input" in err

    def test_unwritable_witness(self, files, capsys):
        out = files / "missing" / "dir" / "x.col"
        code, _, err = run(capsys, "solve", str(files / "golden5.wig"), "--out", str(out))
        assert code == 2
        assert err.startswith("cannot write output: ")
        assert str(out) in err

    def test_unparseable_file(self, files, capsys):
        (files / "broken.wig").write_text("p wig 2 1\ne 1 2 3/2\n", encoding="utf-8")
        code, _, err = run(capsys, "solve", str(files / "broken.wig"))
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p wig 1000000000000000 0\n", 1),
            ("p wig 2 1\ne 1 2 1e-10000000\n", 2),
        ],
        ids=["vertex-count", "exponent"],
    )
    def test_input_beyond_a_limit(self, files, capsys, text, line):
        (files / "huge.wig").write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "solve", str(files / "huge.wig"))
        assert code == 2
        assert err.startswith(f"parse error: line {line}: ")
        assert err.count("\n") == 1

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
        # 64 vertices, answered within the work budget
        code, out, _ = run(capsys, "solve", str(ladder32(files)), *flags)
        assert code == 0
        assert "solver=exact chromatic=2 " in out
        if flags == ("--all-methods",):
            assert "solver=fpt-budget chromatic=2 " in out
            assert "solver=fpt-indegree chromatic=2 " in out

    @pytest.mark.parametrize(
        ("method", "n", "limited"),
        [("exact", 5, False), ("auto", 5, True), ("exact", 64, True), ("auto", 64, True)],
    )
    def test_one_oracle_call_per_method(self, files, capsys, monkeypatch, method, n, limited):
        # only exact on at most 16 vertices searches without the work budget
        calls = []

        def recording(G, **limits):
            calls.append(limits)
            return real(G, **limits)

        real = cli.exact_chi_w
        monkeypatch.setattr(cli, "exact_chi_w", recording)
        graph = ladder32(files) if n == 64 else files / "golden5.wig"
        code, out, _ = run(capsys, "solve", str(graph), "--method", method, "--stats")
        assert code == 0
        assert calls == [{"max_n": n, "work_limit": cli.ORACLE_WORK_BUDGET if limited else None}]
        line = out.strip().splitlines()[-1]
        assert line.startswith("solver=exact chromatic=2 ")
        # exact reports no statistics; auto reports the oracle's work
        assert re.search(r"time_ms=[\d.]+$" if method == "exact" else r" oracle_work=\d+$", line)

    def test_running_out_of_memory_is_a_guard_refusal(self, files, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "BudgetSolver", exhausted)
        code, _, err = run(capsys, "solve", str(files / "golden5.wig"), "--method", "fpt-budget")
        assert code == 4
        assert err == "guard: out of memory\n"

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


def six_vertex_files(tmp_path, declared: int):
    """A 6-vertex path and its one-bag decomposition, valid apart from a
    header that declares `declared` vertices."""
    graph = tmp_path / "path6.wig"
    arcs = [f"e {v} {v + 1} 1/2" for v in range(1, 6)]
    graph.write_text("\n".join(["p wig 6 5", *arcs, ""]), encoding="utf-8")
    td = tmp_path / "declared.td"
    td.write_text(f"s td 1 6 {declared}\nb 1 1 2 3 4 5 6\n", encoding="utf-8")
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

    def test_root_is_not_an_option(self, files, capsys):
        # no bound depends on the root
        code, out, err = run(capsys, "bounds", str(files / "golden5.wig"), "--root", "99")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --root 99" in err

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
        D = parse_decomposition("s td" + td_text, G.n)
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("random", "--n", "5", "--p", "0.4", "--seed", "9"),
            ("partition", "1", "2", "3"),
        ],
    )
    def test_unwritable_output(self, files, capsys, argv):
        code, out, err = run(capsys, "gen", *argv, "--out", str(files / "missing" / "g"))
        assert code == 2
        assert err.startswith("cannot write output: ")
        assert out == ""

    def test_random_rejects_bad_probability(self, files, capsys):
        code, _, err = run(
            capsys, "gen", "random", "--n", "5", "--p", "1.5", "--seed", "0"
        )
        assert code == 3
        assert "precondition" in err


class TestDecomp:
    def test_build_reports_width(self, files, capsys):
        code, out, err = run(
            capsys,
            "decomp",
            "build",
            str(files / "prism10.wug"),
            "--strategy",
            "exact-small",
        )
        assert code == 0
        # stdout is the .td alone, so `decomp build g > g.td` gives a file
        # that `decomp validate` and `solve --decomposition` read
        D = parse_decomposition(out, 10)
        assert D.width == 4
        # one bag per vertex less the four that lie inside a tree neighbor's
        assert len(D.bags) == 6
        assert err == "width=4 bags=6\n"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_build_and_bounds_accept_every_strategy(self, files, capsys, strategy):
        graph = str(files / "prism10.wug")
        code, out, _ = run(capsys, "decomp", "build", graph, "--strategy", strategy)
        assert code == 0
        width = parse_decomposition(out, 10).width
        code, out, _ = run(capsys, "bounds", graph, "--build", strategy)
        assert code == 0
        assert out.splitlines()[-1] == f"treewidth_cap={width + 1}"

    @pytest.mark.parametrize(
        "command, flag", [(("decomp", "build"), "--strategy"), (("bounds",), "--build")]
    )
    def test_unknown_strategy_is_a_usage_error(self, files, capsys, command, flag):
        code, out, err = run(capsys, *command, str(files / "prism10.wug"), flag, "metis")
        assert code == 1
        assert out == ""
        assert "invalid choice: 'metis'" in err

    def test_exact_small_refuses_21_vertices(self, tmp_path, capsys):
        path = tmp_path / "arc21.wig"
        path.write_text("p wig 21 1\ne 1 2 1\n", encoding="utf-8")
        code, out, err = run(capsys, "decomp", "build", str(path), "--strategy", "exact-small")
        assert code == 4
        assert out == ""
        assert err == "guard: exact-small is limited to 20 vertices, got 21\n"

    def test_build_to_file_reports_on_stdout(self, files, capsys):
        td = files / "prism.td"
        code, out, err = run(
            capsys, "decomp", "build", str(files / "prism10.wug"), "--out", str(td)
        )
        assert code == 0
        D = parse_decomposition(td.read_text(encoding="utf-8"), 10)
        assert out == f"width={D.width} bags=6\n"
        assert err == ""

    def test_build_unwritable_output(self, files, capsys):
        td = files / "missing" / "prism.td"
        code, out, err = run(
            capsys, "decomp", "build", str(files / "prism10.wug"), "--out", str(td)
        )
        assert code == 2
        assert err.startswith("cannot write output: ")
        assert out == ""

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
        code, _, err = run(capsys, "decomp", "validate", str(files / "prism10.wug"), str(td))
        assert code == 2
        assert err == "parse error: line 1: header vertex count 5 is not the graph's 10\n"
        # declaring the prism's 10 vertices leaves 6..10 in no bag
        header, body = td.read_text(encoding="utf-8").split("\n", 1)
        td.write_text(header.rsplit(" ", 1)[0] + " 10\n" + body, encoding="utf-8")
        code, out, _ = run(
            capsys, "decomp", "validate", str(files / "prism10.wug"), str(td)
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == "valid=false"
        assert any(line.startswith("violation property=1") for line in lines[1:])

    def test_validate_takes_no_root(self, files, capsys):
        # validity does not depend on the root
        td = files / "golden.td"
        run(capsys, "decomp", "build", str(files / "golden5.wig"), "--out", str(td))
        code, out, err = run(
            capsys, "decomp", "validate", str(files / "golden5.wig"), str(td), "--root", "2"
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --root 2" in err

    def test_validate_foreign_vertex(self, tmp_path, capsys):
        # its header declares 5 vertices, so it is refused before any bag is read
        graph, td = foreign_vertex_files(tmp_path)
        code, out, err = run(capsys, "decomp", "validate", str(graph), str(td))
        assert code == 2
        assert out == ""
        assert err == "parse error: line 1: header vertex count 5 is not the graph's 3\n"

    @pytest.mark.parametrize("declared", [4, 9])
    def test_validate_header_with_another_vertex_count(self, tmp_path, capsys, declared):
        graph, td = six_vertex_files(tmp_path, declared)
        code, out, err = run(capsys, "decomp", "validate", str(graph), str(td))
        assert code == 2
        assert out == ""
        assert err == f"parse error: line 1: header vertex count {declared} is not the graph's 6\n"
        td.write_text(td.read_text(encoding="utf-8").replace(f" {declared}\n", " 6\n", 1))
        assert run(capsys, "decomp", "validate", str(graph), str(td))[:2] == (
            0,
            "valid=true width=5\n",
        )


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


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{bad}"),
        ("validate", "{dir}/golden5.wig", "{bad}"),
        ("solve", "{dir}/golden5.wig", "--decomposition", "{bad}"),
    ],
    ids=["graph", "coloring", "decomposition"],
)
def test_non_utf8_input_is_a_parse_error(files, capsys, argv):
    bad = files / "latin1.txt"
    bad.write_bytes(b"p wig 1 0\nc caf\xe9\n")
    code, _, err = run(capsys, *(a.format(dir=files, bad=bad) for a in argv))
    assert code == 2
    assert err.startswith(f"parse error: {bad}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "{dir}/golden5.wig", "--decomposition", ""), "cannot read input"),
        (("bounds", "{dir}/golden5.wig", "--decomposition", ""), "cannot read input"),
        (("decomp", "validate", "{dir}/golden5.wig", ""), "cannot read input"),
        (("solve", "{dir}/golden5.wig", "--out", ""), "cannot write output"),
        (("decomp", "build", "{dir}/golden5.wig", "--out", ""), "cannot write output"),
        (("gen", "complete-embed", "{dir}/golden5.wig", "--out", ""), "cannot write output"),
        (("gen", "defective", "{dir}/prism10.wug", "--d", "1", "--out", ""), "cannot write output"),
        (("gen", "random", "--n", "4", "--p", "0.5", "--seed", "1", "--out", ""), "cannot write output"),
    ],
    ids=[
        "solve-decomposition",
        "bounds-decomposition",
        "decomp-validate",
        "solve-out",
        "decomp-build-out",
        "complete-embed-out",
        "defective-out",
        "random-out",
    ],
)
def test_an_empty_path_is_read_or_written(files, capsys, argv, message):
    # "" names the current directory, which is neither read nor written
    # as a file: exit 2 with one line, never "no path given"
    code, out, err = run(capsys, *(a.format(dir=files) for a in argv))
    assert code == 2
    assert err.startswith(f"{message}: ")
    assert err.count("\n") == 1
    assert "solver=" not in out and "treewidth_cap" not in out


def test_an_empty_prefix_names_files_in_the_current_directory(files, capsys, monkeypatch):
    monkeypatch.chdir(files)
    code, out, _ = run(capsys, "gen", "partition", "1", "2", "3", "--out", "")
    assert code == 0
    assert out == "graph=.wig decomposition=.td width=2\n"
    G = parse_digraph((files / ".wig").read_text(encoding="utf-8"))
    assert parse_decomposition((files / ".td").read_text(encoding="utf-8"), G.n).width == 2
    code, out, _ = run(capsys, "solve", "golden5.wig", "--all-methods", "--out", "")
    assert code == 0
    G = parse_digraph(load_text("golden5.wig"))
    for method in ("exact", "fpt-budget", "fpt-indegree"):
        assert f" witness=.{method} " in out
        assert is_valid_coloring(G, parse_coloring((files / f".{method}").read_text(encoding="utf-8")))


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


@pytest.fixture()
def collector():
    """Restores the cyclic collector's state should a test leave it changed."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """`main` pauses the cyclic collector while a command runs and puts
    back the state it found, on every way out."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(gc.isenabled())
            return real(*args)

        real = cli._solve
        monkeypatch.setattr(cli, "_solve", recording)
        return seen

    def test_paused_while_solve_runs(self, files, capsys, collector, recorded):
        assert gc.isenabled()
        assert run(capsys, "solve", str(files / "golden5.wig"))[0] == 0
        assert recorded == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("case", ["answer", "parse error", "invalid td", "exact refused"])
    def test_enabled_again_after_each_exit_code(self, tmp_path, capsys, collector, recorded, case):
        graph = tmp_path / "g.wig"
        graph.write_text("p wig 3 3\ne 1 2 1\ne 2 3 1\ne 3 1 1\n", encoding="utf-8")
        argv = ["solve", str(graph)]
        expected = 0
        if case == "parse error":
            graph.write_text("p wig 3 1\ne 1 4 1\n", encoding="utf-8")
            expected = 2
        elif case == "invalid td":
            td = tmp_path / "singletons.td"
            td.write_text("s td 3 1 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n", encoding="utf-8")
            argv += ["--decomposition", str(td)]
            expected = 3
        elif case == "exact refused":
            elements = "5 9 4 11 19 6 1 14 14 3 4 5 11 16 19 15 14 7 7 11".split()
            assert run(capsys, "gen", "partition", *elements, "--out", str(tmp_path / "m20"))[0] == 0
            argv = ["solve", str(tmp_path / "m20.wig"), "--method", "exact"]
            expected = 4
        assert gc.isenabled()
        assert run(capsys, *argv)[0] == expected
        assert gc.isenabled()

    def test_enabled_again_when_the_solve_fails(self, files, collector, monkeypatch):
        def failing(*args):
            assert not gc.isenabled()
            raise AssertionError("refusing to emit an invalid witness")

        monkeypatch.setattr(cli, "_solve", failing)
        with pytest.raises(AssertionError, match="invalid witness"):
            main(["solve", str(files / "golden5.wig")])
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, files, capsys, collector, recorded):
        gc.disable()
        assert run(capsys, "solve", str(files / "golden5.wig"))[0] == 0
        assert recorded == [False]
        assert not gc.isenabled()

    @pytest.mark.parametrize(
        "family", ["random", "ladder", "subcubic", "partition"]
    )
    def test_commands_leave_no_cycles(self, collector, family):
        # what the pause relies on: parse, the oracle, every build, both
        # DPs and the bounds free their objects by reference counting, so
        # a collection after each call finds nothing.  exact-small runs
        # its width search on the first three graphs.
        G = {
            "random": lambda: random_instance(12, 0.3, seed=3, bits=2),
            "ladder": lambda: bruteforce.dyadic_ladder(8, 2, seed=1),
            "subcubic": lambda: embed_undirected(random_subcubic_instance(14, seed=2)),
            "partition": lambda: partition_instance([5, 9, 4, 11, 19, 6, 1, 14])[0],
        }[family]()
        text = serialize_digraph(G)
        D = build_decomposition(G, "min-fill")
        calls = {
            "parse_graph_auto": lambda: parse_graph_auto(text),
            "exact_chi_w": lambda: exact_chi_w(G),
            "BudgetSolver": lambda: BudgetSolver(G, D).solve(),
            "IndegreeSolver": lambda: IndegreeSolver(G, D).solve(),
            "bound_report": lambda: bound_report(G),
        }
        for strategy in STRATEGIES:
            calls[strategy] = lambda strategy=strategy: build_decomposition(G, strategy)
        gc.collect()
        gc.disable()
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
