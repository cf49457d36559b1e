"""Mutated `.td` and `.col` files through every subcommand that reads
one: each run exits 0-4 with at most one message on stderr, and never
lets an exception (a traceback) out of `main`.

The mutations drop, insert, swap or replace tokens, truncate, drop,
repeat or swap lines, put ids out of range or repeat them, and add
bag-tree edges that close a cycle; dropping a bag member or a coloring
line leaves a vertex uncovered.  Header counts stay small, so no case
can ask for much memory.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from wicolor import (
    build_decomposition,
    exact_chi_w,
    random_instance,
    serialize_coloring,
    serialize_decomposition,
    serialize_digraph,
)
from wicolor.cli import main

GRAPH = random_instance(8, 0.3, seed=2, bits=2)
TD = serialize_decomposition(build_decomposition(GRAPH, "min-fill"), n=GRAPH.n)
COL = serialize_coloring(exact_chi_w(GRAPH).witness)
TOKENS = ("0", "-1", "1", "2", "3", "8", "9", "12", "1.5", "x", "b", "s", "td", "")


@st.composite
def mutated(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = draw(st.integers(0, max(0, len(tokens) - 1)))
        move = draw(
            st.sampled_from(
                ("drop", "insert", "swap", "replace", "truncate", "drop line", "repeat",
                 "swap lines", "edge")
            )
        )
        if move == "drop" and tokens:
            del tokens[j]
        elif move == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(TOKENS)))
        elif move == "swap" and tokens:
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif move == "replace" and tokens:
            tokens[j] = draw(st.sampled_from(TOKENS))
        elif move == "truncate":
            tokens = lines[i][: draw(st.integers(0, len(lines[i])))].split()
        elif move == "drop line":
            del lines[i]
            continue
        elif move == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        elif move == "swap lines":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
            continue
        elif move == "edge":  # a bag-tree edge between small ids, or a coloring line
            lines.append(f"{draw(st.integers(0, 9))} {draw(st.integers(0, 9))}")
            continue
        lines[i] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


def run_clean(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert 0 <= code <= 4, (argv, code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    return code


def test_mutated_decompositions_exit_cleanly(tmp_path):
    graph, td = tmp_path / "g.wig", tmp_path / "g.td"
    graph.write_text(serialize_digraph(GRAPH), encoding="utf-8")
    codes = set()

    @given(mutated(TD))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def clean(text):
        td.write_text(text, encoding="utf-8")
        for argv in (
            ["decomp", "validate", str(graph), str(td)],
            ["solve", str(graph), "--decomposition", str(td), "--all-methods"],
            ["bounds", str(graph), "--decomposition", str(td)],
        ):
            codes.add(run_clean(argv))

    clean()
    # answered, unparseable and invalid files all occur
    assert {0, 2, 3} <= codes, codes


def test_mutated_colorings_exit_cleanly(tmp_path):
    graph, col = tmp_path / "g.wig", tmp_path / "g.col"
    graph.write_text(serialize_digraph(GRAPH), encoding="utf-8")
    codes = set()

    @given(mutated(COL))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def clean(text):
        col.write_text(text, encoding="utf-8")
        codes.add(run_clean(["validate", str(graph), str(col)]))

    clean()
    assert {0, 2, 3} <= codes, codes
