"""Command-line front end.

Subcommands: solve, bounds, gen, decomp, validate, experiment.  Reports
are key=value tokens so runs stay easy to script against.  Exit codes:
0 success, 1 usage, 2 unreadable/unparseable input or unwritable output
file, 3 violated precondition (also: validation subcommands reporting an
invalid input), 4 refused resource guard or memory ran out.  The cyclic
garbage collector is paused while a command runs and restored afterwards.
"""

from __future__ import annotations

import argparse
import functools
import gc
import random
import sys
import time
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

from . import formats
from .bounds import bound_report
from .decomposition import (
    EXACT_SMALL_LIMIT,
    STRATEGIES,
    TreeDecomposition,
    build_decomposition,
    require_valid,
    validate_decomposition,
)
from .errors import FormatError, InstanceTooLargeError, PreconditionError
from .fpt_budget import BudgetSolver
from .fpt_indegree import IndegreeSolver
from .generators import (
    complete_embed,
    partition_instance,
    random_instance,
    random_subcubic_instance,
    reduce_defective,
)
from .graph import (
    Coloring,
    UndirectedWeightedGraph,
    WeightedDigraph,
    coloring_violations,
    embed_undirected,
    is_valid_coloring,
    underlying_graph,
)
from .oracle import DEFAULT_SEARCH_LIMIT, SolveResult, exact_chi_w

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_GUARD = 4

# Vertices the oracle may examine under `solve --method auto` before it
# gives up and the budget DP runs, and under `--method exact` on
# graphs above the 16-vertex guard before it refuses.  At 0.08-1.7 us per
# examined vertex on a shared 2-core x86 host, giving up costs about
# 55-85 ms (the 22-vertex partition gadget of 20 elements).
ORACLE_WORK_BUDGET = 50_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _WriteError(Exception):
    """An output file could not be written; the OSError is its cause."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _WriteError(exc) from exc


def _parse_digraph(text: str) -> WeightedDigraph:
    """The graph in `text`, an undirected one embedded as a digraph."""
    graph = formats.parse_graph_auto(text)
    if isinstance(graph, UndirectedWeightedGraph):
        graph = embed_undirected(graph)
    return graph


def _obtain_decomposition(path: str | None, G: WeightedDigraph, root: int = 1) -> TreeDecomposition:
    """The decomposition in the file at `path`, rooted at its bag `root`,
    or with no path one built for G."""
    if path is not None:
        D = formats.parse_decomposition(_read(path), G.n)
        if not 1 <= root <= len(D.bags):
            raise FormatError(f"root bag {root} outside 1..{len(D.bags)}")
        return D if root == 1 else D.root_at(root - 1)
    strategy = "exact-small" if G.n <= EXACT_SMALL_LIMIT else "min-fill"
    return build_decomposition(G, strategy)


def _write_witness(path: str, G: WeightedDigraph, witness: Coloring) -> None:
    if not is_valid_coloring(G, witness):  # defense in depth; solvers check too
        raise AssertionError("refusing to emit an invalid witness")
    _write(path, formats.serialize_coloring(witness))


def _solve(
    G: WeightedDigraph,
    method: str,
    decomposition: Callable[[], TreeDecomposition],
) -> tuple[str, SolveResult, tuple[tuple[str, int], ...]]:
    """Run one method; return the method that answered, its result and
    its statistics.  `auto` runs the oracle under ORACLE_WORK_BUDGET and
    only when that runs out the budget DP, on the given decomposition or
    a built one.  `exact` searches without limit up to
    DEFAULT_SEARCH_LIMIT vertices and under ORACLE_WORK_BUDGET above it.
    A DP's statistics are its memo_stats() fields, in order."""
    oracle_pairs = ()
    if method in ("exact", "auto"):
        unlimited = method == "exact" and G.n <= DEFAULT_SEARCH_LIMIT
        try:
            result = exact_chi_w(G, max_n=G.n, work_limit=None if unlimited else ORACLE_WORK_BUDGET)
        except InstanceTooLargeError as exc:
            if method == "exact":
                raise
            method = "fpt-budget"
            oracle_pairs = (("oracle_work", exc.size), ("oracle_gave_up", 1))
        else:
            if result is None:
                raise AssertionError("search up to n colors cannot fail")
            return "exact", result, (("oracle_work", result.examined),) if method == "auto" else ()
    solver = (IndegreeSolver if method == "fpt-indegree" else BudgetSolver)(G, decomposition())
    result = solver.solve()
    stats = [(f"memo_{name}", value) for name, value in asdict(solver.memo_stats()).items()]
    return method, result, (*stats, *oracle_pairs)


def cmd_solve(args) -> int:
    if args.root is not None and args.decomposition is None:  # a built one has its own root
        print("wicolor solve: error: argument --root: needs --decomposition", file=sys.stderr)
        return EXIT_USAGE
    root = 1 if args.root is None else args.root
    from hashlib import sha256  # deferred: loading OpenSSL costs about 3.5 MB per process

    text = _read(args.graph)
    digest = sha256(text.encode("utf-8")).hexdigest()[:12]
    G = _parse_digraph(text)
    print(f"instance={args.graph} digest={digest} n={G.n} arcs={len(G.arcs)}")
    # read or built on first use and shared by both DPs under --all-methods
    decomposition = functools.cache(lambda: _obtain_decomposition(args.decomposition, G, root))
    if args.decomposition is not None:  # a given file is checked even when no DP reads it
        require_valid(validate_decomposition(G, decomposition()))
    methods = [args.method]
    if args.all_methods:
        methods = ["exact", "fpt-budget", "fpt-indegree"]
    code = EXIT_OK
    for method in methods:
        start = time.perf_counter()
        try:
            solver, result, stat_pairs = _solve(G, method, decomposition)
        except InstanceTooLargeError as exc:
            if not args.all_methods:
                raise
            # the other methods still answer; the exit code reports the refusal
            print(f"guard: {exc}", file=sys.stderr)
            code = EXIT_GUARD
            continue
        wall_ms = (time.perf_counter() - start) * 1000
        witness = "-"
        if args.out is not None:
            witness = f"{args.out}.{method}" if args.all_methods else args.out
            _write_witness(witness, G, result.witness)
        tokens = [f"solver={solver}", f"chromatic={result.chromatic}", f"witness={witness}"]
        tokens.append(f"time_ms={wall_ms:.1f}")
        if args.stats:
            tokens.extend(f"{key}={value}" for key, value in stat_pairs)
        print(" ".join(tokens))
    return code


def cmd_bounds(args) -> int:
    G = _parse_digraph(_read(args.graph))
    decomposition = None
    if args.decomposition is not None:
        decomposition = _obtain_decomposition(args.decomposition, G)
    elif args.build:
        decomposition = build_decomposition(G, args.build)
    for line in bound_report(G, decomposition).as_lines():
        print(line)
    return EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        _write(out, text)
    else:
        print(text, end="")


def cmd_gen_defective(args) -> int:
    graph = formats.parse_graph_auto(_read(args.graph))
    if isinstance(graph, WeightedDigraph):
        graph = underlying_graph(graph)
    _emit(formats.serialize_digraph(reduce_defective(graph, args.d)), args.out)
    return EXIT_OK


def cmd_gen_complete_embed(args) -> int:
    G = _parse_digraph(_read(args.graph))
    _emit(formats.serialize_digraph(complete_embed(G)), args.out)
    return EXIT_OK


def cmd_gen_partition(args) -> int:
    G, D = partition_instance(args.elements)
    graph_text = formats.serialize_digraph(G)
    decomposition_text = formats.serialize_decomposition(D, n=G.n)
    if args.out is not None:
        _write(f"{args.out}.wig", graph_text)
        _write(f"{args.out}.td", decomposition_text)
        print(f"graph={args.out}.wig decomposition={args.out}.td width={D.width}")
    else:
        print(graph_text, end="")
        print(decomposition_text, end="")
    return EXIT_OK


def cmd_gen_random(args) -> int:
    G = random_instance(
        args.n,
        args.p,
        seed=args.seed,
        weight_model=args.weight_model,
        bits=args.bits,
        max_denominator=args.max_denominator,
    )
    _emit(formats.serialize_digraph(G), args.out)
    return EXIT_OK


def cmd_decomp_build(args) -> int:
    graph = formats.parse_graph_auto(_read(args.graph))
    D = build_decomposition(graph, args.strategy)
    _emit(formats.serialize_decomposition(D, n=graph.n), args.out)
    # a decomposition on stdout keeps stdout a .td file
    report = sys.stdout if args.out is not None else sys.stderr
    print(f"width={D.width} bags={len(D.bags)}", file=report)
    return EXIT_OK


def cmd_decomp_validate(args) -> int:
    G = _parse_digraph(_read(args.graph))
    D = _obtain_decomposition(args.decomposition, G)
    violations = validate_decomposition(G, D)
    if not violations:
        print(f"valid=true width={D.width}")
        return EXIT_OK
    print("valid=false")
    for violation in violations:
        print(f"violation property={violation.property_index} {violation.message}")
    return EXIT_PRECONDITION


def cmd_validate(args) -> int:
    G = _parse_digraph(_read(args.graph))
    coloring = formats.parse_coloring(_read(args.coloring))
    violations = coloring_violations(G, coloring)
    if not violations:
        print("valid=true")
        return EXIT_OK
    print("valid=false")
    for v, indegree in violations:
        print(f"violation vertex={v} indegree={indegree}")
    return EXIT_PRECONDITION


def cmd_experiment_conjecture(args) -> int:
    if args.max_n < 1:
        raise PreconditionError(f"max-n must be >= 1, got {args.max_n}")
    if args.max_n > DEFAULT_SEARCH_LIMIT:
        raise PreconditionError(
            f"max-n {args.max_n} exceeds the exact-search guard {DEFAULT_SEARCH_LIMIT}"
        )
    if args.trials < 0:
        raise PreconditionError(f"trials must be >= 0, got {args.trials}")
    rng = random.Random(args.seed)
    low = min(4, args.max_n)
    for trial in range(args.trials):
        n = rng.randint(low, args.max_n)
        H = random_subcubic_instance(n, seed=rng.randrange(1 << 30))
        result = exact_chi_w(embed_undirected(H), k_limit=2)
        if result is None:
            print(f"counterexample trial={trial} n={n}")
            print(formats.serialize_undirected(H), end="")
            return EXIT_OK
    print(f"none found in {args.trials} trials")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="wicolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="compute the minimum color count")
    solve.add_argument("graph", help="graph file (wig or wug; wug is embedded)")
    solve.add_argument(
        "--method",
        choices=["exact", "fpt-indegree", "fpt-budget", "auto"],
        default="auto",
    )
    solve.add_argument("--all-methods", action="store_true", help="run every method")
    solve.add_argument("--decomposition", help="decomposition file (built when omitted)")
    solve.add_argument("--root", type=int, help="root bag id in the --decomposition file (default 1)")
    solve.add_argument("--out", help="write the witness coloring here")
    solve.add_argument(
        "--stats", action="store_true", help="report memo statistics and the oracle's work"
    )
    solve.set_defaults(func=cmd_solve)

    bounds = sub.add_parser("bounds", help="print all bound values")
    bounds.add_argument("graph")
    width_cap = bounds.add_mutually_exclusive_group()
    width_cap.add_argument("--decomposition", help="decomposition file for the width cap")
    width_cap.add_argument(
        "--build",
        choices=STRATEGIES,
        help="build a decomposition for the width cap",
    )
    bounds.set_defaults(func=cmd_bounds)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    g_def = gen_sub.add_parser("defective", help="defect-d encoding of an undirected graph")
    g_def.add_argument("graph")
    g_def.add_argument("--d", type=int, required=True, help="tolerated same-color neighbors")
    g_def.add_argument("--out")
    g_def.set_defaults(func=cmd_gen_defective)

    g_emb = gen_sub.add_parser("complete-embed", help="pad with weight-0 arcs to a complete digraph")
    g_emb.add_argument("graph")
    g_emb.add_argument("--out")
    g_emb.set_defaults(func=cmd_gen_complete_embed)

    g_par = gen_sub.add_parser("partition", help="equal-sum-split gadget for the given integers")
    g_par.add_argument("elements", type=int, nargs="+")
    g_par.add_argument("--out", help="prefix: writes <out>.wig and <out>.td")
    g_par.set_defaults(func=cmd_gen_partition)

    g_rnd = gen_sub.add_parser("random", help="seeded random digraph")
    g_rnd.add_argument("--n", type=int, required=True)
    g_rnd.add_argument("--p", type=float, required=True, help="arc probability")
    g_rnd.add_argument("--seed", type=int, required=True)
    g_rnd.add_argument(
        "--weight-model", choices=["dyadic", "uniform-rational"], default="dyadic"
    )
    g_rnd.add_argument("--bits", type=int, default=3)
    g_rnd.add_argument("--max-denominator", type=int, default=10)
    g_rnd.add_argument("--out")
    g_rnd.set_defaults(func=cmd_gen_random)

    decomp = sub.add_parser("decomp", help="build or validate decompositions")
    decomp_sub = decomp.add_subparsers(dest="action", required=True, parser_class=_Parser)

    d_build = decomp_sub.add_parser("build")
    d_build.add_argument("graph")
    d_build.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="min-fill",
    )
    d_build.add_argument("--out")
    d_build.set_defaults(func=cmd_decomp_build)

    d_val = decomp_sub.add_parser("validate")
    d_val.add_argument("graph")
    d_val.add_argument("decomposition")
    d_val.set_defaults(func=cmd_decomp_validate)

    validate = sub.add_parser("validate", help="check a coloring against a graph")
    validate.add_argument("graph")
    validate.add_argument("coloring")
    validate.set_defaults(func=cmd_validate)

    experiment = sub.add_parser("experiment", help="run a counterexample search")
    exp_sub = experiment.add_subparsers(dest="experiment_kind", required=True, parser_class=_Parser)
    conjecture = exp_sub.add_parser(
        "conjecture",
        help="search sub-cubic graphs (max one weight-1 edge per vertex) for a 3-chromatic one",
    )
    conjecture.add_argument("--max-n", type=int, default=10)
    conjecture.add_argument("--trials", type=int, default=100)
    conjecture.add_argument("--seed", type=int, default=0)
    conjecture.set_defaults(func=cmd_experiment_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a command's objects hold no reference cycles (tests check parse,
    # oracle, builds, DPs and bounds), so reference counting frees them
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InstanceTooLargeError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("guard: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _WriteError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
