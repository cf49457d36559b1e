"""Command-line front end.

Subcommands: solve, bounds, gen, decomp, validate, experiment.  Reports
are key=value tokens so runs stay easy to script against.  Exit codes:
0 success, 1 usage, 2 unreadable/unparseable input, 3 violated
precondition (also: validation subcommands reporting an invalid input),
4 refused resource guard.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

from . import formats
from .bounds import bound_report
from .decomposition import (
    EXACT_SMALL_LIMIT,
    TreeDecomposition,
    build_decomposition,
    require_valid,
    validate_decomposition,
)
from .errors import FormatError, InstanceTooLargeError, PreconditionError
from .fpt_budget import BudgetSolver, min_precision_bits
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
# gives up and a decomposition is built, and under `--method exact` on
# graphs above the 16-vertex guard before it refuses.  At 1-4 us per
# examined vertex on a 2-core x86 host, giving up costs about 0.1 s.
ORACLE_WORK_BUDGET = 50_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunReport:
    """One solver run, rendered as a single key=value line."""

    solver: str
    chromatic: int
    witness_path: str
    wall_ms: float
    stat_pairs: tuple[tuple[str, int], ...] = ()

    def as_line(self) -> str:
        tokens = [
            f"solver={self.solver}",
            f"chromatic={self.chromatic}",
            f"witness={self.witness_path}",
            f"time_ms={self.wall_ms:.1f}",
        ]
        tokens.extend(f"{key}={value}" for key, value in self.stat_pairs)
        return " ".join(tokens)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_digraph(path: str) -> tuple[WeightedDigraph, str]:
    from hashlib import sha256  # deferred: loading OpenSSL costs about 3.5 MB per process

    text = _read(path)
    digest = sha256(text.encode("utf-8")).hexdigest()[:12]
    graph = formats.parse_graph_auto(text)
    if isinstance(graph, UndirectedWeightedGraph):
        graph = embed_undirected(graph)
    return graph, digest


def _obtain_decomposition(args, G: WeightedDigraph) -> TreeDecomposition:
    if getattr(args, "decomposition", None):
        return formats.parse_decomposition(
            _read(args.decomposition), root_bag_id=getattr(args, "root", 1)
        )
    strategy = "exact-small" if G.n <= EXACT_SMALL_LIMIT else "min-fill"
    return build_decomposition(G, strategy)


def _write_witness(path: str, G: WeightedDigraph, witness: Coloring) -> None:
    if not is_valid_coloring(G, witness):  # defense in depth; solvers check too
        raise AssertionError("refusing to emit an invalid witness")
    Path(path).write_text(formats.serialize_coloring(witness), encoding="utf-8")


def _auto_method(G: WeightedDigraph, decomposition_given: bool) -> str | None:
    """The route `auto` takes once the budgeted oracle has given up, or
    None where there is none."""
    bits = min_precision_bits(G)
    if bits is not None and bits <= 4:
        return "fpt-budget"
    max_indegree = max((len(p) for p in G.in_neighbors.values()), default=0)
    if max_indegree <= 3:
        return "fpt-indegree"
    if G.n <= DEFAULT_SEARCH_LIMIT:
        return "exact"
    # exact would repeat the search that gave up; the indegree DP takes
    # any rational weights, but only on a given decomposition
    return "fpt-indegree" if decomposition_given else None


def _solve(
    G: WeightedDigraph,
    method: str,
    decomposition: Callable[[], TreeDecomposition],
    decomposition_given: bool = False,
) -> tuple[str, SolveResult, tuple[tuple[str, int], ...]]:
    """Run one method; return the method that answered, its result and
    its statistics.  `auto` runs the oracle under ORACLE_WORK_BUDGET and
    only when that runs out takes the route `_auto_method` picks, or
    refuses where it picks none.  `exact` searches without limit up to
    DEFAULT_SEARCH_LIMIT vertices and under ORACLE_WORK_BUDGET above it.
    A DP's statistics are its memo_stats() fields, in order."""
    if method == "auto":
        try:
            # the work budget, not the vertex guard, bounds this search
            result = exact_chi_w(G, max_n=G.n, work_limit=ORACLE_WORK_BUDGET)
        except InstanceTooLargeError as exc:
            method = _auto_method(G, decomposition_given)
            if method is None:
                raise
            method, result, stat_pairs = _solve(G, method, decomposition)
            return method, result, (*stat_pairs, ("oracle_work", exc.size), ("oracle_gave_up", 1))
        return "exact", result, (("oracle_work", result.examined),)
    if method == "exact":
        if G.n <= DEFAULT_SEARCH_LIMIT:
            result = exact_chi_w(G)
        else:  # above the vertex guard, the work budget bounds the search
            result = exact_chi_w(G, max_n=G.n, work_limit=ORACLE_WORK_BUDGET)
        if result is None:
            raise AssertionError("search up to n colors cannot fail")
        return method, result, ()
    if method == "fpt-indegree":
        solver = IndegreeSolver(G, decomposition())
    elif method == "fpt-budget":
        solver = BudgetSolver(G, decomposition())
    else:
        raise PreconditionError(f"unknown method {method!r}")
    result = solver.solve()
    stats = asdict(solver.memo_stats())
    return method, result, tuple((f"memo_{name}", value) for name, value in stats.items())


def _run_method(
    args,
    G: WeightedDigraph,
    method: str,
    out: str | None,
    decomposition: Callable[[], TreeDecomposition],
) -> RunReport:
    start = time.perf_counter()
    method, result, stat_pairs = _solve(G, method, decomposition, bool(args.decomposition))
    wall_ms = (time.perf_counter() - start) * 1000
    witness_path = "-"
    if out:
        _write_witness(out, G, result.witness)
        witness_path = out
    return RunReport(
        method, result.chromatic, witness_path, wall_ms, stat_pairs if args.stats else ()
    )


def cmd_solve(args) -> int:
    G, digest = _load_digraph(args.graph)
    print(f"instance={args.graph} digest={digest} n={G.n} arcs={len(G.arcs)}")
    # read or built on first use and shared by both DPs under --all-methods
    decomposition = functools.cache(lambda: _obtain_decomposition(args, G))
    if args.decomposition:  # a given file is checked even when no DP reads it
        require_valid(validate_decomposition(G, decomposition()))
    if args.all_methods:
        methods = ["exact", "fpt-budget", "fpt-indegree"]
        if min_precision_bits(G) is None:
            methods.remove("fpt-budget")
        methods.sort()
        for method in methods:
            out = f"{args.out}.{method}" if args.out else None
            print(_run_method(args, G, method, out, decomposition).as_line())
        return EXIT_OK
    print(_run_method(args, G, args.method, args.out, decomposition).as_line())
    return EXIT_OK


def cmd_bounds(args) -> int:
    G, _ = _load_digraph(args.graph)
    decomposition = None
    if args.decomposition:
        decomposition = _obtain_decomposition(args, G)
    elif args.build:
        decomposition = build_decomposition(G, args.build)
    for line in bound_report(G, decomposition).as_lines():
        print(line)
    return EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


def cmd_gen_defective(args) -> int:
    graph = formats.parse_graph_auto(_read(args.graph))
    if isinstance(graph, WeightedDigraph):
        graph = underlying_graph(graph)
    _emit(formats.serialize_digraph(reduce_defective(graph, args.d)), args.out)
    return EXIT_OK


def cmd_gen_complete_embed(args) -> int:
    G, _ = _load_digraph(args.graph)
    _emit(formats.serialize_digraph(complete_embed(G)), args.out)
    return EXIT_OK


def cmd_gen_partition(args) -> int:
    G, D = partition_instance(args.elements)
    graph_text = formats.serialize_digraph(G)
    decomposition_text = formats.serialize_decomposition(D, n=G.n)
    if args.out:
        Path(f"{args.out}.wig").write_text(graph_text, encoding="utf-8")
        Path(f"{args.out}.td").write_text(decomposition_text, encoding="utf-8")
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
    print(f"width={D.width} bags={len(D.bags)}")
    if args.out:
        Path(args.out).write_text(
            formats.serialize_decomposition(D, n=graph.n), encoding="utf-8"
        )
    else:
        print(formats.serialize_decomposition(D, n=graph.n), end="")
    return EXIT_OK


def cmd_decomp_validate(args) -> int:
    G, _ = _load_digraph(args.graph)
    D = formats.parse_decomposition(_read(args.decomposition), root_bag_id=args.root)
    violations = validate_decomposition(G, D)
    if not violations:
        print(f"valid=true width={D.width}")
        return EXIT_OK
    print("valid=false")
    for violation in violations:
        print(f"violation property={violation.property_index} {violation.message}")
    return EXIT_PRECONDITION


def cmd_validate(args) -> int:
    G, _ = _load_digraph(args.graph)
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
    solve.add_argument("--all-methods", action="store_true", help="run every applicable method")
    solve.add_argument("--decomposition", help="decomposition file (built when omitted)")
    solve.add_argument("--root", type=int, default=1, help="root bag id in the file")
    solve.add_argument("--out", help="write the witness coloring here")
    solve.add_argument(
        "--stats", action="store_true", help="report memo statistics and the oracle's work"
    )
    solve.set_defaults(func=cmd_solve)

    bounds = sub.add_parser("bounds", help="print all bound values")
    bounds.add_argument("graph")
    bounds.add_argument("--root", type=int, default=1)
    width_cap = bounds.add_mutually_exclusive_group()
    width_cap.add_argument("--decomposition", help="decomposition file for the width cap")
    width_cap.add_argument(
        "--build",
        choices=["min-degree", "min-fill", "exact-small"],
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
        choices=["min-degree", "min-fill", "exact-small"],
        default="min-fill",
    )
    d_build.add_argument("--out")
    d_build.set_defaults(func=cmd_decomp_build)

    d_val = decomp_sub.add_parser("validate")
    d_val.add_argument("graph")
    d_val.add_argument("decomposition")
    d_val.add_argument("--root", type=int, default=1)
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
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InstanceTooLargeError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
