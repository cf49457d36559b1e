"""Instance families and job lists for the four workloads.

Everything here is set-up: it runs before the timed loop and its cost
is part of `setup_s`.  A workload is a list of jobs; a job is one
instance text plus one route (`exact`, `fpt-indegree`, `fpt-budget`,
or `cli` for `wicolor solve` with the default `auto` method).

The graphs themselves are fixed: every generator gets a fixed seed
(the acceptance-sweep family uses seeds 1000..1199, as in
tests/test_acceptance.py), because solve times move by 20% to 20x
between generator seeds; see README.md.  The workload seed changes the
inputs without changing the work: it permutes the arc (edge) lines of
every file, flips the endpoints of undirected edge lines, and orders
the jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("sweep", "ladder", "subcubic", "cli-auto")

# Per-workload job deadline in seconds.  Each is at least three times
# the slowest job of the workload measured on a 2-core x86 host.
DEADLINE_S = {"sweep": 10.0, "ladder": 30.0, "subcubic": 10.0, "cli-auto": 10.0}

# The oracle is the reference wherever it is allowed to run.
ORACLE_MAX_N = 16


@dataclass
class Instance:
    """One graph as the program will read it, plus what the checks need."""

    name: str
    text: str
    graph: object  # WeightedDigraph the answer is checked against
    bits: int | None = None  # fixed-point precision for the budget DP
    strategy: str = "exact-small"  # decomposition built by library DP jobs
    path: Path | None = None  # file the CLI reads (cli-auto only)
    reference: int | None = None  # oracle answer, computed in set-up


@dataclass
class Job:
    instance: Instance
    route: str

    @property
    def name(self) -> str:
        return f"{self.instance.name}/{self.route}"


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    deadline_s: float
    # designed-failure cases, run once per traced run and reported
    # as probes.failed, never among the timed jobs
    probes: list[Job] = field(default_factory=list)


def ladder_arcs(k: int, rng: random.Random, weight) -> list[tuple[int, int, Fraction]]:
    """Arcs of the 2 x k ladder, both directions of every edge weighted
    by `weight(rng)`.  Column j holds vertices 2j+1 (top) and 2j+2
    (bottom), so min-fill eliminates it as a chain of depth 2k-1."""
    arcs = []
    for j in range(k):
        top, bottom = 2 * j + 1, 2 * j + 2
        pairs = [(top, bottom)]
        if j + 1 < k:
            pairs += [(top, top + 2), (bottom, bottom + 2)]
        for u, v in pairs:
            arcs.append((u, v, weight(rng)))
            arcs.append((v, u, weight(rng)))
    return arcs


def dyadic_weight(bits: int):
    scale = 1 << bits
    return lambda rng: Fraction(rng.randint(1, scale), scale)


def tenths_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 10), 10)


def ladder_digraph(wc: SimpleNamespace, k: int, bits: int, seed: int):
    """The seeded dyadic 2 x k ladder: same (k, bits, seed), same graph."""
    return wc.graph.WeightedDigraph(2 * k, ladder_arcs(k, random.Random(seed), dyadic_weight(bits)))


def _shuffled_text(wc: SimpleNamespace, graph, rng: random.Random) -> str:
    """The graph's file text with its body lines in seeded order (and,
    for undirected graphs, seeded endpoint order).  The parsers
    canonicalize, so every order parses to the same graph."""
    if isinstance(graph, wc.graph.WeightedDigraph):
        header, *body = wc.formats.serialize_digraph(graph).splitlines()
    else:
        header, *body = wc.formats.serialize_undirected(graph).splitlines()
        flipped = []
        for line in body:
            tag, u, v, w = line.split()
            if rng.random() < 0.5:
                u, v = v, u
            flipped.append(f"{tag} {u} {v} {w}")
        body = flipped
    rng.shuffle(body)
    return "\n".join([header, *body]) + "\n"


def _instance(wc, name, graph, rng, **kw) -> Instance:
    text = _shuffled_text(wc, graph, rng)
    digraph = graph if isinstance(graph, wc.graph.WeightedDigraph) else wc.graph.embed_undirected(graph)
    return Instance(name, text, digraph, **kw)


def _sweep(wc, rng) -> tuple[list[Job], list[Job]]:
    jobs = []
    for i in range(200):
        n = 2 + i % 11
        bits = 1 + i % 3 if n <= 6 else 1 + i % 2
        p = min(1.0, 2.5 / n) if n <= 6 else 1.25 / n
        G = wc.generators.random_instance(n, p, seed=1000 + i, weight_model="dyadic", bits=bits)
        inst = _instance(wc, f"sweep-{i:03d}", G, rng, bits=bits)
        jobs += [Job(inst, route) for route in ("exact", "fpt-indegree", "fpt-budget")]
    return jobs, []


def _ladder(wc, rng) -> tuple[list[Job], list[Job]]:
    jobs = []
    for k in (8, 16, 32, 64):
        for bits in (1, 2, 3):
            G = ladder_digraph(wc, k, bits, seed=10 * k + bits)
            inst = _instance(wc, f"ladder-k{k}-b{bits}", G, rng, bits=bits, strategy="min-fill")
            jobs += [Job(inst, "fpt-indegree"), Job(inst, "fpt-budget")]
    G = ladder_digraph(wc, 128, 1, seed=10 * 128 + 1)
    probe = _instance(wc, "ladder-k128-b1", G, rng, bits=1, strategy="min-fill")
    jobs.append(Job(probe, "fpt-budget"))
    return jobs, [Job(probe, "fpt-indegree")]


def _subcubic(wc, rng) -> tuple[list[Job], list[Job]]:
    jobs = []
    for n in range(8, 13):
        for seed in range(10):
            H = wc.generators.random_subcubic_instance(n, seed=seed)
            inst = _instance(wc, f"subcubic-n{n}-s{seed}", H, rng)
            jobs += [Job(inst, "fpt-indegree"), Job(inst, "exact")]
    return jobs, []


def _cli_auto(wc, rng) -> tuple[list[Job], list[Job]]:
    gen = wc.generators
    graphs = []
    for m in (6, 10, 14, 20):
        elements = random.Random(m)
        G, _ = gen.partition_instance([elements.randint(1, 20) for _ in range(m)])
        graphs.append((f"partition-m{m}", G))
    for k in (16, 32):
        for bits in (1, 3):
            graphs.append((f"ladder-k{k}-b{bits}", ladder_digraph(wc, k, bits, seed=10 * k + bits)))
    for k in (32, 128):
        arcs = ladder_arcs(k, random.Random(10 * k), tenths_weight)
        graphs.append((f"rational-ladder-k{k}", wc.graph.WeightedDigraph(2 * k, arcs)))
    for p, bits in ((0.4, 1), (0.4, 2), (0.5, 1)):
        graphs.append((f"dense-p{p}-b{bits}", gen.random_instance(10, p, seed=0, bits=bits)))
    for n, seed in ((12, 0), (18, 0), (24, 0), (18, 1)):
        graphs.append((f"subcubic-n{n}-s{seed}", gen.random_subcubic_instance(n, seed=seed)))
    by_name = {name: _instance(wc, name, G, rng) for name, G in graphs}
    probe_names = ("partition-m20", "rational-ladder-k128", "subcubic-n18-s1")
    jobs = [Job(inst, "cli") for name, inst in by_name.items() if name not in probe_names]
    return jobs, [Job(by_name[name], "cli") for name in probe_names]


_BUILDERS = {"sweep": _sweep, "ladder": _ladder, "subcubic": _subcubic, "cli-auto": _cli_auto}


def build_workload(wc: SimpleNamespace, name: str, seed: int, work_dir: Path) -> Workload:
    """Generate a workload's instances, write the CLI's input files and
    compute the oracle reference answers."""
    rng = random.Random(f"{name}:{seed}")
    jobs, probes = _BUILDERS[name](wc, rng)
    rng.shuffle(jobs)
    for job in jobs + probes:
        inst = job.instance
        if job.route == "cli" and inst.path is None:
            inst.path = work_dir / f"{inst.name}.{inst.text.split()[1]}"
            inst.path.write_text(inst.text, encoding="utf-8")
        if inst.reference is None and inst.graph.n <= ORACLE_MAX_N:
            inst.reference = wc.oracle.exact_chi_w(inst.graph).chromatic
    return Workload(name, jobs, DEADLINE_S[name], probes)
