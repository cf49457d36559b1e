"""Job execution, deadlines, answer checks and the closed measuring loop.

One client, one process, no threads: a job starts only after the
previous one has finished and been checked.  Checks run outside the
timed region.  A job that raises, is refused, or passes its deadline
fails and is charged its full deadline.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from workloads import Job, Workload

MODULES = ("formats", "decomposition", "fpt_indegree", "fpt_budget", "oracle", "graph", "cli", "generators")

# No run may pass this, whatever --seconds says: jobs not started by
# then count as failed and are charged their deadline.
RUN_CAP_S = 120.0

# A job repeats within a round until it has taken VISIT_S, at most
# VISIT_REPEATS times.
VISIT_S = 0.05
VISIT_REPEATS = 3

# Seconds per calibration round on the 2-core x86 host this benchmark
# was written on, when that host ran at its faster speed.
REFERENCE_ROUND_S = 6.0e-6
EDGE_ROUNDS = 50  # calibration just before and just after a job (~0.3 ms)
SAMPLE_ROUNDS = 40  # calibration sampled during a job (~0.25 ms) ...
SAMPLE_EVERY_S = 0.05  # ... every 50 ms of CPU time


class BenchmarkError(Exception):
    """A wrong answer or an unstable count: the run is invalid."""


class DeadlineExceeded(BaseException):
    """Raised into a job by SIGALRM; a BaseException so that no handler
    in the program can swallow it."""


def load_program(src: Path) -> SimpleNamespace:
    """Import the package fresh from `src` and return its modules.

    Any earlier import is dropped first, so that repeated set-ups each
    pay for the import.
    """
    for name in [m for m in sys.modules if m == "wicolor" or m.startswith("wicolor.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module("wicolor")
    if Path(package.__file__).resolve().parent != (src / "wicolor").resolve():
        raise ImportError(f"wicolor was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"wicolor.{m}") for m in MODULES})


class Speedometer:
    """How fast the host runs while a piece of work runs.

    A shared host's CPU speed switches between levels up to 2x apart
    every few seconds, and CPU time tracks wall time, so repeats do not
    average it out.  The speedometer times a fixed calibration round of
    interpreter work like the solvers' (a small dict, sorting, a tuple
    key, a table insert) just before and just after the work and, from
    a SIGPROF timer, every SAMPLE_EVERY_S of CPU time during it.  stop()
    returns the scale that turns the work's wall time into seconds at
    the reference speed (see README.md).  The round runs no code of the
    program and keeps a working set of a few kilobytes, so that neither
    a faster program nor a smaller one changes it.
    """

    def __init__(self):
        self._samples: list[float] = []
        self.overhead_s = 0.0  # time spent sampling during the work
        signal.signal(signal.SIGPROF, self._on_sample)

    @staticmethod
    def _round_s(rounds: int) -> float:
        # with the collector on, the round's allocations would set off
        # collections of the job's objects and time those instead
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            for r in range(rounds):
                table[tuple(sorted({i: (i * r) % 11 for i in range(30)}.items()))] = r
            return (time.perf_counter() - start) / rounds
        finally:
            if enabled:
                gc.enable()

    def _on_sample(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(self._round_s(SAMPLE_ROUNDS))
        self.overhead_s += time.perf_counter() - start

    def start(self) -> None:
        self._samples = [self._round_s(EDGE_ROUNDS)]
        self.overhead_s = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        """Stop sampling; return REFERENCE_ROUND_S / mean round time."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._samples.append(self._round_s(EDGE_ROUNDS))
        return REFERENCE_ROUND_S / (sum(self._samples) / len(self._samples))


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile (0 < q < 100, linear interpolation) of
    `values`, with the number of samples it rests on."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return value, len(ordered)


@dataclass
class Outcome:
    """What one finished job produced."""

    chromatic: int
    method: str  # route that actually solved (the CLI's choice for cli jobs)
    witness: dict[int, int] | None = None
    witness_path: Path | None = None  # the CLI's witness file, read back when checking
    counts: dict[str, int] = field(default_factory=dict)  # memo_stats() counts
    solver: object = None  # kept until the timer stops, then read for counts


@dataclass
class Execution:
    job: Job
    latency_s: float  # speed-adjusted: raw_s * scale; the deadline when failed
    outcome: Outcome | None
    error: str | None  # why it failed: exception name, "refused" or "deadline"
    spans: dict[str, list[float]] | None = None  # traced runs: see Tracer.end_job
    raw_s: float = 0.0  # measured wall time
    scale: float = 1.0  # Speedometer.stop() for the job


class Runner:
    """Runs jobs against one loaded copy of the program.

    Every call goes through the module attribute at call time, so a
    tracer that replaces those attributes sees it.
    """

    def __init__(self, wc: SimpleNamespace, deadline_s: float):
        self.wc = wc
        self.deadline_s = deadline_s
        self._armed = False
        self.speed = Speedometer()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            self._armed = False
            raise DeadlineExceeded()

    def run(self, job: Job, tracer=None) -> Execution:
        gc.collect()
        self.speed.start()
        if tracer is not None:
            tracer.begin_job(job.name)
        start = time.perf_counter()
        outcome = error = None
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            outcome = self._solve(job)
            elapsed = time.perf_counter() - start - self.speed.overhead_s
        except DeadlineExceeded:
            error = "deadline"
        except _Refused:
            error = "refused"
        except Exception as exc:  # crashes count as failed jobs, not as wrong answers
            error = type(exc).__name__
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        spans = tracer.end_job() if tracer is not None else None
        scale = self.speed.stop()
        if error is not None:
            return Execution(job, self.deadline_s, None, error, spans, self.deadline_s)
        if outcome.solver is not None:
            outcome.counts = _memo_counts(outcome.solver.memo_stats())
            outcome.solver = None
        return Execution(job, elapsed * scale, outcome, None, spans, elapsed, scale)

    def _solve(self, job: Job) -> Outcome:
        wc, inst = self.wc, job.instance
        if job.route == "cli":
            return self._solve_cli(job)
        graph = wc.formats.parse_graph_auto(inst.text)
        if not isinstance(graph, wc.graph.WeightedDigraph):
            graph = wc.graph.embed_undirected(graph)
        if job.route == "exact":
            result = wc.oracle.exact_chi_w(graph)
            return Outcome(result.chromatic, job.route, result.witness)
        decomposition = wc.decomposition.build_decomposition(graph, inst.strategy)
        if job.route == "fpt-indegree":
            solver = wc.fpt_indegree.IndegreeSolver(graph, decomposition)
        else:
            solver = wc.fpt_budget.BudgetSolver(graph, decomposition, inst.bits)
        result = solver.solve()
        return Outcome(result.chromatic, job.route, result.witness, solver=solver)

    def _solve_cli(self, job: Job) -> Outcome:
        path = job.instance.path
        witness_path = path.with_suffix(".col")
        witness_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.wc.cli.main(["solve", str(path), "--out", str(witness_path), "--stats"])
        if code == self.wc.cli.EXIT_GUARD:
            raise _Refused()
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        tokens = dict(token.split("=", 1) for token in out.getvalue().splitlines()[-1].split())
        counts = {key: int(value) for key, value in tokens.items() if key.startswith("memo_")}
        counts.pop("memo_max_key_width", None)
        return Outcome(int(tokens["chromatic"]), tokens["solver"], witness_path=witness_path, counts=counts)


class _Refused(Exception):
    pass


def _memo_counts(stats) -> dict[str, int]:
    """memo_stats() as the counts `wicolor solve --stats` prints."""
    if hasattr(stats, "color_entries"):
        return {
            "memo_entries": stats.entries,
            "memo_color_entries": stats.color_entries,
            "memo_distribute_entries": stats.distribute_entries,
            "memo_hits": stats.hits,
        }
    return {"memo_entries": stats.entries, "memo_hits": stats.hits}


class Checker:
    """Checks answers against references; holds the program's own check
    functions as they were before any tracer wrapped them."""

    def __init__(self, wc: SimpleNamespace):
        self.wc = wc
        self.parse_coloring = wc.formats.parse_coloring
        self.is_valid_coloring = wc.graph.is_valid_coloring
        self.build_decomposition = wc.decomposition.build_decomposition
        self.answers: dict[str, int] = {}  # instance name -> agreed answer (n > 16)
        self.counts: dict[str, dict[str, int]] = {}  # job name -> memo counts

    def check(self, execution: Execution) -> None:
        """Raise BenchmarkError naming the job on a wrong answer, an
        invalid witness, or memo counts that differ from an earlier
        repeat of the same job."""
        job, outcome = execution.job, execution.outcome
        if outcome is None:
            return
        inst, name = job.instance, job.name
        witness = outcome.witness
        if outcome.witness_path is not None:
            witness = self.parse_coloring(outcome.witness_path.read_text(encoding="utf-8"))
        G = inst.graph
        if sorted(witness) != list(G.vertices) or min(witness.values(), default=1) < 1:
            raise BenchmarkError(f"{name}: witness does not color exactly vertices 1..{G.n}")
        if max(witness.values(), default=1) > outcome.chromatic:
            raise BenchmarkError(f"{name}: witness uses more than {outcome.chromatic} colors")
        if not self.is_valid_coloring(G, witness):
            raise BenchmarkError(f"{name}: witness is not a valid coloring")
        expected = inst.reference
        if expected is None:
            expected = self._agreed_answer(job, outcome)
        if outcome.chromatic != expected:
            raise BenchmarkError(f"{name}: answered {outcome.chromatic}, expected {expected}")
        if outcome.chromatic > 1 and self.is_valid_coloring(G, {v: 1 for v in G.vertices}):
            raise BenchmarkError(f"{name}: answered {outcome.chromatic} but one color is valid")
        first = self.counts.setdefault(name, outcome.counts)
        if first != outcome.counts:
            raise BenchmarkError(f"{name}: memo counts {outcome.counts} differ from {first}")

    def _agreed_answer(self, job: Job, outcome: Outcome) -> int:
        """For graphs too large for the oracle: the first answer seen for
        the instance, from a job or from a second opinion.

        In `ladder` both DPs are jobs, so they must agree with each
        other.  A CLI answer is compared with the other DP where the
        weights allow it, else with the indegree DP over a min-degree
        decomposition instead of the CLI's own choice.
        """
        inst = job.instance
        if inst.name in self.answers:
            return self.answers[inst.name]
        agreed = outcome.chromatic
        if job.route == "cli":
            wc, G = self.wc, inst.graph
            bits = wc.fpt_budget.min_precision_bits(G)
            if outcome.method == "fpt-indegree" and bits is not None:
                D = self.build_decomposition(G, "min-fill")
                agreed = wc.fpt_budget.BudgetSolver(G, D, bits).solve().chromatic
            else:
                strategy = "min-fill" if outcome.method == "fpt-budget" else "min-degree"
                D = self.build_decomposition(G, strategy)
                agreed = wc.fpt_indegree.IndegreeSolver(G, D).solve().chromatic
        self.answers[inst.name] = agreed
        return agreed


@dataclass
class Phase:
    """Every execution of one measuring phase."""

    executions: list[Execution] = field(default_factory=list)

    def representatives(self) -> list[Execution]:
        """One execution per distinct job: a failed one if the job ever
        failed, else its median one (the lower of the middle two)."""
        by_job: dict[str, list[Execution]] = {}
        for ex in self.executions:
            by_job.setdefault(ex.job.name, []).append(ex)
        chosen = []
        for runs in by_job.values():
            failed = [ex for ex in runs if ex.error is not None]
            ranked = sorted(runs, key=lambda ex: ex.latency_s)
            chosen.append(failed[0] if failed else ranked[(len(ranked) - 1) // 2])
        return chosen

    def job_latencies_s(self) -> list[float]:
        """The latency of each distinct job, one value per job."""
        return [ex.latency_s for ex in self.representatives()]

    @property
    def failed(self) -> int:
        return sum(1 for e in self.executions if e.error is not None)


def measure(workload: Workload, runner: Runner, checker: Checker, seconds: float, tracer=None) -> list[Phase]:
    """Run the jobs in order, round after round, until every job has run
    once and `seconds` have passed (or RUN_CAP_S, charging every job not
    yet run its deadline).  Within a round a job repeats, up to
    VISIT_REPEATS times, until it has taken VISIT_S: short jobs then
    get as many samples as their neighbours in the latency order need
    for a steady median.

    Returns one phase, or with a tracer two: each job then runs once
    untraced and once traced, back to back and in alternating order, so
    that the difference between the phases is the tracing overhead and
    not drift of the host.
    """
    jobs = workload.jobs
    phases = [Phase()] + ([Phase()] if tracer else [])
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        if count >= len(jobs) and elapsed >= seconds:
            break
        if elapsed >= RUN_CAP_S:
            for phase in phases:
                phase.executions += [Execution(job, runner.deadline_s, None, "not run") for job in jobs[count:]]
            break
        job = jobs[count % len(jobs)]
        order = (False, True) if (count // len(jobs)) % 2 == 0 else (True, False)
        visit_s = 0.0
        for _ in range(VISIT_REPEATS):
            for traced in order if tracer else (False,):
                if traced:
                    tracer.install()
                    try:
                        execution = runner.run(job, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    execution = runner.run(job)
                    visit_s += execution.raw_s
                checker.check(execution)
                phases[traced].executions.append(execution)
            if visit_s >= VISIT_S:
                break
        count += 1
    return phases
