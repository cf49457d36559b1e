"""Spans around the program's layer boundaries, for the traced run only.

The tracer replaces public functions at the module attributes where
the program (and the benchmark's own job code) looks them up, and
restores them afterwards.  The untraced run never installs it.  Spans
are kept in memory, one list per run, and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# (module, attribute, span name); a class method is "Class.method"
TARGETS = (
    ("formats", "parse_graph_auto", "formats.parse"),
    ("formats", "serialize_coloring", "formats.serialize"),
    ("cli", "build_decomposition", "decomposition.build"),
    ("decomposition", "build_decomposition", "decomposition.build"),
    ("fpt_indegree", "validate_decomposition", "decomposition.validate"),
    ("fpt_budget", "validate_decomposition", "decomposition.validate"),
    ("fpt_indegree", "is_valid_coloring", "graph.check"),
    ("fpt_budget", "is_valid_coloring", "graph.check"),
    ("cli", "is_valid_coloring", "graph.check"),
    ("fpt_indegree", "IndegreeSolver.solve", "fpt_indegree.solve"),
    ("fpt_budget", "BudgetSolver.solve", "fpt_budget.solve"),
    ("cli", "exact_chi_w", "oracle.solve"),
    ("oracle", "exact_chi_w", "oracle.solve"),
    ("cli", "main", "cli.solve"),
)


@dataclass
class Span:
    name: str
    job: int  # index of the job execution it belongs to
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    failed: bool = False

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    def __init__(self, wc: SimpleNamespace):
        self.wc = wc
        self.spans: list[Span] = []
        self.jobs: list[str] = []  # job name of each execution
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._active = False
        self._first = 0

    # -- installing --------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            owner = getattr(self.wc, module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, failed=True)
                raise
            # the CLI reports refusals and errors as exit codes
            self._close(index, failed=span_name == "cli.solve" and result != 0)
            return result

        return traced

    # -- recording ---------------------------------------------------

    def begin_job(self, name: str) -> None:
        self.jobs.append(name)
        self._stack.clear()
        self._first = len(self.spans)
        self._active = True

    def end_job(self) -> dict[str, list[float]]:
        """Stop recording; return the job's spans by name as
        [self s, total s, calls, failed]."""
        self._active = False
        now = time.perf_counter()
        while self._stack:  # spans cut short by a deadline
            self._close(self._stack[-1], failed=True, now=now)
        out: dict[str, list[float]] = {}
        for span in self.spans[self._first:]:
            acc = out.setdefault(span.name, [0.0, 0.0, 0, 0])
            acc[0] += span.self_s
            acc[1] += span.total_s
            acc[2] += 1
            acc[3] += span.failed
        return out

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, len(self.jobs) - 1, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, failed: bool, now: float | None = None) -> None:
        span = self.spans[index]
        if span.end:  # already closed by end_job
            return
        span.end = time.perf_counter() if now is None else now
        span.failed = failed
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.total_s

    def write(self, path: Path) -> None:
        rows = [
            {
                "name": s.name,
                "job": self.jobs[s.job],
                "execution": s.job,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "failed": s.failed,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")
