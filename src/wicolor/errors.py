"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should
raise the most specific type that applies instead of bare ValueError
whenever the failure is a contract violation a caller can act on.
"""

from __future__ import annotations


class FormatError(ValueError):
    """Raised when a text input does not match its expected grammar.

    `line` is the 1-based line number of the offending line, or None
    when the problem is a whole-file property (e.g. a missing header).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.bare_message = message
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DuplicateEdgeError(ValueError):
    """Raised when a graph is given the same arc or edge twice, or a tree
    decomposition the same bag-tree edge.

    `index` is the 0-based position, in the input sequence, of the
    triple (or bag pair) that repeats an earlier one.
    """

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition fails.

    `witness` optionally names the vertex, edge or value that violates
    the precondition so callers can report it.
    """

    def __init__(self, message: str, witness: object = None):
        self.witness = witness
        super().__init__(message)


class InstanceTooLargeError(RuntimeError):
    """Raised when an exhaustive routine refuses an oversized instance.

    Exhaustive search is intentionally guarded: exceeding the guard is
    an error rather than a silent multi-hour run.
    """

    def __init__(self, message: str, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(message)


def guard_vertices(what: str, n: int, limit: int) -> None:
    """Refuse an instance of n vertices when `what` allows at most `limit`."""
    if n > limit:
        raise InstanceTooLargeError(
            f"{what} is limited to {limit} vertices, got {n}", size=n, limit=limit
        )
