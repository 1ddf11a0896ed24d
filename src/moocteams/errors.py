"""Exception types shared across the package."""

from typing import Container, Iterable


class MoocteamsError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MoocteamsError, ValueError):
    """An argument violates its documented domain."""


class DataFormatError(MoocteamsError, ValueError):
    """Input data is unusable (wrong schema, mostly malformed, bad file)."""


class MissingNodeError(MoocteamsError, KeyError):
    """A referenced student is not present in the graph or table."""

    def __init__(self, node: str, context: str = "graph"):
        super().__init__(node)
        self.node = node
        self.context = context

    def __str__(self) -> str:
        return f"unknown student {self.node!r} (not in {self.context})"


def require_known(students: Iterable[str], known: Container[str],
                  context: str = "graph") -> None:
    """Raise MissingNodeError for the first of ``students`` not in ``known``."""
    for s in students:
        if s not in known:
            raise MissingNodeError(s, context)


class UndefinedMetricError(MoocteamsError, ValueError):
    """The requested metric has no defined value on this input."""


class InsufficientDataError(MoocteamsError, ValueError):
    """Not enough observations to compute the requested statistic."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration limit without converging."""
