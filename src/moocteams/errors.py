"""Exception types shared across the package, and the rules stated once for every
module: a student is known (:func:`require_known`), nothing is listed twice
(:func:`require_distinct`), a count or seed is an int (:func:`require_count`), a real
setting is a float in its interval (:func:`require_real`), an enum is parsed by
member name (:class:`ParsedEnum`).  The roster rules are in :mod:`.teams`."""

import math
from contextlib import suppress
from enum import Enum
from numbers import Integral, Real
from typing import Container, Hashable, Iterable


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


def require_distinct(items: Iterable[Hashable], context: str) -> None:
    """Raise ParameterError for the first of ``items`` listed twice in ``context``."""
    seen: set[Hashable] = set()
    for item in items:
        if item in seen:
            raise ParameterError(f"{item!r} is listed twice in {context}")
        seen.add(item)


def require_count(value, name: str, least: int = 1) -> int:
    """``value`` as a plain int; ParameterError unless it is an integral number,
    not a bool, of at least ``least``.  NaN and a float such as 2.0 are refused."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def require_real(value, name: str, low: float, high: float = math.inf,
                 low_open: bool = False, high_open: bool = False) -> float:
    """``value`` as a plain float; ParameterError unless it is a finite real number,
    not a bool, from ``low`` to ``high``, each end closed unless said open (so an
    infinite end is open)."""
    x = math.nan  # refused below; kept for a non-real and an int too large for a float
    if isinstance(value, Real) and not isinstance(value, bool):
        with suppress(OverflowError):
            x = float(value)
    if math.isfinite(x) and (low < x if low_open else low <= x) and (
            x < high if high_open else x <= high):
        return x
    rule = f"lie in {'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
    if (low, high) == (0, math.inf):
        rule = f"be {'positive' if low_open else 'non-negative'} and finite"
    raise ParameterError(f"{name} must {rule}, got {value!r}")


class ParsedEnum(Enum):
    @classmethod
    def parse(cls, value):
        """The member named ``value`` (any case); members pass through."""
        if isinstance(value, cls):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise ParameterError(f"unknown {cls.__name__} {value!r}; expected one of "
                                 f"{[m.name for m in cls]}") from None


class UndefinedMetricError(MoocteamsError, ValueError):
    """The requested metric has no defined value on this input."""


class InsufficientDataError(MoocteamsError, ValueError):
    """Not enough observations to compute the requested statistic."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration limit without converging."""
