"""Exception types shared across the package, and the deadline that
raises one of them."""

from math import inf
from time import monotonic
from typing import Optional


class CapacityError(ValueError):
    """Graph or product exceeds the supported vertex capacity."""


class InvalidArcError(ValueError):
    """An arc is a self-loop or references a vertex out of range; ``arc``
    is that arc."""

    def __init__(self, message: str, arc: tuple[int, int]):
        super().__init__(message)
        self.arc = arc


class ArcListParseError(ValueError):
    """Arc-list text is malformed; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SolveTimeout(Exception):
    """An exact solve exceeded its deadline (distinct from infeasibility)."""


class Deadline:
    """The bound of one exact search, the twin of ``_bnb.c``'s ``Search``.

    ``at`` is the ``time.monotonic()`` time that ``timeout_ms`` gives from
    now (inf for None: no bound).  The search calls ``poll()`` once per
    node; it counts the node in ``nodes`` and raises SolveTimeout once the
    clock has passed ``at``, so a search stops within one node of it.  A
    deadline passed to several searches bounds them together and counts
    all their nodes."""

    __slots__ = ("at", "nodes")

    def __init__(self, timeout_ms: Optional[float] = None):
        self.at = inf if timeout_ms is None else monotonic() + timeout_ms / 1000.0
        self.nodes = 0

    def poll(self) -> None:
        self.nodes += 1
        if monotonic() > self.at:
            raise SolveTimeout("search exceeded its deadline")


class CliqueLimitExceeded(RuntimeError):
    """Clique or packing enumeration hit its explosion guard."""
