"""Backend selection for the branch-and-bound kernels.

At import time we pick up the compiled extension when it is available; it
handles word-sized instances (at most 64 vertices / 64 sets), which is
where virtually all solver time is spent.  Wider instances, or every call
when ``DIDOM_PURE_PYTHON`` is set in the environment at import, use the
pure-Python reference implementation.  Both backends implement the same
algorithm and return identical results.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from didom import _bnb_py

try:
    from didom import _kernels as _compiled  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on build environment
    _compiled = None

_WORD = 64
_FORCE_PURE = bool(os.environ.get("DIDOM_PURE_PYTHON"))


def has_compiled_kernels() -> bool:
    return _compiled is not None


def backend_for(n_bits: int, n_sets: int = 0) -> str:
    """Name of the backend a call of this shape would use."""
    if (
        _compiled is not None
        and not _FORCE_PURE
        and n_bits <= _WORD
        and n_sets <= _WORD
    ):
        return "compiled"
    return "pure"


def min_set_cover(
    masks: Sequence[int], universe: int, deadline: Optional[float] = None
) -> Optional[tuple[int, tuple[int, ...]]]:
    if backend_for(universe.bit_length(), len(masks)) == "compiled":
        return _compiled.min_set_cover(list(masks), universe, deadline)
    return _bnb_py.min_set_cover(masks, universe, deadline)


def max_independent_set(
    adj: Sequence[int], n: int, deadline: Optional[float] = None
) -> tuple[int, int]:
    if backend_for(n) == "compiled":
        return _compiled.max_independent_set(list(adj), n, deadline)
    return _bnb_py.max_independent_set(adj, n, deadline)
