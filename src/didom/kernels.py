"""Backend selection for the branch-and-bound kernels.

Two backends implement one algorithm: the pure-Python ``didom._bnb_py`` and
``didom._kernels``, its port to C (``_bnb.c``, bound with cffi).  Both take
bitsets of any width and return the same optima and witness masks after
the same search: ``min_set_cover`` gives ``(size, chosen-set mask)`` or
None, ``max_independent_set`` gives ``(size, vertex mask)``.  The compiled
backend solves every call whenever it imports, unless
``DIDOM_PURE_PYTHON`` is set in the environment at import.  Every call
takes an optional ``errors.Deadline``, which bounds the search and holds
its node count on either backend.

Inside the package the invariant solvers are the only callers:
``solvers.domination_number`` and ``solvers.total_domination_number`` call
``min_set_cover``, and ``solvers.packing_against`` calls
``max_independent_set``; they re-validate every answer.  Code that wants a
raw cover or independent set calls these two functions directly.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from didom import _bnb_py
from didom.errors import Deadline, SolveTimeout


class CompiledKernels:
    """The C kernels of a built ``didom._kernels`` module, called and
    answering like ``_bnb_py``: the search runs to ``deadline.at`` and adds
    its nodes to ``deadline.nodes``."""

    TIMED_OUT, NO_MEMORY = -2, -3  # return codes of _bnb.c

    def __init__(self, module):
        self._ffi, self._lib = module.ffi, module.lib

    def _call(self, fn, args, deadline, out_bytes) -> tuple[int, int]:
        """fn's return code, and the mask it stored in ``out_bytes`` bytes."""
        if deadline is None:
            deadline = Deadline()
        out = self._ffi.new("unsigned char[]", out_bytes)
        nodes = self._ffi.new("int64_t *")
        got = fn(*args, deadline.at, out, nodes)
        deadline.nodes += nodes[0]
        if got == self.TIMED_OUT:
            raise SolveTimeout("search exceeded its deadline")
        if got == self.NO_MEMORY:
            raise MemoryError("the compiled kernel could not allocate its search")
        return got, int.from_bytes(self._ffi.buffer(out), "little")

    def min_set_cover(self, masks, universe, deadline=None):
        if universe == 0:
            return 0, 0
        size = -(-universe.bit_length() // 64) * 8
        data = b"".join((m & universe).to_bytes(size, "little") for m in masks)
        args = (universe.to_bytes(size, "little"), data, len(masks), size // 8)
        out_bytes = (len(masks) // 64 + 1) * 8  # the n_sets / 64 + 1 words of _bnb.c
        got, chosen = self._call(self._lib.didom_min_set_cover, args, deadline, out_bytes)
        return None if got < 0 else (got, chosen)

    def max_independent_set(self, adj, n, deadline=None):
        if n == 0:
            return 0, 0
        size, full = -(-n // 64) * 8, (1 << n) - 1
        data = b"".join((adj[v] & full).to_bytes(size, "little") for v in range(n))
        return self._call(self._lib.didom_max_independent_set, (data, n), deadline, size)


try:
    from didom import _kernels  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - depends on build environment
    _compiled = None
else:
    _compiled = CompiledKernels(_kernels)

_FORCE_PURE = bool(os.environ.get("DIDOM_PURE_PYTHON"))


def has_compiled_kernels() -> bool:
    return _compiled is not None


def _backend():
    # read per call, so setting _compiled or _FORCE_PURE takes effect at once
    return _bnb_py if _compiled is None or _FORCE_PURE else _compiled


def backend_for(n_bits: int, n_sets: int = 0) -> str:
    """Name of the backend a call of this shape would use: the same for
    every shape, since both backends take any width."""
    return "pure" if _backend() is _bnb_py else "compiled"


def min_set_cover(
    masks: Sequence[int], universe: int, deadline: Optional[Deadline] = None
) -> Optional[tuple[int, int]]:
    return _backend().min_set_cover(masks, universe, deadline)


def max_independent_set(
    adj: Sequence[int], n: int, deadline: Optional[Deadline] = None
) -> tuple[int, int]:
    return _backend().max_independent_set(adj, n, deadline)
