"""Verification records: the persisted outcome of one claim-check."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from didom import bitset
from didom.core import Digraph

HOLDS = "holds"
FAILS = "fails"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
TIMEOUT = "timeout"
ERROR = "error"  # the checker raised; extras["error"] holds the exception

VERDICTS = (HOLDS, FAILS, HYPOTHESIS_NOT_MET, TIMEOUT, ERROR)


@dataclass
class VerificationRecord:
    """One claim checked on one instance.

    ``witnesses`` maps witness names to sorted vertex-index lists; ``extras``
    carries claim-specific scalars (slack, factor invariants, ...) that no
    other field, and no other extra, already states.
    ``hypotheses_met`` is None on ``timeout`` and ``error`` records, whose
    checker stopped before it could tell.
    """

    claim: str
    instance: str
    hypotheses_met: Optional[bool]
    lhs: Optional[int]
    rhs: Optional[int]
    verdict: str
    witnesses: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    seed: Optional[int] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "instance": self.instance,
            "hypotheses_met": self.hypotheses_met,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timings else None,
            "seed": self.seed,
        }
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "VerificationRecord":
        raw = json.loads(line)
        return cls(
            claim=raw["claim"],
            instance=raw["instance"],
            hypotheses_met=raw["hypotheses_met"],
            lhs=raw["lhs"],
            rhs=raw["rhs"],
            verdict=raw["verdict"],
            witnesses=raw.get("witnesses") or {},
            elapsed_ms=raw.get("elapsed_ms") or 0.0,
            seed=raw.get("seed"),
            extras=raw.get("extras") or {},
        )


def digraph_descriptor(d: Digraph) -> str:
    """Stable inline descriptor: vertex count plus an arc-list digest.  The
    payload is ``arc_list_descriptor``'s, read off the out-masks row by row
    with no arc tuples."""
    names = [str(v) for v in range(d.n)]
    rows = []
    for u, out in enumerate(d.out_adj):
        if out:
            head = names[u] + ","
            rows.append(head + (";" + head).join([names[v] for v in bitset.iter_bits(out)]))
    return _descriptor(d.n, ";".join(rows))


def arc_list_descriptor(n: int, arcs: list[tuple[int, int]]) -> str:
    """``digraph_descriptor`` of the digraph on n vertices with these arcs,
    listed as ``Digraph.arcs`` lists them."""
    return _descriptor(n, ";".join(f"{u},{v}" for u, v in arcs))


def _descriptor(n: int, arc_text: str) -> str:
    digest = hashlib.sha1(f"{n};{arc_text}".encode("ascii")).hexdigest()[:12]
    return f"digraph:n={n},h={digest}"
