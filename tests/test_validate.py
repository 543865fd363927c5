"""The witness validators against an oracle written with Python sets
straight from the definitions."""

import ast
import random
from pathlib import Path

import pytest

from didom import validate
from didom.core import underlying_graph
from didom.families import random_digraph


def _graphs():
    # ~50 small random digraphs and their underlying graphs, n <= 7,
    # isolated vertices and sources included
    rng = random.Random(36)
    out = []
    for _ in range(50):
        n = rng.randint(1, 7)
        d = random_digraph(n, rng.uniform(0.0, 0.8), rng.getrandbits(32))
        out += [d, underlying_graph(d)]
    return out


def _oracle(d):
    """Per subset mask: whether it is dominating, total dominating, a
    packing and an open packing, each read off sets of vertices."""
    V = set(range(d.n))
    out_nb = [{w for w in V if d.has_arc(v, w)} for v in V]
    in_nb = [{u for u in V if d.has_arc(u, v)} for v in V]

    def disjoint(hoods):
        return all(not hoods[i] & hoods[j] for i in range(len(hoods)) for j in range(i))

    for mask in range(1 << d.n):
        S = {v for v in V if mask >> v & 1}
        dominated = set(S).union(*(out_nb[v] for v in S))
        totally = set().union(*(out_nb[v] for v in S))
        yield mask, (
            dominated == V,
            totally == V,
            disjoint([in_nb[v] | {v} for v in sorted(S)]),
            disjoint([in_nb[v] for v in sorted(S)]),
        )


def test_predicates_match_the_set_oracle():
    for d in _graphs():
        for mask, expected in _oracle(d):
            got = (
                validate.is_dominating_set(d, mask),
                validate.is_total_dominating_set(d, mask),
                validate._packing_by_definition(d, mask),
                validate.is_open_packing(d, mask),
            )
            assert got == expected, (d, mask)
            assert validate._packing_by_disjointness(d, mask) == expected[2], (d, mask)
            assert validate.is_packing(d, mask) == expected[2], (d, mask)


def test_packing_routes_disagreeing_raise(monkeypatch):
    d = _graphs()[0]
    monkeypatch.setattr(validate, "_packing_by_disjointness", lambda d, members: False)
    with pytest.raises(AssertionError, match="packing formulations disagree"):
        validate.is_packing(d, 0)


def test_reads_no_solver_code():
    # an independent audit: validate reads graphs and bitsets, never the
    # solvers, the auxiliary graphs or the kernels it checks
    found = set()
    for node in ast.walk(ast.parse(Path(validate.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "didom":
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("didom."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name.startswith("didom"))
    assert found == {"bitset", "core"}
