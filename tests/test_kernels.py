import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from didom import _bnb_py, auxgraph, bitset, errors, families, kernels, products, solvers
from didom.core import build_digraph, build_undirected
from didom.errors import Deadline, SolveTimeout


def _exhaustive_cover_size(sets, universe):
    """Smallest number of sets covering universe, by subset enumeration."""
    for size in range(len(sets) + 1):
        for combo in itertools.combinations(sets, size):
            covered = 0
            for m in combo:
                covered |= m
            if covered & universe == universe:
                return size
    return None


def _exhaustive_alpha(adj, n):
    """Largest independent set size, by subset enumeration."""
    best = 0
    for mask in range(1 << n):
        if all(not adj[v] & mask for v in bitset.to_list(mask)):
            best = max(best, mask.bit_count())
    return best


def _run(kernel, fn, *args):
    """fn of ``kernel`` on args, and the search nodes it took."""
    deadline = Deadline()
    return getattr(kernel, fn)(*args, deadline), deadline.nodes


def _solve(request, backend, fn, *args):
    """fn of the named backend on args, and the search nodes it took."""
    kernel = _bnb_py if backend == "pure" else request.getfixturevalue("compiled_kernels")
    return _run(kernel, fn, *args)


def _agree(compiled_kernels, fn, *args):
    """fn's answer on args and the search nodes it took, once both backends
    give the same answer after the same nodes."""
    pure = _run(_bnb_py, fn, *args)
    assert _run(compiled_kernels, fn, *args) == pure
    return pure


def _run_pure(script):
    """The exit code, stdout and stderr of ``script`` run by a fresh Python
    on the pure backend."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, DIDOM_PURE_PYTHON="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _wide_system():
    # 45 disjoint pairs over 90 elements, wider than a 64-bit word
    n = 90
    return [0b11 << i for i in range(0, n, 2)], bitset.full(n)


def _closed_neighbourhoods(left, right):
    prod, _ = products.cartesian_product(
        families.build_family(left), families.build_family(right)
    )
    return [prod.out_closed(v) for v in range(prod.n)], bitset.full(prod.n)


@st.composite
def set_systems(draw):
    """Up to 14 sets over at most 12 elements, with duplicate and nested sets
    inserted at random positions, so that equal coverages meet on both sides
    of the lower-index tie rule and subsumption drops run.  Small sets make
    the greedy incumbent miss the optimum often enough for the search to
    matter.  The universe is the union of the sets, all n elements, or a
    random part of the union, so some sets stick out of it and some are
    empty inside it."""
    n = draw(st.integers(1, 12))
    full = bitset.full(n)
    small = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(bitset.from_iter)
    sets = draw(st.lists(st.one_of(small, st.integers(0, full)), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 14 - len(sets)))):
        base = sets[draw(st.integers(0, len(sets) - 1))]
        other = draw(st.integers(0, full))
        derived = draw(st.sampled_from((base, base & other, base | other)))
        sets.insert(draw(st.integers(0, len(sets))), derived)
    union = 0
    for m in sets:
        union |= m
    part = union & draw(st.integers(1, full))
    return sets, draw(st.sampled_from((union, full, part)))


@st.composite
def sparse_systems(draw):
    """7-14 sets of 2-6 elements over 10-16 elements, covering the union:
    the mixed set sizes leave searches where the packing loop finishes and
    its remainder term, which weighs the largest sets, decides the prune."""
    n = draw(st.integers(10, 16))
    element_sets = st.lists(st.integers(0, n - 1), min_size=2, max_size=6, unique=True)
    sets = draw(st.lists(element_sets.map(bitset.from_iter), min_size=7, max_size=14))
    universe = 0
    for m in sets:
        universe |= m
    return sets, universe


@st.composite
def graphs(draw):
    """Adjacency masks of a graph on at most 12 vertices; the edge set is
    drawn, then thinned or thickened by a second draw, so sparse, dense and
    even-odds graphs all occur."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, bitset.full(len(pairs))))
    other = draw(st.integers(0, bitset.full(len(pairs))))
    bits = draw(st.sampled_from((bits, bits & other, bits | other)))
    adj = [0] * n
    for k, (u, v) in enumerate(pairs):
        if bits >> k & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj, n


class TestPureSetCover:
    def test_forced_chain(self):
        # element 0 only in set 0; the rest follows
        result = _bnb_py.min_set_cover([0b011, 0b110, 0b100], 0b111)
        assert result[0] == 2

    def test_single_covering_set(self):
        assert _bnb_py.min_set_cover([0b111], 0b111) == (1, 0b1)

    def test_infeasible(self):
        assert _bnb_py.min_set_cover([0b001, 0b010], 0b111) is None

    def test_empty_universe(self):
        assert _bnb_py.min_set_cover([0b1], 0) == (0, 0)

    def test_example_from_three_sets(self):
        # universe {0,1,2}: sets {0,1}, {1,2}, {2} -> optimum 2
        size, chosen = _bnb_py.min_set_cover([0b011, 0b110, 0b100], 0b111)
        assert size == 2 and chosen.bit_count() == 2
        covered = 0
        for i in bitset.to_list(chosen):
            covered |= [0b011, 0b110, 0b100][i]
        assert covered == 0b111

    def test_matches_exhaustive(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(1, 8)
            k = rng.randint(1, 6)
            sets = [rng.getrandbits(n) for _ in range(k)]
            universe = bitset.full(n)
            result = _bnb_py.min_set_cover(sets, universe)
            assert (result[0] if result else None) == _exhaustive_cover_size(
                sets, universe
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(set_systems())
    def test_differential_random_systems(self, system):
        sets, universe = system
        result = _bnb_py.min_set_cover(sets, universe)
        best = _exhaustive_cover_size(sets, universe)
        assert (result[0] if result else None) == best
        if result is not None:
            size, chosen = result
            assert chosen >> len(sets) == 0 and chosen.bit_count() == size
            covered = 0
            for i in bitset.to_list(chosen):
                covered |= sets[i]
            assert covered & universe == universe

    def test_wide_instance(self):
        # beyond 64 bits: pure backend handles arbitrary width
        size, chosen = _bnb_py.min_set_cover(*_wide_system())
        assert size == 45

    def test_search_deeper_than_recursion_limit(self):
        # gamma of 200 disjoint bidirected 4-cycles: no root bound certifies
        # greedy's cover, and the search path grows past 150 picks, so a
        # search on the call stack would raise RecursionError under that
        # limit instead of running until its deadline
        script = """
            import sys
            from didom.core import build_digraph
            from didom.errors import Deadline, SolveTimeout
            from didom.solvers import domination_number
            cycle = [(v, (v + 1) % 4) for v in range(4)]
            arcs = [(4 * c + a, 4 * c + b) for c in range(200) for u, v in cycle
                    for a, b in ((u, v), (v, u))]
            d = build_digraph(800, arcs)
            sys.setrecursionlimit(150)
            try:
                domination_number(d, deadline=Deadline(500))
            except SolveTimeout:
                print("timeout")
        """
        assert _run_pure(script) == (0, "timeout\n", "")


# (left, right, nodes, witness) of gamma(left [] right)
_PINNED_TREES = [
    ("Gm:2", "Gm:3", 34, (2, 4, 6, 7, 15, 17, 19, 21, 29, 31, 33)),
    ("Gm:3", "Gm:3", 66, (1, 3, 5, 9, 11, 13, 14, 23, 25, 27, 28, 37, 39, 41, 42)),
    ("K1star", "path:7", 139, (0, 2, 5, 15, 17, 18, 20, 28, 30, 31, 33, 43, 46, 48)),
    ("cycle:5", "path:7", 335, (1, 4, 8, 11, 12, 15, 16, 20, 21, 25, 30, 34)),
    ("chord5", "path:7", 117, (1, 5, 7, 10, 13, 17, 22, 26, 29, 31, 33)),
    ("fig5corona", "path:8", 111, (2, 6, 7, 8, 12, 18, 22, 24, 28, 34, 38, 41, 43, 46)),
    # larger trees, where most nodes skip unchanged sets in the incremental
    # subsumption pass
    (
        "Gm:3", "Gm:4", 127,
        (2, 4, 6, 8, 9, 19, 21, 23, 25, 27, 37, 39, 41, 43, 45, 55, 57, 59, 61),
    ),
    (
        "K1star", "path:10", 949,
        (1, 2, 5, 8, 15, 20, 23, 27, 29, 36, 41, 42, 44, 48, 56, 60, 63, 66, 69),
    ),
    ("cycle:5", "path:9", 966, (1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 43)),
    # gamma(Gm:m [] Gm:m) = m^2 + 2m, the paper's dominating set being optimal
    (
        "Gm:4", "Gm:4", 225,
        (1, 3, 5, 7, 11, 13, 15, 17, 18, 29, 31, 33, 35, 36, 47, 49, 51, 53, 54,
         65, 67, 69, 71, 72),
    ),
    (
        "Gm:5", "Gm:5", 732,
        (1, 3, 5, 7, 9, 13, 15, 17, 19, 21, 22, 35, 37, 39, 41, 43, 44, 57, 59, 61,
         63, 65, 66, 79, 81, 83, 85, 87, 88, 101, 103, 105, 107, 109, 110),
    ),
    # gamma(Hm:k) = 6k, the half-Vizing family; G [] path:1 is G itself
    (
        "Hm:3", "path:1", 367,
        (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19, 21, 22, 24, 25),
    ),
    (
        "Hm:4", "path:1", 2605,
        (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19, 21, 22, 24, 25, 27, 28,
         30, 31, 33, 34),
    ),
    (
        "Gm:6", "Gm:6", 1941,
        (1, 3, 5, 7, 9, 11, 15, 17, 19, 21, 23, 25, 26, 41, 43, 45, 47, 49, 51, 52,
         67, 69, 71, 73, 75, 77, 78, 93, 95, 97, 99, 101, 103, 104, 119, 121, 123,
         125, 127, 129, 130, 145, 147, 149, 151, 153, 155, 156),
    ),
]
# the node count of each tree when it was first pinned: it names the test,
# so re-pinning a count after a change to the search keeps the test ids
_FIRST_PINNED_NODES = (
    57, 435, 217, 609, 340, 199, 1005, 2117, 2008, 444, 1467, 367, 2605, 1941
)


# (m, in-neighbourhood graph, nodes, witness) of the independent-set search
# on that graph of Gm:m [] Gm:m: rho on the closed one, rho-open on the open
_PINNED_PACKINGS = [
    (3, "closed", 121, (0, 8, 16, 18, 20, 24, 30, 32, 34, 40, 44, 46, 48)),
    (
        3, "open", 517,
        (2, 4, 6, 9, 13, 16, 17, 18, 20, 25, 29, 30, 32, 34, 43, 44, 46, 48),
    ),
    (
        4, "closed", 861,
        (0, 10, 20, 22, 24, 26, 30, 38, 40, 42, 44, 50, 56, 58, 60, 62, 70, 74,
         76, 78, 80),
    ),
    (
        4, "open", 25815,
        (2, 4, 6, 8, 11, 15, 17, 20, 21, 22, 24, 26, 31, 37, 38, 40, 42, 44, 55,
         56, 58, 60, 62, 73, 74, 76, 78, 80),
    ),
]


class TestSearchTreePinned:
    """Node counts and witnesses of the kernels on fixed products.

    The counts do not depend on the machine: any change to the branching
    order, tie-breaks, reductions or bounds moves them.  Both backends must
    give the same tree.  The pure cases keep the ids they had before the
    compiled ones were added.
    """

    @pytest.mark.parametrize(
        "backend, left, right, nodes, witness",
        [
            pytest.param(
                backend, *case,
                id=("" if backend == "pure" else "compiled-")
                + f"{case[0]}-{case[1]}-{first}-witness{k}",
            )
            for k, (case, first) in enumerate(
                zip(_PINNED_TREES, _FIRST_PINNED_NODES, strict=True)
            )
            for backend in ("pure", "compiled")
        ],
        indirect=["backend"],
    )
    def test_cartesian_domination_tree(self, request, backend, left, right, nodes, witness):
        result, count = _solve(
            request, backend, "min_set_cover", *_closed_neighbourhoods(left, right)
        )
        assert result == (len(witness), bitset.from_iter(witness))
        assert count == nodes
        # the solver takes the same tree, counted on the caller's deadline
        prod, _ = products.cartesian_product(
            families.build_family(left), families.build_family(right)
        )
        deadline = Deadline()
        assert solvers.domination_number(prod, deadline=deadline) == result
        assert deadline.nodes == nodes

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_branch_tie_goes_to_largest_live_set(self, request, backend):
        # elements 0-6 each lie in two sets, so all seven tie on the fewest
        # live sets at the root; element 0's sets have two elements and
        # element 1's four, so the search branches on element 1: 3 nodes,
        # where branching on element 0, the lowest index, would take 5
        sets = [bitset.from_iter(s) for s in (
            (0, 2), (5, 6), (0, 7), (1, 2, 4, 7), (3, 4, 5, 7), (1, 3, 6, 7),
        )]
        result, count = _solve(request, backend, "min_set_cover", sets, bitset.full(8))
        assert result == (3, bitset.from_iter((0, 4, 5)))
        assert count == 3

    @pytest.mark.parametrize("backend", ["pure", "compiled"], indirect=True)
    @pytest.mark.parametrize(
        "m, graph, nodes, witness", _PINNED_PACKINGS,
        ids=[f"Gm:{m}-{graph}-{nodes}" for m, graph, nodes, _ in _PINNED_PACKINGS],
    )
    def test_product_packing_tree(self, request, backend, m, graph, nodes, witness):
        family = families.build_family(f"Gm:{m}")
        prod, _ = products.cartesian_product(family, family)
        aux = getattr(auxgraph, f"{graph}_in_neighborhood_graph")(prod)
        result, count = _solve(request, backend, "max_independent_set", list(aux.adj), aux.n)
        assert result == (len(witness), bitset.from_iter(witness))
        assert count == nodes
        # no root bound certifies the solver's greedy packing, so it takes
        # the same tree, counted on the caller's deadline
        solve = solvers.packing_number if graph == "closed" else solvers.open_packing_number
        deadline = Deadline()
        assert solve(prod, deadline=deadline) == result
        assert deadline.nodes == nodes

    def test_all_maximum_packings_counts_both_searches(self, backend, monkeypatch):
        # one deadline counts the packing solve, the pinned 121 nodes, and
        # the enumeration of the 6 maximum packings after it; a stand-in for
        # the solve that takes no node leaves the enumeration's alone
        gm = families.build_family("Gm:3")
        prod, _ = products.cartesian_product(gm, gm)
        both = Deadline()
        packs = solvers.all_maximum_packings(prod, deadline=both)
        monkeypatch.setattr(solvers, "packing_against", lambda d, gamma, deadline: (13, 0))
        enumeration = Deadline()
        assert solvers.all_maximum_packings(prod, deadline=enumeration) == packs
        assert (len(packs), both.nodes, enumeration.nodes) == (6, 121 + 190_382, 190_382)


class TestPureMis:
    def test_edgeless(self):
        assert _bnb_py.max_independent_set([0, 0, 0], 3)[0] == 3

    def test_complete(self):
        adj = [0b110, 0b101, 0b011]
        assert _bnb_py.max_independent_set(adj, 3)[0] == 1

    def test_path(self):
        adj = [0b0010, 0b0101, 0b1010, 0b0100]
        size, witness = _bnb_py.max_independent_set(adj, 4)
        assert size == 2
        assert witness in (0b0101, 0b1001, 0b1010)

    def test_matches_exhaustive(self):
        rng = random.Random(4)
        for _ in range(150):
            n = rng.randint(1, 9)
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            size, witness = _bnb_py.max_independent_set(adj, n)
            assert size == _exhaustive_alpha(adj, n)
            assert witness.bit_count() == size
            assert all(not adj[v] & witness for v in bitset.to_list(witness))

    def test_search_deeper_than_recursion_limit(self):
        # rho-open of 200 out-stars K1,3 and a bidirected 5-cycle: greedy's
        # set misses the clique cover, and the search path grows past 150
        # takes, so a search on the call stack would raise RecursionError
        # under that limit instead of running until its deadline
        script = """
            import sys
            from didom.core import build_digraph
            from didom.errors import Deadline, SolveTimeout
            from didom.solvers import open_packing_number
            arcs = [(4 * i, 4 * i + k) for i in range(200) for k in (1, 2, 3)]
            arcs += [(800 + v, 800 + (v + s) % 5) for v in range(5) for s in (1, 4)]
            d = build_digraph(805, arcs)
            sys.setrecursionlimit(150)
            try:
                open_packing_number(d, deadline=Deadline(500))
            except SolveTimeout:
                print("timeout")
        """
        assert _run_pure(script) == (0, "timeout\n", "")


class TestRootCertificate:
    """A greedy answer that meets the root bound is returned with 0 search
    nodes.  Every such answer must be optimal, and the compiled kernel must
    certify exactly the same solves."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(set_systems())
    # greedy takes {0,1,2,3} and needs 3 sets; the root bound is the optimum 2
    @example(system=([0b1111, 0b10011, 0b101100, 0b10000, 0b100000], 0b111111))
    def test_certified_cover_is_optimal(self, compiled_kernels, system):
        sets, universe = system
        pure, nodes = _agree(compiled_kernels, "min_set_cover", sets, universe)
        if nodes == 0 and pure is not None:
            assert pure[0] == _exhaustive_cover_size(sets, universe)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(graphs())
    # minimum-degree greedy finds 2; the clique cover bound is α = 3
    @example(graph=([44, 20, 3, 33, 34, 25], 6))
    def test_certified_independent_set_is_maximum(self, compiled_kernels, graph):
        adj, n = graph
        pure, nodes = _agree(compiled_kernels, "max_independent_set", adj, n)
        if nodes == 0:
            assert pure[0] == _exhaustive_alpha(adj, n)


    def test_size_bound_needs_no_element_table(self, monkeypatch):
        # greedy's first pick covers all three elements, so ceil(3 / 3) = 1
        # certifies it before covers and conflict exist for the conflict bound
        def no_table(*args):
            raise AssertionError("the conflict bound ran before the size bound")

        monkeypatch.setattr(_bnb_py, "_conflict_bound", no_table)
        assert _bnb_py.min_set_cover([0b111, 0b001], 0b111) == (1, 0b1)

    @pytest.mark.parametrize(
        "sets, universe",
        [
            pytest.param([0b011, 0b001], 0b111, id="greedy-stalls-midway"),
            pytest.param([], 0b1, id="no-sets"),
        ],
    )
    def test_greedy_finds_infeasibility(self, compiled_kernels, sets, universe):
        # the greedy cover, not a union pass, finds the element no set holds
        assert _agree(compiled_kernels, "min_set_cover", sets, universe) == (None, 0)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_dag_sample_root_counts(self, request, backend):
        # domination covers of 1,000 seeded DAGs on 5-9 vertices: the
        # conflict packing and the size bound certify 749 of them at the
        # root (251 search nodes in all); the ordered packing adds 190
        certified = nodes = 0
        for seed in range(1000):
            d = families.random_dag(5 + seed % 5, 0.1 + 0.1 * (seed % 7), seed)
            sets = [d.out_closed(v) for v in range(d.n)]
            _, count = _solve(request, backend, "min_set_cover", sets, bitset.full(d.n))
            certified += count == 0
            nodes += count
        assert (certified, nodes) == (939, 61)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_ordered_packing_certifies_tstar_product(self, request, backend):
        # gamma(Tstar(path:2) [] path:5) = 20 on 70 vertices: only the
        # ordered packing meets the greedy cover, which took 1 node before
        result, count = _solve(
            request, backend, "min_set_cover",
            *_closed_neighbourhoods("Tstar(path:2)", "path:5"),
        )
        assert result[0] == 20
        assert count == 0


class TestBackendAgreement:
    """The compiled kernel must reproduce the reference exactly: same optima,
    same witnesses, same search-node counts, at every width."""

    def test_cover_agreement(self, compiled_kernels):
        rng = random.Random(9)
        for _ in range(500):
            n = rng.randint(1, 14)
            k = rng.randint(1, 12)
            sets = [rng.getrandbits(n) for _ in range(k)]
            _agree(compiled_kernels, "min_set_cover", sets, bitset.full(n))

    def test_cover_sparse_systems(self, compiled_kernels):
        # 12-16 elements in 10-16 sets of 2-4: large enough that the cheap
        # bounds often fail and the packing bound decides the prune
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(12, 16)
            sets = [
                bitset.from_iter(rng.sample(range(n), rng.randint(2, 4)))
                for _ in range(rng.randint(10, 16))
            ]
            universe = 0
            for m in sets:
                universe |= m
            (size, _), _ = _agree(compiled_kernels, "min_set_cover", sets, universe)
            assert size == _exhaustive_cover_size(sets, universe)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sparse_systems())
    # The optimum is 4 after 13 nodes; without the remainder term, or with
    # its ceiling taken as a floor, after 15.  A reach from the smallest live
    # set of each kept element, not the largest, returns 5 after 1 node, and
    # a max_cov over the sets outside the kept families prunes at 10 nodes.
    @example(
        system=(
            [17225, 48, 34880, 1040, 3621, 4106, 16515, 45472, 21073, 41216,
             41232, 4165, 26757, 9348],
            0xFFFF,
        )
    )
    def test_cover_remainder_bound(self, compiled_kernels, system):
        sets, universe = system
        (size, _), _ = _agree(compiled_kernels, "min_set_cover", sets, universe)
        assert size == _exhaustive_cover_size(sets, universe)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(set_systems())
    # element 10 lies in all five sets and elements 0, 1, 4, 5, 8 are outside
    # the universe: the pure kernel's count for those must sort after every
    # live count, 5 included, or the packing bound prunes too much
    @example(system=([1161, 3590, 1101, 1664, 3264], 0b111011001100))
    def test_cover_agreement_random_systems(self, compiled_kernels, system):
        _agree(compiled_kernels, "min_set_cover", *system)

    def test_mis_agreement(self, compiled_kernels):
        rng = random.Random(10)
        for _ in range(500):
            n = rng.randint(1, 15)
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            _agree(compiled_kernels, "max_independent_set", adj, n)

    @pytest.mark.parametrize(
        "system",
        [
            # 45 disjoint pairs: certified at the root on both, after 0 nodes
            pytest.param(_wide_system, id="90-bits"),
            # 81 elements and 81 sets: gamma = 24 after 408 nodes
            pytest.param(lambda: _closed_neighbourhoods("Gm:4", "Gm:4"), id="Gm:4-Gm:4"),
            # 64 singletons: all chosen, the top one in the last bit of the
            # first word of the chosen-set mask
            pytest.param(lambda: ([1 << i for i in range(64)], bitset.full(64)), id="64-sets"),
        ],
    )
    def test_cover_agreement_over_64(self, compiled_kernels, system):
        _agree(compiled_kernels, "min_set_cover", *system())

    def test_sweep_digraphs(self, compiled_kernels):
        # seeded digraphs like the observation sweep's: n in 1..10, arc
        # densities 0.1-0.9; covers by closed and by open out-neighbourhoods,
        # independent sets of both in-neighbourhood graphs.  Most of these
        # solves are certified at the root; the pinned counts fail if the
        # certificate stops firing.
        rng = random.Random(12)
        certified = {"min_set_cover": 0, "max_independent_set": 0}
        for _ in range(300):
            d = families.random_digraph(
                rng.randint(1, 10), rng.choice((0.1, 0.2, 0.35, 0.5, 0.7, 0.9)),
                rng.getrandbits(32),
            )
            full = bitset.full(d.n)
            closed = auxgraph.closed_in_neighborhood_graph(d)
            open_ = auxgraph.open_in_neighborhood_graph(d)
            for fn, *args in (
                ("min_set_cover", [d.out_closed(v) for v in range(d.n)], full),
                ("min_set_cover", list(d.out_adj), full),
                ("max_independent_set", list(closed.adj), closed.n),
                ("max_independent_set", list(open_.adj), open_.n),
            ):
                pure, nodes = _agree(compiled_kernels, fn, *args)
                if pure is not None and nodes == 0:
                    certified[fn] += 1
        assert certified == {"min_set_cover": 407, "max_independent_set": 570}

    def test_mis_agreement_over_64(self, compiled_kernels):
        # packing number of cycle:9 [] path:8: 72 vertices, 3,507 nodes
        prod, _ = products.cartesian_product(
            families.build_family("cycle:9"), families.build_family("path:8")
        )
        aux = auxgraph.closed_in_neighborhood_graph(prod)
        (size, _), _ = _agree(compiled_kernels, "max_independent_set", list(aux.adj), aux.n)
        assert size == 16

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_mis_long_exclude_chain(self, request, backend):
        # rho of this dense 1,102-vertex DAG: its search excludes vertex
        # after vertex down one branch, which took the pure kernel past
        # Python's default recursion limit while it recursed per exclusion
        d = families.random_dag(1102, 0.4415223248933273, 3445702192)
        aux = auxgraph.closed_in_neighborhood_graph(d)
        (size, witness), count = _solve(
            request, backend, "max_independent_set", list(aux.adj), aux.n
        )
        assert (size, count, bitset.to_list(witness)) == (4, 2147, [86, 470, 666, 772])

    def test_dispatcher_uses_compiled_at_every_width(self, compiled_kernels, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", compiled_kernels)
        monkeypatch.setattr(kernels, "_FORCE_PURE", False)
        for shape in ((40, 40), (100, 10), (10, 100), (4096, 4096)):
            assert kernels.backend_for(*shape) == "compiled"
        # 81 bits that need a search: greedy exceeds every root bound
        monkeypatch.setattr(_bnb_py, "min_set_cover", lambda *args: pytest.fail("pure call"))
        deadline = Deadline()
        sets, universe = _closed_neighbourhoods("Gm:4", "Gm:4")
        assert kernels.min_set_cover(sets, universe, deadline)[0] == 24
        assert deadline.nodes > 0

    def test_dispatcher_env_override(self, compiled_kernels, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", compiled_kernels)
        monkeypatch.setattr(kernels, "_FORCE_PURE", True)
        assert kernels.backend_for(10, 10) == "pure"

    def test_dispatcher_without_extension(self, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", None)
        monkeypatch.setattr(kernels, "_FORCE_PURE", False)
        assert kernels.backend_for(10, 10) == "pure"
        assert kernels.min_set_cover([0b011, 0b110, 0b100], 0b111)[0] == 2


def test_compiled_source_is_strict_c99(c_compiler):
    # the source promises C99; any warning, in a port of a new bound say,
    # fails here
    source = Path(kernels.__file__).with_name("_bnb.c")
    flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    proc = subprocess.run([c_compiler, *flags, str(source)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestTimeouts:
    def _hard_cover(self):
        # sparse 4-element sets over 40 elements: a search of thousands of
        # nodes, where the deadline is checked on every one
        rng = random.Random(7)
        n, k = 40, 62
        sets = []
        for _ in range(k):
            m = 0
            for v in rng.sample(range(n), 4):
                m |= 1 << v
            sets.append(m)
        union = 0
        for m in sets:
            union |= m
        for v in bitset.to_list(bitset.full(n) & ~union):
            sets[v % k] |= 1 << v
        return sets, bitset.full(n)

    def _mis_graph(self):
        rng = random.Random(5)
        n = 30
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.2:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return adj, n

    def test_pure_timeout_raises(self):
        sets, universe = self._hard_cover()
        with pytest.raises(SolveTimeout):
            _bnb_py.min_set_cover(sets, universe, Deadline(-1000))  # already expired

    def test_compiled_timeout_raises(self, compiled_kernels):
        sets, universe = self._hard_cover()
        with pytest.raises(SolveTimeout):
            compiled_kernels.min_set_cover(sets, universe, Deadline(-1000))

    @pytest.mark.parametrize("kernel", ["cover", "mis"])
    def test_compiled_timeout_on_first_node(self, compiled_kernels, kernel):
        # every node reads the clock, so an expired deadline stops node 1
        args = self._hard_cover() if kernel == "cover" else self._mis_graph()
        fn = getattr(compiled_kernels, "min_set_cover" if kernel == "cover" else "max_independent_set")
        deadline = Deadline(-1000)
        with pytest.raises(SolveTimeout):
            fn(*args, deadline=deadline)
        assert deadline.nodes == 1

    def test_compiled_deadline_is_monotonic_time(self, compiled_kernels):
        # gamma(Hm:7) takes 946,071 nodes, over a third of a second compiled;
        # a deadline 50 ms after time.monotonic() must stop it long before
        # it finishes
        sets, universe = _closed_neighbourhoods("Hm:7", "path:1")
        start = time.monotonic()
        deadline = Deadline(50)
        with pytest.raises(SolveTimeout):
            compiled_kernels.min_set_cover(sets, universe, deadline)
        assert time.monotonic() - start < 1.0
        assert 1 < deadline.nodes < 946_071

    @pytest.mark.parametrize("search", ["cover", "mis", "partition", "packings", "cliques"])
    def test_pure_timeout_on_first_node_past_deadline(self, monkeypatch, search):
        # a fake clock that advances one tick per read: the search's one
        # deadline reads 0 and sets itself at 5.0, which the 6th node's read
        # passes; every search polls once per node, so node 6 must raise
        clock = itertools.count(0)
        monkeypatch.setattr(errors, "monotonic", lambda: next(clock))
        made = []
        init = Deadline.__init__

        def recorded(deadline, timeout_ms=None):
            made.append(deadline)
            init(deadline, timeout_ms)

        monkeypatch.setattr(Deadline, "__init__", recorded)
        with pytest.raises(SolveTimeout):
            if search == "cover":
                _bnb_py.min_set_cover(*self._hard_cover(), Deadline(5000))
            elif search == "mis":
                _bnb_py.max_independent_set(*self._mis_graph(), Deadline(5000))
            elif search == "partition":
                d = families.build_family("corona:n=20")
                solvers.partition_two_dominating_sets(d, deadline=Deadline(5000))
            elif search == "packings":
                # 16 disjoint bidirected edges: the packing number is
                # certified at the root, after 0 nodes, and 2^16 maximum
                # packings follow
                edges = [a for i in range(0, 32, 2) for a in ((i, i + 1), (i + 1, i))]
                solvers.all_maximum_packings(build_digraph(32, edges), deadline=Deadline(5000))
            else:
                # 8 disjoint edges have 2^8 maximal cliques
                g = build_undirected(16, [(i, i + 1) for i in range(0, 16, 2)])
                auxgraph.maximal_cliques(g, deadline=Deadline(5000))
        assert [deadline.nodes for deadline in made] == [6]
        assert next(clock) == 7

    def test_no_deadline_still_solves(self):
        sets, universe = self._hard_cover()
        result = _bnb_py.min_set_cover(sets, universe)
        assert result[0] == 12
