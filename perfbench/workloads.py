"""The four benchmark workloads.

A workload builds its inputs in its constructor (the set-up the benchmark
times), then runs whole rounds of the same operations; each round appends
one duration per item.  ``check`` audits everything a run produced against
the definitional checks in ``checks``, outside the timed region, and
returns one problem string per failing item.

didom is passed in as a namespace of imported modules, so this file can be
imported before didom is, and callers always look functions up through the
module attributes the tracer wraps.
"""

from __future__ import annotations

import json
import os
import random
from array import array
from pathlib import Path
from types import SimpleNamespace

import checks
from calibrate import clock
from checks import Arcs

VIZING = "conj:vizing-inequality"
ACYCLIC = "problem:acyclic-packing-domination"
GM_FAILURE = "family:Gm-vizing-failure"
# The two claims whose `fails` verdicts are findings, not errors: the
# product inequality is false in general, and the acyclic question is open.
EXPECTED_FAILS = frozenset({VIZING, ACYCLIC})
VERDICTS = frozenset({"holds", "fails", "hypothesis_not_met"})
# Labeled acyclic digraphs on 1..4 vertices (OEIS A003024).
LABELED_DAGS = {1: 1, 2: 3, 3: 25, 4: 543}


def half_bound(gamma_g: int, gamma_h: int) -> int:
    return -(-(gamma_g * gamma_h + max(gamma_g, gamma_h)) // 2)


class Workload:
    name = ""
    trace_rounds = 1

    def __init__(self, dd: SimpleNamespace, seed: int, quick: bool, out_dir: Path):
        self.dd = dd
        self.seed = seed
        self.times = array("f")  # one duration per finished item, reference ns
        self.cal = None  # the runner's Calibrator
        self.failed = 0  # operations that raised
        self.errors: list[str] = []
        self.records = 0  # records the verify layer handed back
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out = out_dir / f"{self.name}-{seed}-{os.getpid()}.jsonl"

    def run_round(self, r: int) -> int:
        """Run round r whole; return the number of items attempted."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the run wrote; called after ``check``."""

    def _raised(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def _factor(dd, spec: str) -> Arcs:
    d = dd.families.build_family(spec)
    return Arcs(d.n, d.arcs())


# ---------------------------------------------------------------------------
# verify-suite: the built-in default suite over a fixed range of seeds.
# ---------------------------------------------------------------------------


class VerifySuite(Workload):
    name = "verify-suite"
    trace_rounds = 8
    SEEDS = 32  # suite seeds built in set-up; rounds cycle through them

    def __init__(self, dd, seed, quick, out_dir):
        super().__init__(dd, seed, quick, out_dir)
        self.seeds = [seed * 1000 + i for i in range(2 if quick else self.SEEDS)]
        self.tasks = []
        for s in self.seeds:
            config = dd.verify.default_suite_config()
            config.seed = s
            self.tasks.append([self._timed(t) for t in dd.verify.build_tasks(config)])
        self.ends: list[int] = []  # file size after each round
        self.round_seeds: list[int] = []
        self.attempts = 0

    def _timed(self, task):
        run, times = task.run, self.times

        def timed():
            self.attempts += 1
            t = clock()
            record = run()
            times.append(self.cal.reference_ns(t, clock() - t))
            return record

        return type(task)(task.claim, timed)

    def run_round(self, r):
        k = r % len(self.seeds)
        before = self.attempts
        try:
            result = self.dd.verify.run_suite(self.tasks[k], out_path=str(self.out))
            self.records += len(result.records)
        except Exception as exc:  # one bad record must not hide the rest
            self._raised(f"suite seed {self.seeds[k]}", exc)
        self.ends.append(self.out.stat().st_size if self.out.exists() else 0)
        self.round_seeds.append(k)
        return self.attempts - before

    def check(self):
        problems = []
        gm1, chord5 = _factor(self.dd, "Gm:1"), _factor(self.dd, "chord5")
        # the paper's Fig. 1: gamma(Gm:1 [] chord5) < gamma(Gm:1) gamma(chord5)
        fig1 = checks.cartesian(gm1, chord5)
        fig1_rhs = checks.oracle(gm1, "gamma") * checks.oracle(chord5, "gamma")
        gm_squares = {}
        with open(self.out, "rb") as f:
            data = f.read()
        begin = 0
        for end, k in zip(self.ends, self.round_seeds):
            lines = data[begin:end].decode("ascii").splitlines()
            begin = end
            tag = f"suite seed {self.seeds[k]}"
            if len(lines) != len(self.tasks[k]):
                problems.append(f"{tag}: {len(lines)} records for {len(self.tasks[k])} tasks")
            fig1_records = 0
            for line in lines:
                rec = json.loads(line)
                claim, verdict = rec["claim"], rec["verdict"]
                where = f"{tag}: {claim} on {rec['instance']}"
                witness = checks.mask_of(rec["witnesses"].get("product_dominating_set", []))
                size = bin(witness).count("1")
                if verdict not in VERDICTS:
                    problems.append(f"{where}: verdict {verdict}")
                elif verdict == "fails" and claim not in EXPECTED_FAILS:
                    problems.append(f"{where}: unexpected fails")
                if claim == VIZING and rec["instance"] == "Gm:1|chord5":
                    fig1_records += 1
                    if verdict != "fails" or rec["rhs"] != fig1_rhs:
                        problems.append(f"{where}: {verdict} with rhs {rec['rhs']}, Fig. 1 fails")
                    elif size >= fig1_rhs or not checks.dominates(fig1, witness):
                        problems.append(f"{where}: counterwitness invalid")
                if claim == GM_FAILURE:
                    m = int(rec["instance"].split("|")[0].split(":")[1])
                    if m not in gm_squares:
                        gm = _factor(self.dd, f"Gm:{m}")
                        gm_squares[m] = checks.cartesian(gm, gm)
                    if verdict != "holds" or size != m * m + 2 * m:
                        problems.append(f"{where}: Gm set of size {size}, verdict {verdict}")
                    elif not checks.dominates(gm_squares[m], witness):
                        problems.append(f"{where}: Gm set does not dominate")
            if fig1_records != 1:
                problems.append(f"{tag}: {fig1_records} Vizing records on Gm:1|chord5")
        return problems

    def close(self):
        self.out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# acyclic-stream: the criterion-12 search, every record a JSON line.
# ---------------------------------------------------------------------------


class AcyclicStream(Workload):
    name = "acyclic-stream"
    trace_rounds = 1
    MAX_N, BUDGET, EXHAUSTIVE_N = 9, 10_000, 4
    ORACLE_SAMPLE = 48  # records per round re-solved by subset enumeration

    def __init__(self, dd, seed, quick, out_dir):
        super().__init__(dd, seed, quick, out_dir)
        self.budget = 300 if quick else self.BUDGET
        self.sink = open(self.out, "w", encoding="ascii")
        self.ends: list[int] = []

    def run_round(self, r):
        stream = self.dd.verify.search_acyclic_problem(
            max_n=self.MAX_N,
            budget=self.budget,
            seed=self.seed * 1000 + r,
            exhaustive_n=self.EXHAUSTIVE_N,
        )
        times, ref, write = self.times, self.cal.reference_ns, self.sink.write
        attempted = 0
        try:
            while True:
                attempted += 1
                t = clock()
                try:
                    record = next(stream)
                except StopIteration:
                    attempted -= 1
                    break
                write(record.to_json() + "\n")
                times.append(ref(t, clock() - t))
        except Exception as exc:
            self._raised(f"stream round {r}", exc)
        self.records += attempted
        self.ends.append(self.sink.tell())
        return attempted

    def check(self):
        self.sink.close()
        expected = sum(LABELED_DAGS.values()) + self.budget
        problems = []
        with open(self.out, "rb") as f:
            data = f.read()
        begin = 0
        for r, end in enumerate(self.ends):
            lines = data[begin:end].decode("ascii").splitlines()
            begin = end
            tag = f"stream round {r}"
            if len(lines) != expected:
                problems.append(f"{tag}: {len(lines)} records, expected {expected}")
            by_n = {}
            sample = set(random.Random(f"acyclic:{self.seed}:{r}").sample(
                range(len(lines)), min(self.ORACLE_SAMPLE, len(lines))
            ))
            for i, line in enumerate(lines):
                rec = json.loads(line)
                n = int(rec["instance"].split("n=")[1].split(",")[0])
                if rec["seed"] is None:
                    by_n[n] = by_n.get(n, 0) + 1
                problem = self._check_record(rec, n, i in sample)
                if problem:
                    problems.append(f"{tag} record {i}: {problem}")
            if by_n != LABELED_DAGS:
                problems.append(f"{tag}: exhaustive part {by_n}, expected {LABELED_DAGS}")
        return problems

    @staticmethod
    def _check_record(rec, n, oracle: bool):
        w = rec["witnesses"]
        d = Arcs(n, (tuple(a) for a in w["arcs"]))
        rho, gamma = rec["lhs"], rec["rhs"]
        pack, dom = checks.mask_of(w["packing"]), checks.mask_of(w["dominating_set"])
        if not checks.is_acyclic(d):
            return "instance has a directed cycle"
        if rho is None or gamma is None or rho > gamma:
            return f"rho={rho} gamma={gamma}, expected rho <= gamma"
        if rec["verdict"] != ("holds" if rho == gamma else "fails"):
            return f"verdict {rec['verdict']} for rho={rho} gamma={gamma}"
        if not checks.is_packing(d, pack) or bin(pack).count("1") != rho:
            return "packing witness invalid"
        if not checks.dominates(d, dom) or bin(dom).count("1") != gamma:
            return "dominating witness invalid"
        if oracle and (checks.oracle(d, "rho"), checks.oracle(d, "gamma")) != (rho, gamma):
            return "oracle disagrees"
        return None

    def close(self):
        if not self.sink.closed:
            self.sink.close()
        self.out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# observation-sweep: criterion 10, seven invariants of 10^4 random digraphs.
# ---------------------------------------------------------------------------


class ObservationSweep(Workload):
    name = "observation-sweep"
    trace_rounds = 1
    COUNT = 10_000
    ORACLE_SAMPLE = 48  # digraphs re-solved by subset enumeration
    DENSITIES = (0.1, 0.2, 0.35, 0.5, 0.7, 0.9)

    def __init__(self, dd, seed, quick, out_dir):
        super().__init__(dd, seed, quick, out_dir)
        rng = random.Random(f"sweep:{seed}")
        self.digraphs = []
        for _ in range(300 if quick else self.COUNT):
            n = rng.randint(1, 10)
            p = rng.choice(self.DENSITIES)
            self.digraphs.append(dd.families.random_digraph(n, p, rng.getrandbits(32)))
        self.first = None  # results of round 0, checked after the run
        self.mismatched_rounds = []

    def run_round(self, r):
        s, core, times, ref = self.dd.solvers, self.dd.core, self.times, self.cal.reference_ns
        results = []
        for i, d in enumerate(self.digraphs):
            t = clock()
            try:
                un = core.underlying_graph(d)
                results.append((
                    s.domination_number(d),
                    s.total_domination_number(d),
                    s.packing_number(d),
                    s.open_packing_number(d),
                    s.undirected_domination_number(un),
                    s.two_packing_number(un),
                    s.undirected_open_packing_number(un),
                ))
            except Exception as exc:
                self._raised(f"sweep round {r} digraph {i}", exc)
                results.append(None)
                continue
            times.append(ref(t, clock() - t))
        if self.first is None:
            self.first = results
        elif results != self.first:
            self.mismatched_rounds.append(r)
        return len(self.digraphs)

    def check(self):
        problems = [f"sweep round {r}: results differ from round 0" for r in self.mismatched_rounds]
        sample = set(random.Random(f"sweep-oracle:{self.seed}").sample(
            range(len(self.digraphs)), min(self.ORACLE_SAMPLE, len(self.digraphs))
        ))
        for i, (d, res) in enumerate(zip(self.digraphs, self.first)):
            if res is None:
                continue
            problem = self._check_one(Arcs(d.n, d.arcs()), res, i in sample)
            if problem:
                problems.append(f"digraph {i}: {problem}")
        return problems

    @staticmethod
    def _check_one(d: Arcs, res, oracle: bool):
        gamma, gamma_t, rho, rho_o, u_gamma, rho_2, u_rho_o = res
        un = d.symmetric()
        witnessed = (
            ("gamma", gamma, checks.dominates, d),
            ("rho", rho, checks.is_packing, d),
            ("rho_o", rho_o, checks.is_open_packing, d),
            ("undirected gamma", u_gamma, checks.dominates, un),
            ("2-packing", rho_2, checks.is_packing, un),
            ("undirected open packing", u_rho_o, checks.is_open_packing, un),
        )
        if gamma_t is not None:
            witnessed += (("gamma_t", gamma_t, checks.totally_dominates, d),)
        elif not checks.has_source(d):
            return "gamma_t missing on a digraph without a source"
        for what, (value, witness), holds, graph in witnessed:
            if bin(witness).count("1") != value or not holds(graph, witness):
                return f"{what} witness invalid"
        # the six inequalities of acceptance criterion 10
        if rho_2[0] > rho[0]:
            return "2-packing of the underlying graph exceeds rho"
        if u_rho_o[0] > rho_o[0]:
            return "open packing of the underlying graph exceeds rho_o"
        if rho[0] > gamma[0]:
            return "rho exceeds gamma"
        if gamma_t is not None and rho_o[0] > gamma_t[0]:
            return "rho_o exceeds gamma_t"
        if gamma[0] < u_gamma[0]:
            return "gamma below the underlying graph's gamma"
        if gamma[0] < -(-d.n // (checks.max_out_degree(d) + 1)):
            return "gamma below n / (max out-degree + 1)"
        if oracle:
            exact = (
                checks.oracle(d, "gamma"),
                checks.oracle(d, "gamma_t"),
                checks.oracle(d, "rho"),
                checks.oracle(d, "rho_o"),
                checks.oracle(un, "gamma"),
                checks.oracle(un, "rho"),
                checks.oracle(un, "rho_o"),
            )
            got = tuple(None if x is None else x[0] for x in res)
            if exact != got:
                return f"oracle {exact} disagrees with {got}"
        return None


# ---------------------------------------------------------------------------
# product-ladder: exact solves of products on both sides of the 64-bit word.
# ---------------------------------------------------------------------------

# (product, G, H): "cart" items solve gamma(G [] H), "direct" items gamma_t(G x H).
# Eight items take under 15 ms and eight over 130 ms.  The seven between are
# like solves of 40-60 ms each, so the median is the middle of their
# timings, spread over the whole run, and not one sample of one item.
LADDER = (
    ("cart", "Gm:2", "Gm:2"),
    ("cart", "Gm:2", "Gm:3"),
    ("cart", "Gm:2", "Gm:4"),
    ("cart", "Gm:3", "Gm:3"),
    ("cart", "Gm:3", "Gm:4"),
    ("cart", "Gm:4", "Gm:4"),  # 81 vertices, over the word
    ("cart", "K1star", "fig5corona"),
    ("cart", "K1star", "path:7"),
    ("cart", "K1star", "path:9"),
    ("cart", "K1star", "path:10"),  # 70 vertices
    ("cart", "Gm:4", "K1star"),
    ("cart", "cycle:5", "path:7"),
    ("cart", "cycle:5", "path:9"),
    ("cart", "cycle:6", "path:6"),
    ("cart", "cycle:6", "path:7"),
    ("cart", "chord5", "path:7"),
    ("cart", "fig5corona", "path:8"),
    ("cart", "Tstar(path:2)", "path:5"),  # 70 vertices
    ("direct", "chord5", "fig5corona"),
    ("direct", "Gm:4", "fig5corona"),
    ("direct", "chord5", "path:13"),  # 65 vertices
    ("direct", "cycle:11", "path:6"),  # 66 vertices
    ("direct", "Gm:4", "path:8"),  # 72 vertices
)
# Reduced ladder for quick mode: the items under half a second.
QUICK_LADDER = tuple(
    item for item in LADDER
    if (item[1], item[2])
    not in {("Gm:3", "Gm:4"), ("Gm:4", "Gm:4"), ("K1star", "path:9"), ("K1star", "path:10")}
)


class ProductLadder(Workload):
    name = "product-ladder"
    trace_rounds = 1

    def __init__(self, dd, seed, quick, out_dir):
        super().__init__(dd, seed, quick, out_dir)
        # the ladder is fixed; the seed does not change it
        cache = {}
        self.items = []
        for kind, a, b in QUICK_LADDER if quick else LADDER:
            for spec in (a, b):
                if spec not in cache:
                    cache[spec] = dd.families.build_family(spec)
            self.items.append((kind, a, b, cache[a], cache[b]))
        self.first = None
        self.mismatched_rounds = []

    def run_round(self, r):
        products, solvers, times, ref = self.dd.products, self.dd.solvers, self.times, self.cal.reference_ns
        results = []
        for kind, a, b, g, h in self.items:
            t = clock()
            try:
                if kind == "cart":
                    prod, _ = products.cartesian_product(g, h)
                    value = solvers.domination_number(prod)
                else:
                    prod, _ = products.direct_product(g, h)
                    value = solvers.total_domination_number(prod)
            except Exception as exc:  # SolveTimeout included
                self._raised(f"ladder round {r} {kind} {a} {b}", exc)
                results.append(None)
                continue
            times.append(ref(t, clock() - t))
            results.append(value)
        if self.first is None:
            self.first = results
        elif results != self.first:
            self.mismatched_rounds.append(r)
        return len(self.items)

    def check(self):
        problems = [f"ladder round {r}: results differ from round 0" for r in self.mismatched_rounds]
        factors = {}
        invariant = {}

        def factor(spec):
            if spec not in factors:
                factors[spec] = _factor(self.dd, spec)
            return factors[spec]

        def inv(spec, which):
            if (spec, which) not in invariant:
                invariant[spec, which] = checks.oracle(factor(spec), which)
            return invariant[spec, which]

        for (kind, a, b, _, _), res in zip(self.items, self.first):
            if res is None:
                continue
            where = f"{kind} {a} {b}"
            value, witness = res
            g, h = factor(a), factor(b)
            if bin(witness).count("1") != value:
                problems.append(f"{where}: witness size {bin(witness).count('1')} != {value}")
                continue
            if kind == "cart":
                prod = checks.cartesian(g, h)
                gamma_g, gamma_h = inv(a, "gamma"), inv(b, "gamma")
                if not checks.dominates(prod, witness):
                    problems.append(f"{where}: witness does not dominate")
                elif value < half_bound(gamma_g, gamma_h):
                    problems.append(f"{where}: {value} below the half-Vizing bound")
                elif (checks.is_ditree(g) or checks.is_ditree(h)) and value < gamma_g * gamma_h:
                    problems.append(f"{where}: {value} below gamma(G) gamma(T) for a ditree T")
                elif a == b and a.startswith("Gm:") and value > int(a[3:]) ** 2 + 2 * int(a[3:]):
                    problems.append(f"{where}: {value} above m^2 + 2m")
            else:
                if not checks.is_ditree(h) or checks.has_source(g) or checks.has_source(h):
                    problems.append(f"{where}: not a source-free G times a source-free ditree")
                    continue
                prod = checks.direct(g, h)
                if not checks.totally_dominates(prod, witness):
                    problems.append(f"{where}: witness does not totally dominate")
                elif value != inv(a, "gamma_t") * inv(b, "gamma_t"):
                    problems.append(f"{where}: {value} != gamma_t(G) gamma_t(T)")
        return problems


WORKLOADS = {w.name: w for w in (VerifySuite, AcyclicStream, ObservationSweep, ProductLadder)}


# ---------------------------------------------------------------------------
# Backend equality, run whenever the compiled kernel imports.
# ---------------------------------------------------------------------------


def backend_problems(dd) -> list[str]:
    """Pure and compiled kernels must return identical optima and witnesses."""
    compiled = dd.compiled
    if compiled is None:
        return []
    bnb = dd.bnb_py
    full = lambda n: (1 << n) - 1  # noqa: E731
    cases = []
    h9 = dd.families.gen_H_m(3)
    g3sq, _ = dd.products.cartesian_product(dd.families.gen_G_m(3), dd.families.gen_G_m(3))
    for name, d in (("domination H_9", h9), ("domination Gm:3[]Gm:3", g3sq)):
        sets = [d.out_closed(v) for v in range(d.n)]
        cases.append((name, "min_set_cover", (sets, full(d.n))))
    aux = dd.auxgraph.closed_in_neighborhood_graph(h9)
    cases.append(("packing aux of H_9", "max_independent_set", (list(aux.adj), aux.n)))
    rng = random.Random(2024)
    adj = [0] * 40
    for u in range(40):
        for v in range(u + 1, 40):
            if rng.random() < 0.25:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    cases.append(("random G(40, .25)", "max_independent_set", (adj, 40)))
    for seed in range(40):
        d = dd.families.random_digraph(10, 0.3, seed)
        sets = [d.out_closed(v) for v in range(d.n)]
        cases.append((f"random digraph n=10 seed {seed}", "min_set_cover", (sets, full(10))))
    problems = []
    for name, fn, args in cases:
        pure, fast = getattr(bnb, fn)(*args), getattr(compiled, fn)(*args)
        if pure != fast:
            problems.append(f"backend mismatch on {name}: pure {pure} compiled {fast}")
    return problems
