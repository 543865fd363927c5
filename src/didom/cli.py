"""Command-line entry point.

Subcommands: ``invariants``, ``product``, ``family``, ``verify``,
``search-acyclic``.  A GRAPH argument is an arc-list file, else a compact
family-spec string; all randomness is surfaced as ``--seed``.  Output
is byte-stable for fixed inputs and seeds (timings are opt-in via
``--timings``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Optional

from didom import families, verify
from didom.core import Digraph, read_arclist, write_arclist
from didom.errors import ArcListParseError
from didom.products import cartesian_product, direct_product
from didom.solvers import DEFAULT_TIMEOUT_MS, compute_invariants, parse_timeout_ms

_GRAPH_HELP = "an arc-list file, else a family spec"


def _load_graph(spec: str) -> Digraph:
    """Read a GRAPH argument: an existing arc-list file, else a family spec."""
    if os.path.exists(spec):
        return read_arclist(spec)
    try:
        return families.build_family(spec)
    except ValueError as exc:
        raise OSError(f"no file {spec!r}, and not a family spec: {exc}") from None


def _cmd_invariants(args) -> int:
    d = _load_graph(args.graph)
    if d.n == 0:
        print("invariants: graph has no vertices", file=sys.stderr)
        return 2
    report = compute_invariants(
        d, digraph_id=args.graph, timeout_ms=args.timeout_ms, include_timings=args.timings
    )
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_product(args) -> int:
    lhs = _load_graph(args.lhs)
    rhs = _load_graph(args.rhs)
    build = cartesian_product if args.op == "cart" else direct_product
    prod, _ = build(lhs, rhs)
    if args.out:
        write_arclist(prod, args.out)
        print(f"wrote {prod.n} vertices, {prod.arc_count} arcs to {args.out}")
    else:
        sys.stdout.write(
            f"# {args.op} product of {args.lhs} and {args.rhs}\n"
        )
        write_arclist(prod, sys.stdout)
    return 0


def _cmd_family(args) -> int:
    d = families.build_family(args.spec)
    if args.out:
        write_arclist(d, args.out)
        print(f"wrote {d.n} vertices, {d.arc_count} arcs to {args.out}")
    else:
        write_arclist(d, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            config = verify.parse_suite_config(fh.read())
    else:
        config = verify.default_suite_config()
    if args.seed is not None:
        config.seed = args.seed
    if args.timeout_ms is not None:
        config.timeout_ms = args.timeout_ms
    if args.out is not None:
        config.out = args.out
    tasks = verify.build_tasks(config)
    result = verify.run_suite(tasks, out_path=config.out, include_timings=args.timings)
    print(result.summary())
    if config.out:
        print(f"records appended to {config.out}")
    return 0 if result.ok else 1


def _cmd_search_acyclic(args) -> int:
    # sizes out of range raise here, before --out is opened
    records = verify.search_acyclic_problem(
        max_n=args.max_n, budget=args.budget, seed=args.seed, timeout_ms=args.timeout_ms
    )
    sink = open(args.out, "a", encoding="ascii") if args.out else sys.stdout
    counts = Counter()
    try:
        for record in records:
            print(record.to_json(include_timings=args.timings), file=sink)
            counts[record.verdict] += 1
            if record.verdict == verify.FAILS:
                gap = f"{record.lhs} < {record.rhs}"
                print(f"packing < domination on {record.instance}: {gap}", file=sys.stderr)
    finally:
        if sink is not sys.stdout:
            sink.close()
    done = f"equality on {counts[verify.HOLDS]}, strict inequality on {counts[verify.FAILS]}"
    print(f"acyclic search: {done}, timeout on {counts[verify.TIMEOUT]}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="didom",
        description="Exact domination, packing, and product invariants for digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="compute gamma, gamma_t, rho, rho_o")
    p_inv.add_argument("graph", help=_GRAPH_HELP)
    p_inv.add_argument("--timeout-ms", type=parse_timeout_ms, default=DEFAULT_TIMEOUT_MS)
    p_inv.add_argument("--timings", action="store_true", help="include elapsed times")
    p_inv.set_defaults(func=_cmd_invariants)

    p_prod = sub.add_parser("product", help="write a Cartesian or direct product")
    p_prod.add_argument("op", choices=("cart", "direct"))
    p_prod.add_argument("lhs", help=_GRAPH_HELP)
    p_prod.add_argument("rhs", help=_GRAPH_HELP)
    p_prod.add_argument("--out", help="output arc-list file (default stdout)")
    p_prod.set_defaults(func=_cmd_product)

    p_fam = sub.add_parser("family", help="emit a named construction as an arc list")
    p_fam.add_argument("spec", help="family spec, e.g. Gm:3 or C4:0202")
    p_fam.add_argument("--out", help="output arc-list file (default stdout)")
    p_fam.set_defaults(func=_cmd_family)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("config", nargs="?", help="suite config file (default: built-in suite)")
    p_ver.add_argument("--out", help="append JSON-lines records to this file")
    p_ver.add_argument("--seed", type=int, help="override the suite seed")
    p_ver.add_argument("--timeout-ms", type=parse_timeout_ms)
    p_ver.add_argument("--timings", action="store_true", help="include elapsed times")
    p_ver.set_defaults(func=_cmd_verify)

    p_acy = sub.add_parser(
        "search-acyclic", help="record packing vs domination over acyclic digraphs"
    )
    p_acy.add_argument("--max-n", type=int, default=9, dest="max_n")
    p_acy.add_argument("--budget", type=int, default=10_000)
    p_acy.add_argument("--seed", type=int, default=0)
    p_acy.add_argument("--timeout-ms", type=parse_timeout_ms, default=DEFAULT_TIMEOUT_MS)
    p_acy.add_argument("--out", help="append records to this file (default stdout)")
    p_acy.add_argument("--timings", action="store_true")
    p_acy.set_defaults(func=_cmd_search_acyclic)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArcListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
