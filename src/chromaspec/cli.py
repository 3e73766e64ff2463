"""Command-line front end: gen | report | verify | compose | search.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage/input error.
Identical invocations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import bounds, compose, families, search, verify
from .graphs import (
    CHROMATIC_CAP, Graph, GraphError, read_edge_list, to_dot, to_json, write_edge_list,
)
from .spectral import DEFAULT_GROUP_TOL

USAGE_ERROR = 2


def _load_graph(spec: str) -> Graph:
    path = Path(spec)
    if path.is_file():
        return read_edge_list(path.read_text())
    return families.parse_family(spec)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_graph(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return write_edge_list(g)
    if fmt == "dot":
        return to_dot(g)
    if fmt == "json":
        return to_json(g) + "\n"
    raise GraphError(f"format {fmt!r} not supported for graphs")


def _fmt_value(x: float) -> str:
    return f"{x:.12g}"


def _render_report(rep: bounds.BoundReport, fmt: str) -> str:
    if fmt == "json":
        return rep.to_json() + "\n"
    lines = [
        f"n = {rep.n}",
        f"chi = {rep.chi}",
        f"lambda_max = {_fmt_value(rep.lambda_max)} (multiplicity {rep.lambda_max_multiplicity})",
        f"lower bound chi/(chi-1) = {_fmt_value(rep.lower_bound)}"
        f"  gap = {_fmt_value(rep.gap)}  sharp = {rep.sharp}",
        f"hoffman chi lower bound = {_fmt_value(rep.hoffman)}",
    ]
    for name, value, applicable, satisfied in rep.upper_bounds:
        if applicable:
            lines.append(
                f"upper bound {name} = {_fmt_value(value)}  satisfied = {satisfied}"
            )
        else:
            lines.append(f"upper bound {name}: not applicable")
    if rep.multiplicity_bounds:
        lo, hi = rep.multiplicity_bounds
        lines.append(f"multiplicity bounds for the top eigenvalue: [{lo}, {hi}]")
    lines.append(
        "equitable chi-colorings: "
        + (
            f"{sum(rep.equitable)}/{len(rep.equitable)}"
            + ("" if rep.colorings_complete else " (partial)")
        )
    )
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    g = _load_graph(args.spec)
    _emit(_render_graph(g, args.format), args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.format not in ("json", "text"):
        raise GraphError(f"format {args.format!r} not supported for reports")
    g = _load_graph(args.spec)
    rep = bounds.full_report(g, tol=args.tol)
    _emit(_render_report(rep, args.format), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.max_n is not None and args.max_n < 1:
        raise GraphError(f"verify needs --max-n >= 1, got {args.max_n}")
    random = args.max_n * 50 if args.max_n else None
    rows = verify.run_suites(names, seed=args.seed, random=random)
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {status}  {detail}")
    failed = sum(1 for _, ok, _ in rows if not ok)
    lines.append(f"{len(rows) - failed}/{len(rows)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def _parse_compose_input(token: str) -> list[Graph]:
    m = re.fullmatch(r"(\d+)x(.+)", token)
    if m:
        copies = int(m.group(1))
        if copies > CHROMATIC_CAP:
            raise GraphError(f"{token!r} asks for {copies} copies, above the cap {CHROMATIC_CAP}")
        return [_load_graph(m.group(2)) for _ in range(copies)]
    return [_load_graph(token)]


def _check_composed_size(n: int) -> None:
    if n > CHROMATIC_CAP:
        raise GraphError(f"the composed graph has n = {n}, above the cap {CHROMATIC_CAP}")


def cmd_compose(args: argparse.Namespace) -> int:
    if args.op == "onesum":
        if len(args.inputs) % 2 != 0 or not args.inputs:
            raise GraphError("onesum expects pairs: GRAPH VERTEX [GRAPH VERTEX ...]")
        parts = []
        for spec, x in zip(args.inputs[::2], args.inputs[1::2]):
            parts.append((_load_graph(spec), int(x)))
        _check_composed_size(1 + sum(g.n - 1 for g, _ in parts))
        result = compose.one_sum_many(parts).result
    elif args.op == "join":
        graphs = [g for token in args.inputs for g in _parse_compose_input(token)]
        if len(graphs) < 2:
            raise GraphError("join expects at least two graphs")
        _check_composed_size(sum(g.n for g in graphs))
        acc = graphs[0]
        rest = graphs[1]
        for g in graphs[2:]:
            rest = compose.disjoint_union(rest, g)
        result = compose.join(acc, rest)
    elif args.op == "edu":
        if len(args.inputs) != 2:
            raise GraphError("edu expects exactly two graphs over a shared index space")
        g1, g2 = (_load_graph(s) for s in args.inputs)
        result = compose.edge_disjoint_union(g1, g2).result
    else:  # pragma: no cover - argparse restricts choices
        raise GraphError(f"unknown compose op {args.op}")
    if args.format in ("edgelist", "dot"):
        _emit(_render_graph(result, args.format), args.out)
    else:
        rep = bounds.full_report(result, tol=args.tol)
        _emit(_render_report(rep, args.format), args.out)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    m = re.fullmatch(r"sharp(?:-mult=(\d+))?", args.predicate)
    if not m:
        raise GraphError(f"unknown predicate {args.predicate!r}")
    mult = int(m.group(1)) if m.group(1) else None
    hits = search.search_sharp(args.max_n, mult=mult)
    payload = {
        "max_n": args.max_n,
        "predicate": args.predicate,
        "count": len(hits),
        "hits": [h.to_dict() for h in hits],
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS defaults so they never mask a value
    # given at the top level.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--tol", type=float, default=default(DEFAULT_GROUP_TOL))
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument(
        "--format", choices=["json", "text", "dot", "edgelist"], default=default("json")
    )
    parser.add_argument("--max-n", type=int, default=default(None), dest="max_n")
    parser.add_argument("--out", type=str, default=default(None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromaspec",
        description="Normalized-Laplacian spectra and chromatic bounds",
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_options(p, suppress=True)
        return p

    p = add_parser("gen", help=f"emit a family graph ({families.FAMILY_SYNTAX})")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_gen)

    p = add_parser("report", help="full bound report for a graph or family spec")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_report)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[*verify.SUITES, "all"])
    p.set_defaults(fn=cmd_verify)

    p = add_parser("compose", help="build and report a composition")
    p.add_argument("op", choices=["onesum", "join", "edu"])
    p.add_argument("inputs", nargs="+")
    p.set_defaults(fn=cmd_compose)

    p = add_parser("search", help="exhaustive scan for sharp graphs")
    p.add_argument("predicate", help="sharp | sharp-mult=K")
    p.set_defaults(fn=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    if args.command == "search" and args.max_n is None:
        sys.stderr.write("search requires --max-n\n")
        return USAGE_ERROR
    try:
        return args.fn(args)
    except (GraphError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
