"""Command-line surface: every computation and the report of `verify`.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 time budget exceeded, 141 stdout closed by its reader, with no
traceback.  `--time-budget` bounds the whole command.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from itertools import chain, islice

from . import equivalence, plabic, polytope, quiverfold, superpotential, valuation
from .budget import POLL_EVERY, Deadline, TimeBudgetExceeded, arm, armed, polled
from .partitions import (
    catalan,
    format_partition,
    partition_to_indexset,
    staircase_syt_count,
    transpose_indexset,
)
from .polytope import VPolytope
from .verify import run_checks


def _indexset_str(indexset, n) -> str:
    sep = "" if n <= 4 else ","  # single digits up to n=4
    return sep.join(map(str, indexset))


def _coordinate_names(n) -> list[str]:
    return [_indexset_str(partition_to_indexset(c, n), n) for c in valuation.coordinate_system(n)]


def _hrep_json(H: polytope.HPolytope, coords) -> dict:
    return {
        "coords": list(coords),
        "rows": [{"coeffs": list(c), "const": d} for c, d in sorted(H.rows)],
    }


def _vrep(title, names, points, fmt):
    """A point set as JSON, or as the title line and one line per point."""
    if fmt == "json":
        return {"coords": names, "points": [[str(x) for x in p] for p in polled(points)]}
    return chain([f"{title} ({len(points)}):"], (f"  {p}" for p in points))


# -- subcommand handlers -------------------------------------------------------
#
# Each handler is args -> (exit code, output): a JSON document for --format
# json, and an iterable of lines for the other formats, which `main` alone
# formats and writes (`_text`) under the deadline it armed.  Lines may be
# made lazily, so that their formatting is polled with the rest.


def cmd_graph(args):
    G = plabic.build_corect_graph(args.n)
    if args.format == "dot":
        return 0, plabic.graph_to_dot(G)
    faces = plabic.faces_json(G)
    if args.format == "json":
        return 0, {"n": args.n, "faces": faces}
    return 0, chain([f"co-rectangles plabic graph, n={args.n}: "
                     f"{len(G.faces)} faces, {len(G.colors)} internal vertices"],
                    (f"  face {entry['label']}: {' '.join(entry['boundary'])}" for entry in faces))


def cmd_orientation(args):
    G, O = plabic.corect_network(args.n)
    if args.format == "dot":
        return 0, plabic.graph_to_dot(G, O)
    darts = [[plabic.vertex_name(t), plabic.vertex_name(h)] for t, h in sorted(O.direction)]
    if args.format == "json":
        return 0, {"n": args.n, "sources": list(O.source_set), "darts": darts}
    return 0, chain([f"perfect orientation with sources {list(O.source_set)}"],
                    (f"  {t} -> {h}" for t, h in darts))


def _monomial_str(mono, names) -> str:
    if not mono:
        return "1"
    return "*".join(
        f"x[{names[lab]}]" + (f"^{e}" if e > 1 else "")
        for lab, e in sorted(mono.items())
    )


def _flow_json(n, G, flow, names) -> dict:
    monomial = flow.monomial(G)
    return {
        "paths": [[plabic.vertex_name(v) for v in p] for p in flow.paths],
        "monomial": {names[lab]: e for lab, e in sorted(monomial.items())},
        "orbit_vector": list(valuation.orbit_vector(n, monomial)),
    }


def cmd_flows(args):
    # Each flow's monomial is taken once, as its entry or its lines are made.
    try:
        target = tuple(int(x) for x in args.target.split(","))
    except ValueError:
        raise ValueError(f"malformed target {args.target!r}") from None
    n = args.n
    G, O = plabic.corect_network(n)
    flows = plabic.enumerate_flows(G, O, target)
    names = {label: format_partition(label) for label in G.faces.values()}
    if args.format == "json":
        # a plain loop, so polled here: at n=7 the entries take seconds
        return 0, {"n": n, "target": sorted(target),
                   "flows": [_flow_json(n, G, f, names) for f in polled(flows)]}

    def lines():
        yield f"{len(flows)} flow(s) from {list(O.source_set)} to {sorted(target)}"
        vectors = []
        for i, flow in enumerate(flows):
            monomial = flow.monomial(G)
            vectors.append(valuation.orbit_vector(n, monomial))
            yield f"flow {i}:"
            yield from ("  path: " + " -> ".join(map(plabic.vertex_name, p)) for p in flow.paths)
            yield "  weight: " + _monomial_str(monomial, names)
        yield ("flow polynomial exponents (orbit coordinates "
               + ", ".join(format_partition(c) for c in valuation.coordinate_system(n)) + "):")
        yield from (f"  {vector}" for vector in sorted(vectors))

    return 0, lines()


def cmd_valuations(args):
    # The rows are made as the classes stream in, between the walk's polls
    # of the deadline.
    n = args.n
    rows = valuation.class_valuations(n)
    if args.format == "json":
        return 0, [{"partition": format_partition(lam), "indexset": list(indexset),
                    "valuation": list(vec)} for indexset, lam, vec in rows]

    def line(indexset, vec):
        name = _indexset_str(indexset, n)
        other = transpose_indexset(indexset, n)
        if other != indexset:
            name += "=" + _indexset_str(other, n)
        return f"  {name:<12} {vec}"

    return 0, chain([f"valuations in coordinates ({', '.join(_coordinate_names(n))}):"],
                    (line(indexset, vec) for indexset, _, vec in rows))


def _gamma_coords(n) -> list[str]:
    return [f"A{i}{j}" for (i, j) in superpotential.lex_cells(n)]


def _render_inequality(coeffs, const, names) -> str:
    parts = [] if const == 0 else [str(const)]
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        if c > 0:
            parts.append(("+ " if parts else "") + (f"{c}*" if c != 1 else "") + name)
        else:
            parts.append("- " + (f"{-c}*" if c != -1 else "") + name)
    return (" ".join(parts) if parts else "0") + " >= 0"


def cmd_gamma(args):
    n = args.n
    names = _gamma_coords(n)
    if args.vrep:
        return 0, _vrep("superpotential polytope vertices", names,
                        superpotential.gamma_vertex_set(n), args.format)
    H = superpotential.gamma_hrep(n)
    if args.format == "json":
        return 0, _hrep_json(H, names)
    return 0, chain([f"superpotential polytope in coordinates ({', '.join(names)}):"],
                    ("  " + _render_inequality(c, d, names) for c, d in H.rows))


def cmd_delta(args):
    n = args.n
    points = valuation.delta_vertices(n)
    names = _coordinate_names(n)
    if args.vrep:
        return 0, _vrep("Newton-Okounkov body generators", names, points, args.format)
    V = VPolytope.from_points(points)
    if args.fvector:
        fv = polytope.f_vector(V)
        return 0, {"f_vector": list(fv)} if args.format == "json" else [f"f-vector: {fv}"]
    H = polytope.facets(V)
    if args.format == "json":
        return 0, _hrep_json(H, names)
    return 0, chain([f"Newton-Okounkov body facets, coordinates ({', '.join(names)}), "
                     "rows (const, coefficients):"],
                    (f"  {d:>3} " + " ".join(f"{x:>3}" for x in c) for c, d in sorted(H.rows)))


def cmd_matrix(args):
    M = equivalence.build_valuation_matrix(args.n)
    if args.format == "json":
        return 0, {
            "n": args.n,
            "rows": [list(r) for r in M.entries],
            "row_labels": [format_partition(p) for p in M.row_labels],
            "column_pairs": [list(p) for p in M.col_pairs],
        }
    return 0, (" ".join(map(str, row)) for row in M.entries)


def cmd_fold(args):
    if args.format == "dot":
        Q = quiverfold.dual_quiver(plabic.build_corect_graph(args.n))
        return 0, quiverfold.quiver_to_dot(Q)
    F = quiverfold.folded_matrix(args.n)
    if args.format == "json":
        return 0, {
            "n": args.n,
            "row_orbits": [[format_partition(p) for p in o] for o in polled(F.row_orbits)],
            "col_orbits": [[format_partition(p) for p in o] for o in polled(F.col_orbits)],
            "entries": [list(r) for r in polled(F.entries)],
        }

    def lines():
        # polled per row: at n=70 a row holds 2,415 entries
        check = armed().check
        for row in F.entries:
            check()
            yield " ".join(f"{x:>3}" for x in row)

    return 0, lines()


def cmd_volume(args):
    n = args.n
    expected = staircase_syt_count(n)
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n))
    delta = VPolytope.from_points(valuation.delta_vertices(n))
    vol_gamma = polytope.normalized_volume(gamma)
    vol_delta = polytope.normalized_volume(delta)
    code = 0 if vol_gamma == vol_delta == expected else 1
    if args.format == "json":
        return code, {"n": n, "gamma": str(vol_gamma), "delta": str(vol_delta), "degree": expected}
    return code, [f"normalized volume of the superpotential polytope: {vol_gamma}",
                  f"normalized volume of the Newton-Okounkov body:    {vol_delta}",
                  f"degree of LGr({n},{2*n}) (staircase SYT count):       {expected}"]


def cmd_counts(args):
    n = args.n
    P = superpotential.build_poset(n)
    antichains = superpotential.chain_polytope_points(P, 1)
    syt = staircase_syt_count(n)
    extensions = superpotential.linear_extension_count(P)
    if args.format == "json":
        return 0, {"n": n, "antichains": antichains, "catalan": catalan(n + 1),
                   "linear_extensions": extensions, "staircase_syt": syt}
    return 0, [f"antichains of the staircase poset: {antichains}",
               f"Catalan number C_{n+1}:            {catalan(n + 1)}",
               f"linear extensions:                 {extensions}",
               f"staircase SYT count (degree):      {syt}"]


def cmd_verify(args):
    results = run_checks(args.n, args.level)
    all_ok = all(r["status"] != "fail" for r in results)
    code = 0 if all_ok else 1
    if args.format == "json":
        return code, {"n": args.n, "level": args.level, "ok": all_ok, "checks": results}
    marks = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}
    lines = [f"  [{marks[r['status']]}] {r['name']}" + (f"  ({r['witness']})" if r["witness"] else "")
             for r in results]
    lines.append(("all checks passed" if all_ok else "FAILURES above") + f" (n={args.n}, level={args.level})")
    return code, lines


# -- entry ----------------------------------------------------------------------


def _switches(*flags):
    """Adds mutually exclusive on/off options to a subparser."""
    def add(p):
        group = p.add_mutually_exclusive_group()
        for flag in flags:
            group.add_argument(flag, action="store_true")
    return add


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of `lgrnok`.  When argv[0] names a command, only that
    command's subparser is built, the one a parse of argv can enter;
    otherwise all of them are."""
    text, dot = ("text", "json"), ("text", "json", "dot")
    # name: (handler, help, formats, the options beyond --n, --format and
    # --time-budget); looked up when called, so a handler set on the module
    # later is the one registered
    commands = {
        "graph": (cmd_graph, "plabic graph and faces", dot, None),
        "orientation": (cmd_orientation, "perfect orientation", dot, None),
        "flows": (cmd_flows, "flows to a target index set", text,
                  lambda p: p.add_argument("--target", required=True,
                                           help="comma-separated n-subset of 1..2n")),
        "valuations": (cmd_valuations, "Pluecker valuation table", text, None),
        "gamma": (cmd_gamma, "superpotential polytope", text, _switches("--hrep", "--vrep")),
        "delta": (cmd_delta, "Newton-Okounkov body", text, _switches("--hrep", "--vrep", "--fvector")),
        "matrix": (cmd_matrix, "the valuation matrix", text, None),
        "fold": (cmd_fold, "folded exchange matrix / quiver", dot, None),
        "volume": (cmd_volume, "normalized volumes of both polytopes", text, None),
        "counts": (cmd_counts, "antichains, linear extensions, SYT", text, None),
        "verify": (cmd_verify, "run the verification suite", text,
                   lambda p: p.add_argument("--level", choices=("vertex", "hull", "all"),
                                            default="all")),
    }
    parser = argparse.ArgumentParser(
        prog="lgrnok",
        description="Newton-Okounkov body and superpotential polytope of LGr(n,2n), exactly",
    )
    names = argv[:1] if argv[:1] and argv[0] in commands else commands
    # with one command registered, the usage that argparse prints for an
    # argument left over after it still lists them all; in the full parser
    # a metavar would rename `subcommand` in its errors
    metavar = "{" + ",".join(commands) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        func, help, formats, options = commands[name]
        p = sub.add_parser(name, help=help)
        p.add_argument("--n", type=int, required=True, help="side of the square")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--time-budget", type=float, default=1800.0,
                       help="seconds allowed for the whole command")
        p.set_defaults(func=func)
        if options:
            options(p)
    return parser


def _text(output, fmt) -> list[str]:
    """A handler's output as text: json.dump(output, indent=2) and a
    newline for JSON, else each line and a newline.  The text is made
    POLL_EVERY chunks at a time, with the deadline polled between them,
    and each batch joined: nothing is written before it is all ready."""
    if fmt == "json":
        import json  # here, not at the top: only JSON output pays for the import

        chunks = chain(json.JSONEncoder(indent=2).iterencode(output), ["\n"])
    else:
        chunks = (f"{line}\n" for line in output)
    text = []
    while batch := list(islice(chunks, POLL_EVERY)):
        armed().check()
        text.append("".join(batch))
    return text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if args.n < 1:
            raise ValueError("n must be >= 1")
        if not args.time_budget > 0:  # also refuses nan
            raise ValueError("time budget must be positive")
        with arm(Deadline(args.time_budget)):
            code, output = args.func(args)
            text = _text(output, args.format)
    except TimeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.writelines(text)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader is gone: no later flush may raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # as for a process that SIGPIPE ends
    return code


if __name__ == "__main__":
    sys.exit(main())
