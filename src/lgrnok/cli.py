"""Command-line surface: every computation and the report of `verify`.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 time budget exceeded.  `--time-budget` bounds the whole command.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import equivalence, plabic, polytope, quiverfold, superpotential, valuation
from .budget import POLL_EVERY, Deadline, TimeBudgetExceeded, polled
from .partitions import (
    format_partition,
    partition_to_indexset,
    staircase_syt_count,
    transpose_indexset,
)
from .polytope import UnboundedError, VPolytope
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


def _write_json(doc, out, deadline) -> None:
    """json.dump(doc, out, indent=2) and a newline, with the deadline polled
    while the text is encoded and nothing written before it is all ready."""
    import json  # here, not at the top: only JSON output pays for the import

    chunks, text = json.JSONEncoder(indent=2).iterencode(doc), []
    while batch := list(islice(chunks, POLL_EVERY)):
        deadline.check()
        text.append("".join(batch))
    out.writelines(text)
    out.write("\n")


def _write_vrep(title, names, points, fmt, out, deadline) -> None:
    """A point set as JSON, or as the title line and one line per point,
    formatted between polls of the deadline and written once all are."""
    if fmt == "json":
        _write_json({"coords": names,
                     "points": [[str(x) for x in p] for p in polled(points, deadline)]},
                    out, deadline)
        return
    out.writelines([f"{title} ({len(points)}):\n", *(f"  {p}\n" for p in polled(points, deadline))])


# -- subcommand handlers -------------------------------------------------------


def cmd_graph(args, out, deadline) -> int:
    G = plabic.build_corect_graph(args.n)
    if args.format == "dot":
        out.write(plabic.graph_to_dot(G))
    elif args.format == "json":
        _write_json({"n": args.n, "faces": plabic.faces_json(G)}, out, deadline)
    else:
        out.write(f"co-rectangles plabic graph, n={args.n}: "
                  f"{len(G.faces)} faces, {len(G.colors)} internal vertices\n")
        for entry in plabic.faces_json(G):
            out.write(f"  face {entry['label']}: {' '.join(entry['boundary'])}\n")
    return 0


def cmd_orientation(args, out, deadline) -> int:
    G, O = plabic.corect_network(args.n)
    if args.format == "dot":
        out.write(plabic.graph_to_dot(G, O))
    elif args.format == "json":
        _write_json(
            {
                "n": args.n,
                "sources": list(O.source_set),
                "darts": [
                    [plabic.vertex_name(t), plabic.vertex_name(h)]
                    for t, h in sorted(O.direction)
                ],
            },
            out,
            deadline,
        )
    else:
        out.write(f"perfect orientation with sources {list(O.source_set)}\n")
        for t, h in sorted(O.direction):
            out.write(f"  {plabic.vertex_name(t)} -> {plabic.vertex_name(h)}\n")
    return 0


def _monomial_str(n, mono) -> str:
    if not mono:
        return "1"
    return "*".join(
        f"x[{format_partition(lab)}]" + (f"^{e}" if e > 1 else "")
        for lab, e in sorted(mono.items())
    )


def cmd_flows(args, out, deadline) -> int:
    # Each flow's monomial is taken once, and the lines are formatted
    # between polls of the deadline and written once all are ready.
    try:
        target = tuple(int(x) for x in args.target.split(","))
    except ValueError:
        raise ValueError(f"malformed target {args.target!r}") from None
    n = args.n
    G, O = plabic.corect_network(n)
    flows = []  # (paths, monomial, orbit vector) per flow
    for f in polled(plabic.enumerate_flows(G, O, target, deadline), deadline):
        monomial = f.monomial(G)
        flows.append((f.paths, monomial, valuation.orbit_vector(n, monomial)))
    if args.format == "json":
        _write_json(
            {
                "n": n,
                "target": sorted(target),
                "flows": [
                    {
                        "paths": [[plabic.vertex_name(v) for v in p] for p in paths],
                        "monomial": {format_partition(lab): e for lab, e in sorted(monomial.items())},
                        "orbit_vector": list(vector),
                    }
                    for paths, monomial, vector in polled(flows, deadline)
                ],
            },
            out,
            deadline,
        )
        return 0
    lines = [f"{len(flows)} flow(s) from {list(O.source_set)} to {sorted(target)}\n"]
    for i, (paths, monomial, _) in enumerate(polled(flows, deadline)):
        lines.append(f"flow {i}:\n")
        lines.extend("  path: " + " -> ".join(map(plabic.vertex_name, p)) + "\n" for p in paths)
        lines.append("  weight: " + _monomial_str(n, monomial) + "\n")
    lines.append("flow polynomial exponents (orbit coordinates "
                 + ", ".join(format_partition(c) for c in valuation.coordinate_system(n))
                 + "):\n")
    lines.extend(f"  {vector}\n" for vector in polled(sorted(v for *_, v in flows), deadline))
    out.writelines(lines)
    return 0


def cmd_valuations(args, out, deadline) -> int:
    # The rows are formatted as the classes stream in, between the
    # walk's polls of the deadline, and printed only once all are ready.
    n = args.n
    rows = valuation.class_valuations(n, deadline=deadline)
    if args.format == "json":
        # the encoding is polled too: at n=10 it outlasts the table
        _write_json([{"partition": format_partition(lam), "indexset": list(indexset),
                      "valuation": list(vec)} for indexset, lam, vec in rows], out, deadline)
        return 0
    lines = [f"valuations in coordinates ({', '.join(_coordinate_names(n))}):\n"]
    for indexset, _, vec in rows:
        name = _indexset_str(indexset, n)
        other = transpose_indexset(indexset, n)
        if other != indexset:
            name += "=" + _indexset_str(other, n)
        lines.append(f"  {name:<12} {vec}\n")
    out.writelines(lines)
    return 0


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


def cmd_gamma(args, out, deadline) -> int:
    n = args.n
    names = _gamma_coords(n)
    if args.vrep:
        _write_vrep("superpotential polytope vertices", names,
                    superpotential.gamma_vertex_set(n, deadline), args.format, out, deadline)
        return 0
    H = superpotential.gamma_hrep(n, deadline)
    if args.format == "json":
        _write_json(_hrep_json(H, names), out, deadline)
    else:
        out.writelines([f"superpotential polytope in coordinates ({', '.join(names)}):\n",
                        *("  " + _render_inequality(c, d, names) + "\n"
                          for c, d in polled(H.rows, deadline))])
    return 0


def cmd_delta(args, out, deadline) -> int:
    n = args.n
    points = valuation.delta_vertices(n, deadline)
    names = _coordinate_names(n)
    if args.vrep:
        _write_vrep("Newton-Okounkov body generators", names, points, args.format, out, deadline)
        return 0
    V = VPolytope.from_points(points)
    if args.fvector:
        fv = polytope.f_vector(V, deadline)
        if args.format == "json":
            _write_json({"f_vector": list(fv)}, out, deadline)
        else:
            out.write(f"f-vector: {fv}\n")
        return 0
    H = polytope.facets(V, deadline)
    if args.format == "json":
        _write_json(_hrep_json(H, names), out, deadline)
    else:
        out.write(f"Newton-Okounkov body facets, coordinates ({', '.join(names)}), "
                  "rows (const, coefficients):\n")
        for c, d in sorted(H.rows):
            out.write(f"  {d:>3} " + " ".join(f"{x:>3}" for x in c) + "\n")
    return 0


def cmd_matrix(args, out, deadline) -> int:
    M = equivalence.build_valuation_matrix(args.n)
    if args.format == "json":
        _write_json(
            {
                "n": args.n,
                "rows": [list(r) for r in M.entries],
                "row_labels": [format_partition(p) for p in M.row_labels],
                "column_pairs": [list(p) for p in M.col_pairs],
            },
            out,
            deadline,
        )
    else:
        for row in M.entries:
            out.write(" ".join(str(x) for x in row) + "\n")
    return 0


def cmd_fold(args, out, deadline) -> int:
    if args.format == "dot":
        Q = quiverfold.dual_quiver(plabic.build_corect_graph(args.n))
        out.write(quiverfold.quiver_to_dot(Q))
        return 0
    F = quiverfold.folded_matrix(args.n)
    if args.format == "json":
        _write_json(
            {
                "n": args.n,
                "row_orbits": [[format_partition(p) for p in o] for o in F.row_orbits],
                "col_orbits": [[format_partition(p) for p in o] for o in F.col_orbits],
                "entries": [list(r) for r in F.entries],
            },
            out,
            deadline,
        )
    else:
        for row in F.entries:
            out.write(" ".join(f"{x:>3}" for x in row) + "\n")
    return 0


def cmd_volume(args, out, deadline) -> int:
    n = args.n
    expected = staircase_syt_count(n)
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n, deadline))
    delta = VPolytope.from_points(valuation.delta_vertices(n, deadline))
    vol_gamma = polytope.normalized_volume(gamma, deadline)
    vol_delta = polytope.normalized_volume(delta, deadline)
    if args.format == "json":
        _write_json(
            {
                "n": n,
                "gamma": str(vol_gamma),
                "delta": str(vol_delta),
                "degree": expected,
            },
            out,
            deadline,
        )
    else:
        out.write(f"normalized volume of the superpotential polytope: {vol_gamma}\n")
        out.write(f"normalized volume of the Newton-Okounkov body:    {vol_delta}\n")
        out.write(f"degree of LGr({n},{2*n}) (staircase SYT count):       {expected}\n")
    return 0 if vol_gamma == vol_delta == expected else 1


def cmd_counts(args, out, deadline) -> int:
    n = args.n
    P = superpotential.build_poset(n)
    antichains = superpotential.chain_polytope_points(P, 1, deadline)
    syt = staircase_syt_count(n)
    extensions = superpotential.linear_extension_count(P, deadline)
    if args.format == "json":
        _write_json(
            {
                "n": n,
                "antichains": antichains,
                "catalan": superpotential.antichain_count_formula(n),
                "linear_extensions": extensions,
                "staircase_syt": syt,
            },
            out,
            deadline,
        )
    else:
        out.write(f"antichains of the staircase poset: {antichains}\n")
        out.write(f"Catalan number C_{n+1}:            {superpotential.antichain_count_formula(n)}\n")
        out.write(f"linear extensions:                 {extensions}\n")
        out.write(f"staircase SYT count (degree):      {syt}\n")
    return 0


def cmd_verify(args, out, deadline) -> int:
    results = run_checks(args.n, args.level, deadline)
    all_ok = all(r["status"] != "fail" for r in results)
    if args.format == "json":
        _write_json({"n": args.n, "level": args.level, "ok": all_ok, "checks": results}, out, deadline)
    else:
        for r in results:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[r["status"]]
            line = f"  [{mark}] {r['name']}"
            if r["witness"]:
                line += f"  ({r['witness']})"
            out.write(line + "\n")
        out.write(("all checks passed" if all_ok else "FAILURES above") + f" (n={args.n}, level={args.level})\n")
    return 0 if all_ok else 1


# -- entry ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgrnok",
        description="Newton-Okounkov body and superpotential polytope of LGr(n,2n), exactly",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, formats=("text", "json")):
        p = sub.add_parser(name, help=help)
        p.add_argument("--n", type=int, required=True, help="side of the square")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--time-budget", type=float, default=1800.0,
                       help="seconds allowed for the whole command")
        p.set_defaults(func=func)
        return p

    command("graph", cmd_graph, "plabic graph and faces", ("text", "json", "dot"))
    command("orientation", cmd_orientation, "perfect orientation", ("text", "json", "dot"))
    p = command("flows", cmd_flows, "flows to a target index set")
    p.add_argument("--target", required=True, help="comma-separated n-subset of 1..2n")
    command("valuations", cmd_valuations, "Pluecker valuation table")
    g = command("gamma", cmd_gamma, "superpotential polytope").add_mutually_exclusive_group()
    g.add_argument("--hrep", action="store_true")
    g.add_argument("--vrep", action="store_true")
    g = command("delta", cmd_delta, "Newton-Okounkov body").add_mutually_exclusive_group()
    g.add_argument("--hrep", action="store_true")
    g.add_argument("--vrep", action="store_true")
    g.add_argument("--fvector", action="store_true")
    command("matrix", cmd_matrix, "the valuation matrix")
    command("fold", cmd_fold, "folded exchange matrix / quiver", ("text", "json", "dot"))
    command("volume", cmd_volume, "normalized volumes of both polytopes")
    command("counts", cmd_counts, "antichains, linear extensions, SYT")
    p = command("verify", cmd_verify, "run the verification suite")
    p.add_argument("--level", choices=("vertex", "hull", "all"), default="all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.n < 1:
            raise ValueError("n must be >= 1")
        if not args.time_budget > 0:  # also refuses nan
            raise ValueError("time budget must be positive")
        return args.func(args, sys.stdout, Deadline(args.time_budget))
    except TimeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnboundedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
