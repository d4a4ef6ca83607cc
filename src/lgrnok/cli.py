"""Command-line surface: every computation and the report of `verify`.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 time budget exceeded.  `--time-budget` bounds the whole command.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import equivalence, plabic, polytope, quiverfold, superpotential, valuation
from .partitions import (
    format_partition,
    partition_to_indexset,
    staircase_syt_count,
    transpose,
)
from .polytope import Deadline, TimeBudgetExceeded, UnboundedError, VPolytope
from .verify import run_checks


def fmt_fraction(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _indexset_str(lam, n) -> str:
    sep = "" if n <= 4 else ","  # single digits up to n=4
    return sep.join(str(i) for i in partition_to_indexset(lam, n))


def _hrep_json(H: polytope.HPolytope, coords) -> dict:
    return {
        "coords": list(coords),
        "rows": [{"coeffs": list(c), "const": d} for c, d in sorted(H.rows)],
    }


def _vrep_json(points) -> dict:
    return {"points": [[fmt_fraction(x) for x in p] for p in points]}


# -- subcommand handlers -------------------------------------------------------


def cmd_graph(args, out) -> int:
    G = plabic.build_corect_graph(args.n)
    if args.format == "dot":
        out.write(plabic.graph_to_dot(G))
    elif args.format == "json":
        json.dump({"n": args.n, "faces": plabic.faces_json(G)}, out, indent=2)
        out.write("\n")
    else:
        out.write(f"co-rectangles plabic graph, n={args.n}: "
                  f"{len(G.faces)} faces, {len(G.colors)} internal vertices\n")
        for entry in plabic.faces_json(G):
            out.write(f"  face {entry['label']}: {' '.join(entry['boundary'])}\n")
    return 0


def cmd_orientation(args, out) -> int:
    G, O = plabic.corect_network(args.n)
    if args.format == "dot":
        out.write(plabic.graph_to_dot(G, O))
    elif args.format == "json":
        json.dump(
            {
                "n": args.n,
                "sources": list(O.source_set),
                "darts": [
                    [plabic.vertex_name(t), plabic.vertex_name(h)]
                    for t, h in sorted(O.direction)
                ],
            },
            out,
            indent=2,
        )
        out.write("\n")
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


def cmd_flows(args, out) -> int:
    try:
        target = tuple(int(x) for x in args.target.split(","))
    except ValueError:
        raise ValueError(f"malformed target {args.target!r}") from None
    G, O = plabic.corect_network(args.n)
    flows = plabic.enumerate_flows(G, O, target)
    if args.format == "json":
        json.dump(
            {
                "n": args.n,
                "target": sorted(target),
                "flows": [
                    {
                        "paths": [[plabic.vertex_name(v) for v in p] for p in f.paths],
                        "monomial": {
                            format_partition(lab): e
                            for lab, e in sorted(f.monomial(G).items())
                        },
                        "orbit_vector": list(valuation.orbit_vector(args.n, f.monomial(G))),
                    }
                    for f in flows
                ],
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        out.write(f"{len(flows)} flow(s) from {list(O.source_set)} to {sorted(target)}\n")
        for i, f in enumerate(flows):
            out.write(f"flow {i}:\n")
            for p in f.paths:
                out.write("  path: " + " -> ".join(plabic.vertex_name(v) for v in p) + "\n")
            out.write("  weight: " + _monomial_str(args.n, f.monomial(G)) + "\n")
        poly = [valuation.orbit_vector(args.n, f.monomial(G)) for f in flows]
        out.write("flow polynomial exponents (orbit coordinates "
                  + ", ".join(format_partition(c) for c in valuation.coordinate_system(args.n))
                  + "):\n")
        for vec in sorted(poly):
            out.write(f"  {vec}\n")
    return 0


def cmd_valuations(args, out) -> int:
    n = args.n
    table = valuation.all_plucker_valuations(n)
    if args.format == "json":
        json.dump(
            [
                {
                    "partition": format_partition(lam),
                    "indexset": list(partition_to_indexset(lam, n)),
                    "valuation": list(vec),
                }
                for lam, vec in table.items()
            ],
            out,
            indent=2,
        )
        out.write("\n")
    else:
        coords = ", ".join(_indexset_str(c, n) for c in valuation.coordinate_system(n))
        out.write(f"valuations in coordinates ({coords}):\n")
        for lam, vec in table.items():
            name = _indexset_str(lam, n)
            other = transpose(lam)
            if other != lam:
                name += "=" + _indexset_str(other, n)
            out.write(f"  {name:<12} {vec}\n")
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


def cmd_gamma(args, out) -> int:
    n = args.n
    H = superpotential.gamma_hrep(n)
    names = _gamma_coords(n)
    if args.vrep:
        points = superpotential.gamma_vertex_set(n)
        if args.format == "json":
            json.dump({"coords": names} | _vrep_json(points), out, indent=2)
            out.write("\n")
        else:
            out.write(f"superpotential polytope vertices ({len(points)}):\n")
            for p in points:
                out.write(f"  {p}\n")
        return 0
    if args.format == "json":
        json.dump(_hrep_json(H, names), out, indent=2)
        out.write("\n")
    else:
        out.write(f"superpotential polytope in coordinates ({', '.join(names)}):\n")
        for c, d in H.rows:
            out.write("  " + _render_inequality(c, d, names) + "\n")
    return 0


def cmd_delta(args, out) -> int:
    deadline = Deadline(args.time_budget)
    n = args.n
    points = valuation.delta_vertices(n)
    names = [_indexset_str(c, n) for c in valuation.coordinate_system(n)]
    if args.vrep:
        if args.format == "json":
            json.dump({"coords": names} | _vrep_json(points), out, indent=2)
            out.write("\n")
        else:
            out.write(f"Newton-Okounkov body generators ({len(points)}):\n")
            for p in points:
                out.write(f"  {p}\n")
        return 0
    V = VPolytope.from_points(points)
    if args.fvector:
        fv = polytope.f_vector(V, deadline)
        if args.format == "json":
            json.dump({"f_vector": list(fv)}, out, indent=2)
            out.write("\n")
        else:
            out.write(f"f-vector: {fv}\n")
        return 0
    H = polytope.facets(V, deadline)
    if args.format == "json":
        json.dump(_hrep_json(H, names), out, indent=2)
        out.write("\n")
    else:
        out.write(f"Newton-Okounkov body facets, coordinates ({', '.join(names)}), "
                  "rows (const, coefficients):\n")
        for c, d in sorted(H.rows):
            out.write(f"  {d:>3} " + " ".join(f"{x:>3}" for x in c) + "\n")
    return 0


def cmd_matrix(args, out) -> int:
    M = equivalence.build_valuation_matrix(args.n)
    if args.format == "json":
        json.dump(
            {
                "n": args.n,
                "rows": [list(r) for r in M.entries],
                "row_labels": [format_partition(p) for p in M.row_labels],
                "column_pairs": [list(p) for p in M.col_pairs],
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        for row in M.entries:
            out.write(" ".join(str(x) for x in row) + "\n")
    return 0


def cmd_fold(args, out) -> int:
    if args.format == "dot":
        Q = quiverfold.dual_quiver(plabic.build_corect_graph(args.n))
        out.write(quiverfold.quiver_to_dot(Q))
        return 0
    F = quiverfold.folded_matrix(args.n)
    if args.format == "json":
        json.dump(
            {
                "n": args.n,
                "row_orbits": [[format_partition(p) for p in o] for o in F.row_orbits],
                "col_orbits": [[format_partition(p) for p in o] for o in F.col_orbits],
                "entries": [list(r) for r in F.entries],
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        for row in F.entries:
            out.write(" ".join(f"{x:>3}" for x in row) + "\n")
    return 0


def cmd_volume(args, out) -> int:
    deadline = Deadline(args.time_budget)
    n = args.n
    expected = staircase_syt_count(n)
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n))
    delta = VPolytope.from_points(valuation.delta_vertices(n))
    vol_gamma = polytope.normalized_volume(gamma, deadline)
    vol_delta = polytope.normalized_volume(delta, deadline)
    if args.format == "json":
        json.dump(
            {
                "n": n,
                "gamma": fmt_fraction(vol_gamma),
                "delta": fmt_fraction(vol_delta),
                "degree": expected,
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        out.write(f"normalized volume of the superpotential polytope: {fmt_fraction(vol_gamma)}\n")
        out.write(f"normalized volume of the Newton-Okounkov body:    {fmt_fraction(vol_delta)}\n")
        out.write(f"degree of LGr({n},{2*n}) (staircase SYT count):       {expected}\n")
    return 0 if vol_gamma == vol_delta == expected else 1


def cmd_counts(args, out) -> int:
    n = args.n
    P = superpotential.build_poset(n)
    deadline = Deadline(args.time_budget)
    antichains = superpotential.antichain_count(P, deadline)
    syt = staircase_syt_count(n)
    extensions = superpotential.linear_extension_count(P, deadline)
    if args.format == "json":
        json.dump(
            {
                "n": n,
                "antichains": antichains,
                "catalan": superpotential.antichain_count_formula(n),
                "linear_extensions": extensions,
                "staircase_syt": syt,
            },
            out,
            indent=2,
        )
        out.write("\n")
    else:
        out.write(f"antichains of the staircase poset: {antichains}\n")
        out.write(f"Catalan number C_{n+1}:            {superpotential.antichain_count_formula(n)}\n")
        out.write(f"linear extensions:                 {extensions}\n")
        out.write(f"staircase SYT count (degree):      {syt}\n")
    return 0


def cmd_verify(args, out) -> int:
    results = run_checks(args.n, args.level, Deadline(args.time_budget))
    all_ok = all(r["status"] != "fail" for r in results)
    if args.format == "json":
        json.dump({"n": args.n, "level": args.level, "ok": all_ok, "checks": results}, out, indent=2)
        out.write("\n")
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
        if args.time_budget <= 0:
            raise ValueError("time budget must be positive")
        return args.func(args, sys.stdout)
    except TimeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnboundedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
