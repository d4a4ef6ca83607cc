"""Command-line surface: every computation plus the one-shot verifier.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 time budget exceeded.  Output is deterministic: identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import equivalence, plabic, polytope, quiverfold, superpotential, valuation
from .partitions import (
    format_partition,
    partition_to_indexset,
    staircase_syt_count,
    transpose,
)
from .polytope import TimeBudgetExceeded, UnboundedError, VPolytope


@dataclass(frozen=True)
class CommandConfig:
    n: int
    subcommand: str
    output_format: str = "text"
    time_budget: float = 1800.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.time_budget <= 0:
            raise ValueError("time budget must be positive")


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


def cmd_graph(cfg: CommandConfig, out) -> int:
    G = plabic.build_corect_graph(cfg.n)
    if cfg.output_format == "dot":
        out.write(plabic.graph_to_dot(G))
    elif cfg.output_format == "json":
        json.dump({"n": cfg.n, "faces": plabic.faces_json(G)}, out, indent=2)
        out.write("\n")
    else:
        out.write(f"co-rectangles plabic graph, n={cfg.n}: "
                  f"{len(G.faces)} faces, {len(G.colors)} internal vertices\n")
        for entry in plabic.faces_json(G):
            out.write(f"  face {entry['label']}: {' '.join(entry['boundary'])}\n")
    return 0


def cmd_orientation(cfg: CommandConfig, out) -> int:
    G, O = plabic.corect_network(cfg.n)
    if cfg.output_format == "dot":
        out.write(plabic.graph_to_dot(G, O))
    elif cfg.output_format == "json":
        json.dump(
            {
                "n": cfg.n,
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


def cmd_flows(cfg: CommandConfig, target, out) -> int:
    G, O = plabic.corect_network(cfg.n)
    flows = plabic.enumerate_flows(G, O, target)
    if cfg.output_format == "json":
        json.dump(
            {
                "n": cfg.n,
                "target": sorted(target),
                "flows": [
                    {
                        "paths": [[plabic.vertex_name(v) for v in p] for p in f.paths],
                        "monomial": {
                            format_partition(lab): e
                            for lab, e in sorted(f.monomial(G).items())
                        },
                        "orbit_vector": list(valuation.orbit_vector(cfg.n, f.monomial(G))),
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
            out.write("  weight: " + _monomial_str(cfg.n, f.monomial(G)) + "\n")
        poly = [valuation.orbit_vector(cfg.n, f.monomial(G)) for f in flows]
        out.write("flow polynomial exponents (orbit coordinates "
                  + ", ".join(format_partition(c) for c in valuation.coordinate_system(cfg.n))
                  + "):\n")
        for vec in sorted(poly):
            out.write(f"  {vec}\n")
    return 0


def cmd_valuations(cfg: CommandConfig, out) -> int:
    n = cfg.n
    table = valuation.all_plucker_valuations(n)
    if cfg.output_format == "json":
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


def cmd_gamma(cfg: CommandConfig, rep: str, out) -> int:
    n = cfg.n
    H = superpotential.gamma_hrep(n)
    names = _gamma_coords(n)
    if rep == "vrep":
        points = superpotential.gamma_vertex_set(n)
        if cfg.output_format == "json":
            json.dump({"coords": names} | _vrep_json(points), out, indent=2)
            out.write("\n")
        else:
            out.write(f"superpotential polytope vertices ({len(points)}):\n")
            for p in points:
                out.write(f"  {p}\n")
        return 0
    if cfg.output_format == "json":
        json.dump(_hrep_json(H, names), out, indent=2)
        out.write("\n")
    else:
        out.write(f"superpotential polytope in coordinates ({', '.join(names)}):\n")
        for c, d in H.rows:
            out.write("  " + _render_inequality(c, d, names) + "\n")
    return 0


def cmd_delta(cfg: CommandConfig, rep: str, out) -> int:
    n = cfg.n
    points = valuation.delta_vertices(n)
    names = [_indexset_str(c, n) for c in valuation.coordinate_system(n)]
    if rep == "vrep":
        if cfg.output_format == "json":
            json.dump({"coords": names} | _vrep_json(points), out, indent=2)
            out.write("\n")
        else:
            out.write(f"Newton-Okounkov body generators ({len(points)}):\n")
            for p in points:
                out.write(f"  {p}\n")
        return 0
    V = VPolytope.from_points(points)
    if rep == "fvector":
        fv = polytope.f_vector(V, cfg.time_budget)
        if cfg.output_format == "json":
            json.dump({"f_vector": list(fv)}, out, indent=2)
            out.write("\n")
        else:
            out.write(f"f-vector: {fv}\n")
        return 0
    H = polytope.facets(V, cfg.time_budget)
    if cfg.output_format == "json":
        json.dump(_hrep_json(H, names), out, indent=2)
        out.write("\n")
    else:
        out.write(f"Newton-Okounkov body facets, coordinates ({', '.join(names)}), "
                  "rows (const, coefficients):\n")
        for c, d in sorted(H.rows):
            out.write(f"  {d:>3} " + " ".join(f"{x:>3}" for x in c) + "\n")
    return 0


def cmd_matrix(cfg: CommandConfig, out) -> int:
    M = equivalence.build_valuation_matrix(cfg.n)
    if cfg.output_format == "json":
        json.dump(
            {
                "n": cfg.n,
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


def cmd_fold(cfg: CommandConfig, out) -> int:
    if cfg.output_format == "dot":
        Q = quiverfold.dual_quiver(plabic.build_corect_graph(cfg.n))
        out.write(quiverfold.quiver_to_dot(Q))
        return 0
    F = quiverfold.folded_matrix(cfg.n)
    if cfg.output_format == "json":
        json.dump(
            {
                "n": cfg.n,
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


def cmd_volume(cfg: CommandConfig, out) -> int:
    n = cfg.n
    expected = staircase_syt_count(n)
    gamma = VPolytope.from_points(superpotential.gamma_vertex_set(n))
    delta = VPolytope.from_points(valuation.delta_vertices(n))
    vol_gamma = polytope.normalized_volume(gamma, cfg.time_budget)
    vol_delta = polytope.normalized_volume(delta, cfg.time_budget)
    if cfg.output_format == "json":
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


def cmd_counts(cfg: CommandConfig, out) -> int:
    n = cfg.n
    P = superpotential.build_poset(n)
    antichains = len(superpotential.enumerate_antichains(P))
    syt = staircase_syt_count(n)
    extensions = superpotential.linear_extension_count(P)
    if cfg.output_format == "json":
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


# -- verification --------------------------------------------------------------


def _verification_checks(cfg: CommandConfig, level: str):
    """Yields (name, callable) pairs; a callable returns (status, witness)
    with status in pass/fail/skip."""
    from itertools import combinations

    from .partitions import indexset_to_partition

    n = cfg.n

    def ok(cond, witness=""):
        return ("pass" if cond else "fail", witness if not cond else "")

    def check_roundtrip():
        for I in combinations(range(1, 2 * n + 1), n):
            if partition_to_indexset(indexset_to_partition(I, n), n) != I:
                return ok(False, f"round trip fails at {I}")
        return ok(True)

    def check_orientation():
        plabic.corect_network(n)  # raises unless unique
        return ok(True)

    def check_oracle():
        if n > 4:
            return "skip", "flow model gated to n <= 4"
        valuation.all_plucker_valuations(n, cross_check=True)
        return ok(True)

    def check_table():
        if n != 3:
            return "skip", "reference table is for n=3"
        table = valuation.all_plucker_valuations(3, cross_check=False)
        return ok(table[(3, 2, 1)] == (0, 2, 0, 2, 1, 1)
                  and table[()] == (2, 4, 1, 4, 2, 3)
                  and len(table) == 14)

    def check_flows_145():
        if n != 3:
            return "skip", "worked example is for n=3"
        G, O = plabic.corect_network(3)
        flows = plabic.enumerate_flows(G, O, (1, 4, 5))
        vectors = sorted(valuation.orbit_vector(3, f.monomial(G)) for f in flows)
        minimal = tuple(min(c) for c in zip(*vectors))
        return ok(
            vectors.count(minimal) == 1
            and minimal == valuation.valuation_maxdiag(3, (3, 1, 1))
            and all(v[0] == 0 and v[1] == 2 for v in vectors),
            f"vectors {vectors}",
        )

    def check_terms():
        terms = superpotential.build_superpotential(n)
        return ok(len(terms) == n * (n + 1) // 2 + 2 ** (n - 1), f"{len(terms)} terms")

    def check_gamma_routes():
        superpotential.gamma_hrep(n)  # raises on disagreement
        return ok(True)

    def check_catalan():
        P = superpotential.build_poset(n)
        count = len(superpotential.enumerate_antichains(P))
        return ok(count == superpotential.antichain_count_formula(n), f"{count}")

    def check_extensions():
        got = superpotential.linear_extension_count(superpotential.build_poset(n))
        return ok(got == staircase_syt_count(n), f"{got}")

    def check_blocks():
        if n < 2:
            return "skip", "blocks need n >= 2"
        report = equivalence.check_blocks(equivalence.build_valuation_matrix(n))
        return ok(report.all_ok, report.witness)

    def check_det():
        good, det = equivalence.is_unimodular(equivalence.build_valuation_matrix(n))
        return ok(good, f"det {det}")

    def check_singletons():
        return ok(equivalence.verify_singleton_images(n))

    def check_maxdiag_add():
        if n > 4:
            return "skip", "exhaustive check gated to n <= 4"
        return ok(equivalence.verify_maxdiag_additivity(n))

    def check_val_add():
        if n > 4:
            return "skip", "exhaustive check gated to n <= 4"
        return ok(equivalence.verify_valuation_additivity(n))

    def check_vertex_level():
        report = equivalence.verify_main_theorem(n, "vertex")
        return ok(report.vertex_ok, report.detail)

    def check_fold():
        F = quiverfold.folded_matrix(n)  # raises if ill-defined
        if n == 4:
            printed = (
                (0, 1, 0, -1, 0, 0), (-1, 0, 1, 1, 0, -1), (0, -1, 0, 0, 0, 1),
                (2, -2, 0, 0, -1, 1), (0, 0, 0, 1, 0, -1), (0, 2, -2, -1, 1, 0),
                (-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, -1, 1),
                (0, 0, 2, 0, 0, -1), (0, 0, -1, 0, 0, 0),
            )
            return ok(F.entries == printed, str(F.entries))
        return ok(True)

    def check_gamma_vertices():
        if n > 4:
            return "skip", "vertex enumeration gated to n <= 4"
        return ok(equivalence.gamma_vertices_match_hrep(n, cfg.time_budget))

    def check_delta_printed():
        if n != 3:
            return "skip", "printed system is for n=3"
        V = VPolytope.from_points(valuation.delta_vertices(3))
        printed = {
            ((0, -1, 0, 1, 0, 0), 0), ((-1, 1, 2, -1, 0, 0), 0), ((1, 0, -1, 0, 0, 0), 0),
            ((0, 0, 0, -1, 2, 0), 0), ((0, 0, -1, 1, -1, 0), 0), ((0, 0, 0, 0, -1, 1), 0),
            ((0, 0, -1, 0, 0, 0), 1), ((1, 0, -1, -1, 1, 0), 1), ((0, 1, 1, -1, -1, 0), 1),
            ((0, 1, 0, 0, -1, -1), 1),
        }
        return ok(polytope.facets(V, cfg.time_budget).row_set() == frozenset(printed))

    def check_fvector():
        if n != 3:
            return "skip", "reference f-vector is for n=3"
        fv_delta = polytope.f_vector(VPolytope.from_points(valuation.delta_vertices(3)), cfg.time_budget)
        fv_gamma = polytope.f_vector(VPolytope.from_points(superpotential.gamma_vertex_set(3)), cfg.time_budget)
        return ok(fv_delta == fv_gamma == (14, 51, 86, 78, 39, 10), f"{fv_delta} / {fv_gamma}")

    def check_hull_level():
        if n > 4:
            return "skip", "hull level gated to n <= 4"
        report = equivalence.verify_main_theorem(n, "hull", cfg.time_budget)
        return ok(report.all_ok, report.detail)

    vertex_checks = [
        ("partition-bijection-roundtrip", check_roundtrip),
        ("perfect-orientation-unique", check_orientation),
        ("valuation-oracle-equivalence", check_oracle),
        ("valuation-table-lgr36", check_table),
        ("flow-polynomial-145", check_flows_145),
        ("superpotential-term-count", check_terms),
        ("gamma-tropicalization-vs-chain-polytope", check_gamma_routes),
        ("antichain-count-catalan", check_catalan),
        ("linear-extensions-equal-syt", check_extensions),
        ("matrix-block-lemmas", check_blocks),
        ("matrix-unimodular", check_det),
        ("singleton-antichain-images", check_singletons),
        ("maxdiag-additivity", check_maxdiag_add),
        ("valuation-additivity", check_val_add),
        ("main-theorem-vertex-level", check_vertex_level),
        ("folded-exchange-matrix", check_fold),
    ]
    hull_checks = [
        ("gamma-vertex-enumeration", check_gamma_vertices),
        ("delta-facets-match-printed", check_delta_printed),
        ("f-vector", check_fvector),
        ("main-theorem-hull-level", check_hull_level),
    ]
    if level == "vertex":
        return vertex_checks
    if level == "hull":
        return hull_checks
    return vertex_checks + hull_checks


def cmd_verify(cfg: CommandConfig, level: str, out) -> int:
    results = []
    for name, call in _verification_checks(cfg, level):
        try:
            status, witness = call()
        except TimeBudgetExceeded:
            raise
        except Exception as exc:  # a raising check is a failing check
            status, witness = "fail", f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "status": status, "witness": witness})
    all_ok = all(r["status"] != "fail" for r in results)
    if cfg.output_format == "json":
        json.dump({"n": cfg.n, "level": level, "ok": all_ok, "checks": results}, out, indent=2)
        out.write("\n")
    else:
        for r in results:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[r["status"]]
            line = f"  [{mark}] {r['name']}"
            if r["witness"]:
                line += f"  ({r['witness']})"
            out.write(line + "\n")
        out.write(("all checks passed" if all_ok else "FAILURES above") + f" (n={cfg.n}, level={level})\n")
    return 0 if all_ok else 1


# -- entry ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgrnok",
        description="Newton-Okounkov body and superpotential polytope of LGr(n,2n), exactly",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--n", type=int, required=True, help="side of the square")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--time-budget", type=float, default=1800.0,
                       help="seconds allowed for hull-level computations")

    common(sub.add_parser("graph", help="plabic graph and faces"), ("text", "json", "dot"))
    common(sub.add_parser("orientation", help="perfect orientation"), ("text", "json", "dot"))
    p = sub.add_parser("flows", help="flows to a target index set")
    common(p)
    p.add_argument("--target", required=True, help="comma-separated n-subset of 1..2n")
    common(sub.add_parser("valuations", help="Pluecker valuation table"))
    p = sub.add_parser("gamma", help="superpotential polytope")
    common(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--hrep", action="store_true")
    g.add_argument("--vrep", action="store_true")
    p = sub.add_parser("delta", help="Newton-Okounkov body")
    common(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--hrep", action="store_true")
    g.add_argument("--vrep", action="store_true")
    g.add_argument("--fvector", action="store_true")
    common(sub.add_parser("matrix", help="the valuation matrix"))
    common(sub.add_parser("fold", help="folded exchange matrix / quiver"), ("text", "json", "dot"))
    common(sub.add_parser("volume", help="normalized volumes of both polytopes"))
    common(sub.add_parser("counts", help="antichains, linear extensions, SYT"))
    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--level", choices=("vertex", "hull", "all"), default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = CommandConfig(
            n=args.n,
            subcommand=args.subcommand,
            output_format=getattr(args, "format", "text"),
            time_budget=getattr(args, "time_budget", 1800.0),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout
    try:
        if cfg.subcommand == "graph":
            return cmd_graph(cfg, out)
        if cfg.subcommand == "orientation":
            return cmd_orientation(cfg, out)
        if cfg.subcommand == "flows":
            try:
                target = tuple(int(x) for x in args.target.split(","))
            except ValueError:
                print(f"error: malformed target {args.target!r}", file=sys.stderr)
                return 2
            return cmd_flows(cfg, target, out)
        if cfg.subcommand == "valuations":
            return cmd_valuations(cfg, out)
        if cfg.subcommand == "gamma":
            return cmd_gamma(cfg, "vrep" if args.vrep else "hrep", out)
        if cfg.subcommand == "delta":
            rep = "vrep" if args.vrep else ("fvector" if args.fvector else "hrep")
            return cmd_delta(cfg, rep, out)
        if cfg.subcommand == "matrix":
            return cmd_matrix(cfg, out)
        if cfg.subcommand == "fold":
            return cmd_fold(cfg, out)
        if cfg.subcommand == "volume":
            return cmd_volume(cfg, out)
        if cfg.subcommand == "counts":
            return cmd_counts(cfg, out)
        if cfg.subcommand == "verify":
            return cmd_verify(cfg, args.level, out)
    except TimeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, UnboundedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unhandled subcommand")


if __name__ == "__main__":
    sys.exit(main())
