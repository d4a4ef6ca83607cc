"""Command-line surface: every computation and the report of `verify`.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 3 time budget exceeded, 141 stdout closed by its reader, with no
traceback.  `--time-budget` bounds the whole command.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import os
import sys
from itertools import chain, islice
from types import SimpleNamespace

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

DESCRIPTION = "Newton-Okounkov body and superpotential polytope of LGr(n,2n), exactly"
_TEXT, _DOT = ("text", "json"), ("text", "json", "dot")
# name: (handler, help, formats, the options beyond --n, --format and --time-budget:
# (flag, what it reads, a type or choices; its default, None when required; its help),
# or a bare flag for a switch, which excludes the command's other switches)
COMMANDS = {
    "graph": (cmd_graph, "plabic graph and faces", _DOT, ()),
    "orientation": (cmd_orientation, "perfect orientation", _DOT, ()),
    "flows": (cmd_flows, "flows to a target index set", _TEXT,
              (("--target", str, None, "comma-separated n-subset of 1..2n"),)),
    "valuations": (cmd_valuations, "Pluecker valuation table", _TEXT, ()),
    "gamma": (cmd_gamma, "superpotential polytope", _TEXT, ("--hrep", "--vrep")),
    "delta": (cmd_delta, "Newton-Okounkov body", _TEXT, ("--hrep", "--vrep", "--fvector")),
    "matrix": (cmd_matrix, "the valuation matrix", _TEXT, ()),
    "fold": (cmd_fold, "folded exchange matrix / quiver", _DOT, ()),
    "volume": (cmd_volume, "normalized volumes of both polytopes", _TEXT, ()),
    "counts": (cmd_counts, "antichains, linear extensions, SYT", _TEXT, ()),
    "verify": (cmd_verify, "run the verification suite", _TEXT,
               (("--level", ("vertex", "hull", "all"), "all", ""),)),
}


class Usage(Exception):
    """A parse that runs no command: (exit code, lines for stdout, text for stderr)."""


def _options(name) -> dict:  # flag -> (what it reads, bool for a switch; default; help)
    common = (("--n", int, None, "side of the square"), ("--format", COMMANDS[name][2], "text", ""),
              ("--time-budget", float, 1800.0, "seconds allowed for the whole command"))
    return {flag: spec for flag, *spec in ((o, bool, False, "") if isinstance(o, str) else o
                                           for o in common + COMMANDS[name][3])}


def _help(name=None) -> tuple[str, str]:
    """The usage and the help of `lgrnok [<name>]`, set at a fixed 80 columns."""
    def row(head, help):  # the help from column 24, or below
        return head + (" " * (24 - len(head)) if len(head) <= 22 else "\n" + " " * 24) + help if help else head

    def usage(prog, parts, positionals=()):  # each passes 78 columns: wrapped under the first part
        lines = ["usage: " + prog]
        for k, part in enumerate([*parts, *positionals]):
            if k == len(parts) or len(lines[-1]) + len(part) >= 78:
                lines.append(" " * (len(prog) + 7))
            lines[-1] += " " + part
        return "\n".join(lines) + "\n"

    rows = [row("  -h, --help", "show this help message and exit")]
    if name is None:
        choices = "{" + ",".join(COMMANDS) + "}"
        top = usage("lgrnok", ["[-h]"], [choices, "..."])
        commands = "".join(row("    " + command, entry[1]) + "\n" for command, entry in COMMANDS.items())
        return top, f"{top}\n{DESCRIPTION}\n\npositional arguments:\n  {choices}\n{commands}\noptions:\n{rows[0]}\n"
    parts, options = ["[-h]"], _options(name)
    switches = " | ".join(flag for flag, (kind, _, _) in options.items() if kind is bool)
    for flag, (kind, default, help) in options.items():
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].upper().replace("-", "_")
        rows.append(row("  " + (flag if kind is bool else f"{flag} {metavar}"), help))
        if kind is not bool:
            parts += [flag, metavar] if default is None else [f"[{flag} {metavar}]"]
    text = usage(f"lgrnok {name}", parts + [f"[{switches}]"] * bool(switches))
    return text, f"{text}\noptions:\n" + "\n".join(rows) + "\n"


def _read(token, flags):
    """What `token` is among `flags`: (a flag, by a unique prefix too, and its value after
    '=' or None); (None, None) for another option; None for an argument or a negative number."""
    flag, eq, value = token.partition("=")
    found = [flag] if flag in flags else [f for f in flags if f.startswith(flag)] if token[:2] == "--" != token else []
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    number = token[1:].replace(".", "", 1)
    return None if token[:1] != "-" or token == "-" or " " in token or number.isdecimal() and token[-1] != "." else (None, None)


def parse_args(argv) -> SimpleNamespace:
    """`argv` read from COMMANDS: the help, or the first usage error, raises Usage."""
    name, values, extras, j = None, {}, [], 0
    options = {"subcommand": (tuple(COMMANDS), None, "")}  # the first argument, required
    reads = [_read(token, ("-h", "--help")) for token in argv]

    def fail(message):
        raise Usage(2, [], f"{_help(name)[0]}lgrnok{' ' + name if name else ''}: error: {message}\n")

    while j < len(argv):
        read, j = reads[j], j + 1
        flag, value = read or ((None, None) if name else ("subcommand", argv[j - 1]))
        kind = options.get(flag, (bool,))[0]
        if flag is None:
            extras.append(argv[j - 1])
        elif kind is bool:  # the help or a switch
            if value is not None:
                fail(f"argument {'-h/--help' if flag in ('-h', '--help') else flag}: "
                     f"ignored explicit argument {value!r}")
            if flag in ("-h", "--help"):
                raise Usage(0, [_help(name)[1]], "")
            if other := next((f for f in values if f != flag and options[f][0] is bool), None):
                fail(f"argument {flag}: not allowed with argument {other}")
            values[flag] = True
        else:
            if value is None and (j == len(argv) or reads[j]):
                fail(f"argument {flag}: expected one argument")
            value, j = (argv[j], j + 1) if value is None else (value, j)
            try:  # a type, or choices, whose index() refuses any other value
                values[flag] = kind(value) if callable(kind) else kind[kind.index(value)]
            except ValueError:
                fail(f"argument {flag}: " + (f"invalid {kind.__name__} value: {value!r}" if callable(kind) else
                                             f"invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})"))
        if flag == "subcommand":  # what follows is read with the command's options
            name, options, values = value, _options(value), {}
            try:  # an ambiguous prefix fails before any option is read
                reads[j:] = [_read(token, ["-h", "--help", *options]) for token in argv[j:]]
            except ValueError as exc:
                fail(exc)
    if missing := [flag for flag, (_, default, _) in options.items() if default is None and flag not in values]:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise Usage(2, [], f"{_help()[0]}lgrnok: error: unrecognized arguments: {' '.join(extras)}\n")
    return SimpleNamespace(subcommand=name, **{flag[2:].replace("-", "_"): values.get(flag, spec[1])
                                               for flag, spec in options.items()})


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
    try:
        args = parse_args(argv)
        if args.n < 1:
            raise ValueError("n must be >= 1")
        if not args.time_budget > 0:  # also refuses nan
            raise ValueError("time budget must be positive")
        with arm(Deadline(args.time_budget)):
            code, output = COMMANDS[args.subcommand][0](args)
            text = _text(output, args.format)
    except Usage as exc:  # the help, or a usage error
        code, text, error = exc.args
        print(error, end="", file=sys.stderr)
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
