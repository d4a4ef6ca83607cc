import argparse
import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lgrnok import cli, equivalence, plabic, polytope, quiverfold, superpotential, valuation, verify
from lgrnok.budget import Deadline, TimeBudgetExceeded, armed
from lgrnok.cli import main
from lgrnok.partitions import staircase_syt_count
from oracles import pulled_back_gamma_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_usage_errors_exit_2(capsys):
    for argv, message in [(["verify", "--n", "0"], "n must be >= 1"),
                          (["matrix", "--n", "2", "--time-budget", "0"],
                           "time budget must be positive"),
                          (["counts", "--n", "3", "--time-budget", "nan"],
                           "time budget must be positive"),
                          (["counts", "--n", "3", "--time-budget", "-1"],
                           "time budget must be positive")]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("entry", ["lgrnok.cli", "lgrnok.valuation"])
def test_entry_import_loads_no_heavy_stdlib(entry):
    # Startup is most of a short run.  Every point, row and volume is an
    # int, so nothing needs `fractions` (which loads `decimal`); the records
    # are `collections.namedtuple`s, neither dataclasses (which load
    # `inspect`) nor `typing.NamedTuple`s (which load `typing` and compile
    # each field's annotation); and only the JSON writer imports `json`,
    # when it is called.  `-S` leaves out `site`, which may import `typing`
    # itself.
    heavy = "{'dataclasses', 'inspect', 'json', 'fractions', 'decimal', 'typing'}"
    code = f"import sys, {entry}; print(sorted({heavy} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_the_records_keep_their_fields_defaults_and_methods():
    records = {
        equivalence.ValuationMatrix: "n entries row_labels col_pairs",
        plabic.PerfectOrientation: "direction source_set",
        plabic.Flow: "paths left_faces",
        polytope.VPolytope: "dim points",
        polytope.HPolytope: "dim rows",
        quiverfold.Quiver: "n vertices frozen arrows",
        quiverfold.FoldedMatrix: "n row_orbits col_orbits entries",
        superpotential.PosetPn: "n elements",
        superpotential.SuperpotentialTerm: "kind cells",
        verify.Check: "name level run n_min n_max skip",
    }
    for record, fields in records.items():
        assert record._fields == tuple(fields.split()), record
        assert not hasattr(record(*fields.split()), "__dict__"), record
    check = verify.Check("name", "hull", len)
    assert check[3:] == (1, math.inf, "")
    assert check._replace(n_max=6, skip="why") == ("name", "hull", len, 1, 6, "why")
    assert repr(check._replace(run=None)) == (
        "Check(name='name', level='hull', run=None, n_min=1, n_max=inf, skip='')")
    P = superpotential.build_poset(2)
    assert repr(P) == "PosetPn(n=2, elements=((1, 1), (1, 2), (2, 2)))"
    assert P.below((2, 2), (1, 1)) and P._replace(n=3).elements == P.elements
    assert hash(P) == hash((2, P.elements)) and P == (2, P.elements)


def test_main_is_the_one_writer():
    # the handlers return their output; main alone formats and writes it
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in functions:
        if node.name.startswith("cmd_"):
            assert "out" not in [a.arg for a in node.args.args], node.name

    def writes(node):
        return sum(isinstance(sub, ast.Attribute) and sub.attr in ("write", "writelines", "stdout")
                   or isinstance(sub, ast.Name) and sub.id == "print" for sub in ast.walk(node))

    main_node = next(node for node in functions if node.name == "main")
    assert [node.name for node in functions if node is not main_node and writes(node)] == []
    assert writes(main_node) == writes(tree) > 0


def _subcommands(argv=()):
    """The subparsers of `lgrnok` that `build_parser(argv)` builds, by name."""
    parser = cli.build_parser(argv)
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _reads(sub) -> tuple:
    """What a parse reads off a subparser: each option's strings, choices,
    default, type and whether it is required; the exclusive groups; the
    handler; and the name its messages carry."""
    return ([(a.option_strings, a.dest, a.choices, a.default, a.type, a.required, a.help)
             for a in sub._actions],
            [[a.dest for a in group._group_actions] for group in sub._mutually_exclusive_groups],
            sub.get_default("func"), sub.prog)


@pytest.mark.parametrize("name", list(_subcommands()))
def test_a_run_builds_the_full_parsers_subparser_for_its_command(name):
    one = _subcommands([name, "--n", "3"])
    assert list(one) == [name]
    assert _reads(one[name]) == _reads(_subcommands()[name])


COMMANDS = "{graph,orientation,flows,valuations,gamma,delta,matrix,fold,volume,counts,verify}"


@pytest.mark.parametrize("command, errors", [
    ("verify --n 3 extra", (COMMANDS, "lgrnok: error: unrecognized arguments: extra")),
    ("flows --n 3", ("lgrnok flows: error: the following arguments are required: --target",)),
    ("nosuch", ("lgrnok: error: argument subcommand: invalid choice: 'nosuch'",)),
    ("", ("lgrnok: error: the following arguments are required: subcommand",)),
    ("--n 3 verify", ("lgrnok: error: argument subcommand: invalid choice: '3'",)),
    ("-h", ()), ("verify -h", ()),
], ids=lambda p: (p or "none") if isinstance(p, str) else "")
def test_usage_errors_read_as_from_the_full_parser(monkeypatch, capsys, command, errors):
    # a run that builds its command's subparser alone prints what the full
    # parser prints; the usage for an argument left over after the command
    # still lists all eleven
    def run():
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    one = run()
    assert all(error in one[2] for error in errors)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert run() == one


# The options a subcommand requires besides --n.
REQUIRED = {"flows": ["--target", "1,4,5"]}


@pytest.mark.parametrize("command, fmt", [
    (name, fmt) for name, sub in _subcommands().items()
    for fmt in next(a for a in sub._actions if a.dest == "format").choices
])
def test_every_command_polls_the_budget_as_it_writes(monkeypatch, capsys, command, fmt):
    # the deadline expires as the handler returns: its output is formatted
    # between polls of the deadline, so nothing is printed
    handler = _subcommands()[command].get_default("func")

    def expiring(args):
        result = handler(args)
        armed().expires = time.monotonic() - 1
        return result

    monkeypatch.setattr(cli, handler.__name__, expiring)
    assert main([command, "--n", "3", "--format", fmt, *REQUIRED.get(command, [])]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")


@pytest.mark.parametrize("argv", [
    ["graph"], ["orientation"], ["flows", "--target", "1,4,5"], ["valuations"],
    ["gamma"], ["gamma", "--vrep"], ["delta"], ["delta", "--vrep"], ["delta", "--fvector"],
    ["matrix"], ["fold"], ["volume"], ["counts"], ["verify"],
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_every_json_output_parses(capsys, argv):
    code, out = run_cli(capsys, *argv, "--n", "3", "--format", "json")
    assert code == 0
    json.loads(out)


def test_matrix_n2_text(capsys):
    code, out = run_cli(capsys, "matrix", "--n", "2")
    assert code == 0
    assert out == "1 2 0\n1 1 0\n1 1 1\n"


def test_matrix_n3_text(capsys):
    code, out = run_cli(capsys, "matrix", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "1 1 2 0 0 0"
    assert out.splitlines()[-1] == "1 1 1 1 1 1"


def test_determinism(capsys):
    _, first = run_cli(capsys, "valuations", "--n", "3")
    _, second = run_cli(capsys, "valuations", "--n", "3")
    assert first == second


def test_valuations_text_table(capsys):
    code, out = run_cli(capsys, "valuations", "--n", "3")
    assert code == 0
    assert "125=134" in out and "(0, 1, 0, 1, 1, 1)" in out
    assert "456" in out and "(2, 4, 1, 4, 2, 3)" in out


def test_valuations_json_schema(capsys):
    code, out = run_cli(capsys, "valuations", "--n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {"partition": "3,2,1", "indexset": [1, 3, 5],
            "valuation": [0, 2, 0, 2, 1, 1]} in rows
    assert len(rows) == 14


def test_graph_json_schema(capsys):
    code, out = run_cli(capsys, "graph", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    labels = {f["label"] for f in doc["faces"]}
    assert "3,3,1" in labels and "-" in labels
    assert all(isinstance(f["boundary"], list) for f in doc["faces"])


def test_graph_dot(capsys):
    code, out = run_cli(capsys, "graph", "--n", "2", "--format", "dot")
    assert code == 0 and out.startswith("graph corect {")
    code, out = run_cli(capsys, "orientation", "--n", "2", "--format", "dot")
    assert code == 0 and out.startswith("digraph corect {")


def test_gamma_hrep_text(capsys):
    code, out = run_cli(capsys, "gamma", "--n", "3", "--hrep")
    assert code == 0
    assert "1 - A11 - A12 - A13 >= 0" in out
    assert out.count(">= 0") == 10


def test_gamma_json_roundtrip(capsys):
    code, out = run_cli(capsys, "gamma", "--n", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["coords"] == ["A11", "A12", "A22"]
    assert {"coeffs": [-1, -1, 0], "const": 1} in doc["rows"]


def test_delta_fvector(capsys):
    code, out = run_cli(capsys, "delta", "--n", "3", "--fvector")
    assert code == 0
    assert "(14, 51, 86, 78, 39, 10)" in out


def test_delta_fvector_n4(capsys):
    code, out = run_cli(capsys, "delta", "--n", "4", "--fvector")
    assert code == 0
    assert out == "f-vector: (42, 313, 1094, 2236, 2923, 2539, 1477, 565, 135, 18)\n"


def test_delta_n5_prints_the_pulled_back_rows(capsys):
    code, out = run_cli(capsys, "delta", "--n", "5")
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.splitlines()[1:]]
    assert len(rows) == 31
    assert {(r[1:], r[0]) for r in rows} == pulled_back_gamma_rows(5)


def test_delta_hrep_row_count(capsys):
    code, out = run_cli(capsys, "delta", "--n", "3", "--hrep", "--format", "json")
    doc = json.loads(out)
    assert len(doc["rows"]) == 10


def test_flows_json(capsys):
    code, out = run_cli(capsys, "flows", "--n", "3", "--target", "1,2,3",
                        "--format", "json")
    doc = json.loads(out)
    assert len(doc["flows"]) == 1 and doc["flows"][0]["paths"] == []


def test_volume(capsys):
    code, out = run_cli(capsys, "volume", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 3, "gamma": "16", "delta": "16", "degree": 16}


def test_counts(capsys):
    code, out = run_cli(capsys, "counts", "--n", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["antichains"] == 42 and doc["linear_extensions"] == 768
    assert doc["staircase_syt"] == 768


def test_counts_n6_counts_linear_extensions(capsys):
    code, out = run_cli(capsys, "counts", "--n", "6")
    assert code == 0
    assert "linear extensions:                 1100742656\n" in out


def test_fold_text_n4(capsys):
    code, out = run_cli(capsys, "fold", "--n", "4")
    assert code == 0
    lines = [tuple(int(x) for x in line.split()) for line in out.splitlines()]
    assert lines[3] == (2, -2, 0, 0, -1, 1)
    assert len(lines) == 11


def test_verify_vertex_level(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--level", "vertex")
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_n3_json(capsys):
    code, out = run_cli(capsys, "verify", "--n", "3", "--level", "all",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "main-theorem-hull-level" in names and "valuation-table-lgr36" in names
    assert all(c["status"] in ("pass", "skip") for c in doc["checks"])


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["matrix"])  # missing --n
    assert exc.value.code == 2


def test_malformed_target(capsys):
    assert main(["flows", "--n", "3", "--target", "1,x"]) == 2
    assert main(["flows", "--n", "3", "--target", "1,2"]) == 2
    assert main(["matrix", "--n", "0"]) == 2


def run_module(*argv, stdout=subprocess.PIPE):
    # stdout is a pipe or a file, block-buffered as for any user who pipes
    # or redirects the output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "lgrnok", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


def test_console_entry_point(capsys, tmp_path):
    # `python -m lgrnok` flushes both streams after main returns and leaves
    # by `os._exit`: its output and exit codes are main's, to a pipe and to
    # a regular file, as the benchmark sends it
    for argv, code in ((["verify", "--n", "3", "--level", "vertex"], 0), (["matrix", "--n", "0"], 2),
                       (["counts", "--n", "8", "--time-budget", "1e-9"], 3)):
        with open(tmp_path / "stdout", "w+") as out:
            proc = run_module(*argv, stdout=out)
            out.seek(0)
            written = out.read()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (proc.returncode, written, proc.stderr) == (code, captured.out, captured.err)
    proc = run_module("matrix", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == "1 2 0\n1 1 0\n1 1 1\n"
    proc = run_module("matrix", "--n", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: n must be >= 1\n")
    proc = run_module("counts", "--n", "8", "--time-budget", "1e-9")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: computation exceeded its time budget\n"
    proc = run_module("verify", "--n", "4", "--level", "vertex")
    assert run_cli(capsys, "verify", "--n", "4", "--level", "vertex") == (proc.returncode, proc.stdout)
    assert proc.returncode == 0


def test_budget_exceeded_exit_code():
    # an absurdly small budget on a hull computation must exit 3
    assert main(["delta", "--n", "4", "--hrep", "--time-budget", "1e-9"]) == 3
    # and so must the poset counts, which poll it while they enumerate
    assert main(["counts", "--n", "8", "--time-budget", "1e-9"]) == 3


@pytest.mark.parametrize("entry", ["cli", "script"])
def test_a_run_out_of_budget_leaves_none_armed_behind(capsys, entry):
    # each entry arms its budget for its own call: after a run that used up
    # 1e-9 s, a library call in the same process runs to completion
    run = main if entry == "cli" else _run_verification_main()
    argv = ["counts", "--n", "8"] if entry == "cli" else ["--max-n", "3"]
    assert run([*argv, "--time-budget", "1e-9"]) == 3
    assert "exceeded its time budget" in capsys.readouterr().err
    assert armed().expires is None
    P = superpotential.build_poset(8)
    assert superpotential.linear_extension_count(P) == staircase_syt_count(8)


def test_volume_n5(capsys):
    code, out = run_cli(capsys, "volume", "--n", "5")
    assert code == 0
    assert out.count(" 292864\n") == 3


def test_volume_n6_stops_at_its_budget(capsys):
    # the volume of Delta at n=6 alone takes about a minute
    start = time.monotonic()
    assert main(["volume", "--n", "6", "--time-budget", "1"]) == 3
    assert time.monotonic() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeded its time budget" in captured.err


@pytest.mark.parametrize("argv", [["valuations", "--n", "10"], ["delta", "--n", "10", "--vrep"],
                                  ["gamma", "--n", "11", "--vrep"], ["gamma", "--n", "15"],
                                  ["flows", "--n", "8", "--target", "1,2,3,6,10,12,14,16"],
                                  ["gamma", "--n", "20", "--hrep"], ["fold", "--n", "70"],
                                  ["graph", "--n", "120"], ["orientation", "--n", "130"]])
def test_tables_and_point_sets_stop_at_the_budget(capsys, argv):
    # each runs for more than a budget, the flows (21,000 of them) and fold
    # for over ten; the budget is polled while the table, the points, the
    # flows, the rows, the plabic graph, its orientation or dual quiver, or
    # fold's orbit sums are built, before anything is printed
    start = time.monotonic()
    assert main([*argv, "--time-budget", "0.2"]) == 3
    assert time.monotonic() - start < 1.5
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")


@pytest.mark.parametrize("budget", [0.2, 0.6])
def test_the_matrix_stops_within_a_second_of_its_budget(capsys, budget):
    # M_n at n=60 takes seconds, most of them its 1,830 columns: the budget
    # is polled as the coordinate system is built (the first 0.3 s or so)
    # and once per column
    start = time.monotonic()
    assert main(["matrix", "--n", "60", "--time-budget", str(budget)]) == 3
    assert time.monotonic() - start < budget + 1.0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, module, name", [
    ("gamma", superpotential, "_antichain_masks"),
    ("gamma", superpotential, "gamma_vertex_set"),
    ("delta", valuation, "delta_vertices"),
])
def test_point_sets_poll_the_budget_after_the_enumeration(monkeypatch, capsys, command, module,
                                                          name, fmt):
    # the deadline expires as the points are enumerated: the decoding and
    # the output that follow poll it, and nothing is printed
    real = getattr(module, name)

    def expiring(*args):
        result = real(*args)
        armed().expires = time.monotonic() - 1
        return result

    monkeypatch.setattr(module, name, expiring)
    assert main([command, "--n", "5", "--vrep", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fold_output_polls_the_budget_per_row(monkeypatch, capsys, fmt):
    # the deadline expires as the first row is read, after the JSON orbit
    # names, which are polled too: the output stops at that row, not after
    # 1,024 text lines or every JSON row (at n=70 a row holds 2,415 entries)
    real = quiverfold.folded_matrix
    read = []

    def expiring(n):
        F = real(n)

        def rows():
            for row in F.entries:
                read.append(row)
                armed().expires = time.monotonic() - 1
                yield row

        return F._replace(entries=rows())

    monkeypatch.setattr(quiverfold, "folded_matrix", expiring)
    assert main(["fold", "--n", "6", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")
    assert len(read) == 1


def test_fold_json_polls_the_budget_over_its_orbit_names(monkeypatch, capsys):
    # the deadline expires once the fold is built: the JSON output stops at
    # its orbit names (0.06 s at n=70), before any row is read
    real, read = quiverfold.folded_matrix, []

    def expiring(n):
        F = real(n)
        armed().expires = time.monotonic() - 1
        return F._replace(entries=(read.append(row) or row for row in F.entries))

    monkeypatch.setattr(quiverfold, "folded_matrix", expiring)
    assert main(["fold", "--n", "6", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")
    assert read == []


def test_valuations_budget_covers_the_output(monkeypatch, capsys):
    # with each row's index set slowed down, the budget runs out while the
    # rows are formatted, between the walk's polls, one per first half
    real = cli._indexset_str

    def slow(indexset, n):
        time.sleep(0.002)
        return real(indexset, n)

    monkeypatch.setattr(cli, "_indexset_str", slow)
    start = time.monotonic()
    assert main(["valuations", "--n", "6", "--time-budget", "0.3"]) == 3
    assert time.monotonic() - start < 0.8
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")


def test_valuations_json_encoding_polls_the_budget(monkeypatch, capsys):
    # at n=6 the 494 classes take one poll of the deadline; a deadline that
    # expires at its second poll is caught while the JSON is encoded
    class ExpiresAtSecondPoll(Deadline):
        polls = 0

        def check(self):
            self.polls += 1
            if self.polls > 1:
                raise TimeBudgetExceeded("computation exceeded its time budget")

    monkeypatch.setattr(cli, "Deadline", ExpiresAtSecondPoll)
    assert main(["valuations", "--n", "6", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: computation exceeded its time budget\n")


def _run_verification_main():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_run_verification_exit_codes(capsys):
    main_script = _run_verification_main()
    assert main_script(["--max-n", "2"]) == 0
    # a time budget exceeded stops the run with the CLI's exit code
    assert main_script(["--max-n", "3", "--time-budget", "1e-9"]) == 3
    assert "exceeded its time budget" in capsys.readouterr().err
    # usage errors exit 2 with one error line, as in the CLI
    for argv, message in [(["--max-n", "0"], "max-n must be >= 1"),
                          (["--time-budget", "0"], "time budget must be positive"),
                          (["--time-budget", "nan"], "time budget must be positive")]:
        assert main_script(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
