import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lgrnok.cli import fmt_fraction, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_usage_errors_exit_2(capsys):
    for argv, message in [(["verify", "--n", "0"], "n must be >= 1"),
                          (["matrix", "--n", "2", "--time-budget", "0"],
                           "time budget must be positive")]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_fmt_fraction():
    from fractions import Fraction

    assert fmt_fraction(Fraction(3, 1)) == "3"
    assert fmt_fraction(Fraction(-4, 6)) == "-2/3"


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lgrnok", "matrix", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 2 0\n1 1 0\n1 1 1\n"


def test_budget_exceeded_exit_code():
    # an absurdly small budget on a hull computation must exit 3
    assert main(["delta", "--n", "4", "--hrep", "--time-budget", "1e-9"]) == 3
    # and so must the poset counts, which poll it while they enumerate
    assert main(["counts", "--n", "8", "--time-budget", "1e-9"]) == 3


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
