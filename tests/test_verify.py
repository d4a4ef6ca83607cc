"""The verification registry `lgrnok.verify` and its one run loop."""

import hashlib
import re
import time
from pathlib import Path

import pytest

from lgrnok import equivalence, plabic, verify
from lgrnok.cli import main
from lgrnok.polytope import Deadline, TimeBudgetExceeded

BASELINE = Path(__file__).resolve().parents[1] / "benchmark" / "baseline"

EXPECTED_N1 = (
    "  [PASS] partition-bijection-roundtrip\n"
    "  [PASS] perfect-orientation-unique\n"
    "  [PASS] valuation-oracle-equivalence\n"
    "  [skip] valuation-table-lgr36  (reference table is for n=3)\n"
    "  [skip] flow-polynomial-145  (worked example is for n=3)\n"
    "  [PASS] superpotential-term-count\n"
    "  [PASS] gamma-tropicalization-vs-chain-polytope\n"
    "  [PASS] antichain-count-catalan\n"
    "  [PASS] linear-extensions-equal-syt\n"
    "  [skip] matrix-block-lemmas  (blocks need n >= 2)\n"
    "  [PASS] matrix-unimodular\n"
    "  [PASS] singleton-antichain-images\n"
    "  [PASS] maxdiag-additivity\n"
    "  [PASS] valuation-additivity\n"
    "  [PASS] main-theorem-vertex-level\n"
    "  [PASS] folded-exchange-matrix\n"
    "  [PASS] gamma-vertex-enumeration\n"
    "  [skip] delta-facets-match-printed  (printed system is for n=3)\n"
    "  [skip] f-vector  (reference f-vector is for n=3)\n"
    "  [PASS] main-theorem-hull-level\n"
    "all checks passed (n=1, level=all)\n"
)


def test_verify_n1_skip_witnesses(capsys):
    assert main(["verify", "--n", "1", "--level", "all"]) == 0
    assert capsys.readouterr().out == EXPECTED_N1


def test_one_time_budget_per_run(monkeypatch, capsys):
    real = equivalence.verify_valuation_additivity

    def slow(n):
        time.sleep(0.5)
        return real(n)

    monkeypatch.setattr(equivalence, "verify_valuation_additivity", slow)
    start = time.monotonic()
    code = main(["verify", "--n", "3", "--level", "all", "--time-budget", "0.2"])
    assert code == 3
    assert time.monotonic() - start < 1.5
    # stderr names the check that used up the budget
    assert "valuation-additivity" in capsys.readouterr().err


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_flow_polynomial_145_fails_without_one_flow(monkeypatch, capsys, dropped):
    real = plabic.enumerate_flows

    def one_flow_fewer(G, O, J):
        flows = real(G, O, J)
        if tuple(sorted(J)) == (1, 4, 5):
            flows = flows[:dropped] + flows[dropped + 1:]
        return flows

    monkeypatch.setattr(plabic, "enumerate_flows", one_flow_fewer)
    assert main(["verify", "--n", "3", "--level", "vertex"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  [FAIL] flow-polynomial-145  (vectors ") for line in lines)


@pytest.mark.parametrize("workload, level", [("vertex-n7", "vertex"), ("hull-n4", "hull")])
def test_benchmark_check_names_are_registered(workload, level):
    # The benchmark gate matches check names in `lgrnok verify` output; a
    # renamed check would drop out of it silently.
    text = (BASELINE / f"{workload}.out").read_text()
    names = re.findall(r"^  \[(?:PASS|FAIL|skip)\] (\S+)", text, re.MULTILINE)
    levels = {check.name: check.level for check in verify.CHECKS}
    assert names
    assert {name: levels.get(name) for name in names} == {name: level for name in names}


def test_flow_oracle_runs_at_n5(capsys):
    assert main(["verify", "--n", "5", "--level", "vertex"]) == 0
    assert "  [PASS] valuation-oracle-equivalence\n" in capsys.readouterr().out


def test_vertex_level_budget_holds_at_n9(capsys):
    # the whole command takes about 0.4 s at n=9, so a 0.1 s budget expires
    start = time.monotonic()
    assert main(["verify", "--n", "9", "--level", "vertex", "--time-budget", "0.1"]) == 3
    assert time.monotonic() - start < 1.5
    assert "exceeded its time budget" in capsys.readouterr().err


def test_roundtrip_polls_the_deadline():
    # the whole round trip at n=10 (184,756 index sets) takes far longer
    start = time.monotonic()
    with pytest.raises(TimeBudgetExceeded):
        verify.roundtrip(10, Deadline(0.05))
    assert time.monotonic() - start < 0.5


def test_vertex_level_loop_polls_the_deadline():
    # The walk over the 184,756 lattice paths at n=10 takes far longer; the
    # valuation matrix and the packed table come before it, unpolled, and
    # are made ready first, so that only the walk is timed.
    equivalence.build_valuation_matrix(10)
    start = time.monotonic()
    with pytest.raises(TimeBudgetExceeded):
        equivalence.verify_main_theorem(10, Deadline(0.05))
    assert time.monotonic() - start < 0.5


# sha256 of stdout: n=8 and the valuations recorded from the cell-by-cell
# implementation that the lattice-path code replaced, n=9 from the vertex
# level that compared a class table with a dict of antichain images.
PINNED_STDOUT = {
    "verify --n 9 --level vertex": "fe3c75f8524fca1c15af2abeb2728a0be847b5430c4c1855bfae97e6b758c1d1",
    "verify --n 8 --level vertex": "4cdc74bc1dff8f5d547c0c08f9385086c2c96bafb04c91623a00a3737c2227fb",
    "valuations --n 6": "765d9af3cea661711ee719f0a53c6d82fc62074267363b5567e4b3f7948f3ce9",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]
