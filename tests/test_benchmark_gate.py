"""The benchmark's correctness gate, in the test suite: each workload of
`benchmark/workloads.py` runs once, in-process, the way
`benchmark/child.py` runs it, and its verdict must pass the gate against
the recorded baseline.  A check that a baseline requires to PASS and that
no longer passes fails here, before the benchmark refuses a sample.  Only
reads `benchmark/`.
"""

import sys
from pathlib import Path

import pytest

from lgrnok import valuation
from lgrnok.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_the_benchmark_gate(monkeypatch, capsys, name):
    workload = workloads.WORKLOADS[name]
    if workload.cli_argv is not None:
        code = main(list(workload.cli_argv))
        stdout = capsys.readouterr().out
    else:
        # the flow model's recomputations counted through the module
        # attribute, as the oracle workload counts them
        real, calls = valuation.valuation_from_flows, []
        monkeypatch.setattr(valuation, "valuation_from_flows",
                            lambda *args: calls.append(args) or real(*args))
        table = valuation.all_plucker_valuations(workload.oracle_n, cross_check=True)
        code, stdout = 0, workloads.oracle_output(table, len(calls))
    assert workloads.gate(workload, code, stdout, workload.baseline()) == []
    assert workloads.checks_passed(workload, stdout) > 0
