"""The benchmark's correctness gate counts every planted wrong answer as a
failed sample, and the recorded baselines pass it."""

import pytest

from child import Tracer
from run import Sample, end_to_end
from speed import JOBS, REFERENCE_S, SpeedMeter
from workloads import WORKLOADS, checks_passed, gate

VERTEX, HULL, ORACLE = (WORKLOADS[name] for name in ("vertex-n7", "hull-n4", "oracle-n5"))


@pytest.mark.parametrize("workload", [VERTEX, HULL, ORACLE], ids=lambda w: w.name)
def test_baseline_passes_gate(workload):
    baseline = workload.baseline()
    assert gate(workload, 0, baseline, baseline) == []


def test_checks_passed_at_baseline():
    assert checks_passed(VERTEX, VERTEX.baseline()) == 8
    assert checks_passed(HULL, HULL.baseline()) == 2
    assert checks_passed(ORACLE, ORACLE.baseline()) == 142


def _planted_cli(baseline: str) -> dict[str, tuple[int, str]]:
    """Wrong answers as (exit code, stdout), each breaking one condition of
    the gate and leaving the rest of the baseline as it is."""
    return {
        "budget exceeded": (3, baseline),
        "exit 1": (1, baseline),
        "FAIL line": (0, baseline.replace("[skip]", "[FAIL]", 1)),
        "check missing": (0, "".join(
            line for line in baseline.splitlines(keepends=True) if "main-theorem" not in line)),
        "check skipped": (0, baseline.replace("[PASS] main-theorem", "[skip] main-theorem", 1)),
    }


@pytest.mark.parametrize("workload", [VERTEX, HULL], ids=lambda w: w.name)
@pytest.mark.parametrize("plant", list(_planted_cli("")))
def test_planted_cli_failure_is_caught(workload, plant):
    baseline = workload.baseline()
    returncode, stdout = _planted_cli(baseline)[plant]
    assert stdout != baseline or returncode != 0, "the plant must change the answer"
    assert gate(workload, returncode, stdout, baseline)


def test_lifted_gate_is_not_a_failure():
    """A new PASS line (a correctness change lifting a gate) keeps the
    sample correct, though its stdout is no longer byte-identical."""
    baseline = VERTEX.baseline()
    lifted = baseline.replace("[skip] maxdiag-additivity  (exhaustive check gated to n <= 4)",
                              "[PASS] maxdiag-additivity")
    assert lifted != baseline
    assert gate(VERTEX, 0, lifted, baseline) == []
    assert checks_passed(VERTEX, lifted) == 9


def _planted_oracle(baseline: str) -> dict[str, tuple[int, str]]:
    digest = baseline.splitlines()[-1]
    return {
        "other digest": (0, baseline.replace(digest, "sha256 " + "0" * 64)),
        "valuation missing": (0, baseline.replace("valuations 142", "valuations 141")),
        # The closed-form table alone, with the flow model gated away.
        "not cross-checked": (0, baseline.replace("cross-checked 142", "cross-checked 0")),
        "exit 1": (1, ""),
    }


@pytest.mark.parametrize("plant", list(_planted_oracle("\n")))
def test_planted_oracle_failure_is_caught(plant):
    baseline = ORACLE.baseline()
    returncode, stdout = _planted_oracle(baseline)[plant]
    assert stdout != baseline or returncode != 0, "the plant must change the answer"
    assert gate(ORACLE, returncode, stdout, baseline)


def test_oracle_checks_passed_counts_cross_checks():
    stdout = ORACLE.baseline().replace("cross-checked 142", "cross-checked 0")
    assert checks_passed(ORACLE, stdout) == 0


def _sample(kind, reasons=(), wall_s=1.0, scale=1.0):
    return Sample(kind, VERTEX.name, wall_s, wall_s, 20.0, 0, (0.0,) * 3, (0.0,) * 3,
                  reasons=list(reasons), checks_passed=8, scale=scale)


def test_failed_sample_lowers_pass_rate():
    samples = [_sample("timed"), _sample("timed", ["exit code 3"]), _sample("setup")]
    assert end_to_end(samples)["pass_rate"] == 0.5


def test_times_are_scaled_by_the_speed_of_their_own_sample():
    """The same work timed in a slow phase (3 s) and a fast one (2 s)."""
    samples = [_sample("timed", wall_s=3.0, scale=0.5), _sample("timed", wall_s=2.0, scale=0.75),
               _sample("setup", wall_s=0.2, scale=0.5)]
    metrics = end_to_end(samples)
    assert metrics["wall_s"] == metrics["cpu_s"] == 1.5
    assert metrics["setup_s"] == 0.1
    assert metrics["raw_wall_s"] == 2.5


def test_speed_meter_scales_to_the_reference_time_of_its_jobs():
    meter = SpeedMeter()
    meter.times = [[2 * REFERENCE_S / len(JOBS)] * 3 for _ in JOBS]
    assert meter.scale() == pytest.approx(0.5)


def test_speed_meter_times_every_job_of_a_short_sample():
    meter = SpeedMeter()
    meter.tick()
    meter.finish()
    assert all(times for times in meter.times)
    assert meter.scale() > 0


def test_tracer_takes_wrapper_cost_off_self_and_inclusive_times():
    """A call a (0-10 s) with two child calls b (1-3 s, 4-6 s), the wrapper
    costing 0.5 s per call outside its span and 0.25 s inside."""
    tracer = Tracer()
    tracer.names, tracer.args, tracer.result_items = ["m.a", "m.b"], [set(), set()], [0, 0]
    tracer.spans = [(0, 0.0, 10.0, -1), (1, 1.0, 3.0, 0), (1, 4.0, 6.0, 0)]
    summary = tracer.summary(12.0, 0.5, 0.25)
    a, b = summary["functions"]["m.a"], summary["functions"]["m.b"]
    assert (a["calls"], b["calls"]) == (1, 2)
    assert b["self_s"] == b["incl_s"] == 2 * (2.0 - 0.25)
    assert a["self_s"] == 10.0 - 4.0 - 0.25 - 2 * 0.5
    assert a["incl_s"] == 10.0 - 0.25 - 2 * 0.75
    assert summary["run_s"] == 12.0 - 3 * 0.75
    assert summary["cli_self_s"] == 12.0 - 10.0 - 0.5
    assert summary["cli_self_s"] + a["self_s"] + b["self_s"] == summary["run_s"]


def test_tracer_counts_a_recursive_call_once_in_inclusive_time():
    """a (0-10 s) calls a (1-5 s), which calls b (2-3 s); a later top-level
    b (11-12 s) is not nested."""
    tracer = Tracer()
    tracer.names, tracer.args, tracer.result_items = ["m.a", "m.b"], [set(), set()], [0, 0]
    tracer.spans = [(0, 0.0, 10.0, -1), (0, 1.0, 5.0, 0), (1, 2.0, 3.0, 1), (1, 11.0, 12.0, -1)]
    summary = tracer.summary(13.0, 0.0, 0.0)
    a, b = summary["functions"]["m.a"], summary["functions"]["m.b"]
    assert (a["calls"], a["incl_s"], a["self_s"]) == (2, 10.0, 9.0)
    assert (b["calls"], b["incl_s"], b["self_s"]) == (2, 2.0, 2.0)
    assert summary["cli_self_s"] == 13.0 - 11.0
