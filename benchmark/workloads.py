"""The benchmark's workloads and the correctness gate every sample passes.

A workload is one fixed input, fixed by n alone.  The two CLI workloads run
`lgrnok verify`; `oracle-n5` replays the flow model against the closed-form
valuations at n=5, which the CLI gates away.  The gate compares each
sample's stdout with the baseline output recorded under `baseline/`.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent / "baseline"
# The lgrnok modules whose public functions the traced run wraps, and the
# layers of its per-layer metrics: those modules and the CLI above them.
TRACED_MODULES = ("partitions", "plabic", "valuation", "superpotential",
                  "polytope", "linalg", "equivalence", "quiverfold")
LAYERS = TRACED_MODULES + ("cli",)


@dataclass(frozen=True)
class Workload:
    name: str
    # Module whose import is the workload's set-up: the entry point it uses.
    entry: str
    # Arguments of `lgrnok`, or None for the flow-oracle workload.
    cli_argv: tuple[str, ...] | None
    # n of the flow-oracle workload.
    oracle_n: int | None = None

    def baseline(self) -> str:
        return (BASELINE_DIR / f"{self.name}.out").read_text()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vertex-n7", "lgrnok.cli", ("verify", "--n", "7", "--level", "vertex")),
        Workload("hull-n4", "lgrnok.cli", ("verify", "--n", "4", "--level", "hull")),
        Workload("oracle-n5", "lgrnok.valuation", None, oracle_n=5),
    )
}

_CHECK_LINE = re.compile(r"^  \[(PASS|FAIL|skip)\] (\S+)", re.MULTILINE)
_CROSS_CHECKED = re.compile(r"^cross-checked (\d+)$", re.MULTILINE)


def oracle_output(table: dict, cross_checked: int) -> str:
    """What the flow-oracle workload prints: the size of the valuation
    table, how many valuations the flow model recomputed, and a digest of
    the whole table."""
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    return f"valuations {len(table)}\ncross-checked {cross_checked}\nsha256 {digest}\n"


def cross_checked(stdout: str) -> int:
    match = _CROSS_CHECKED.search(stdout)
    return int(match[1]) if match else 0


def check_statuses(stdout: str) -> dict[str, str]:
    """Check name -> PASS / FAIL / skip, from `lgrnok verify` text output."""
    return {name: status for status, name in _CHECK_LINE.findall(stdout)}


def gate(workload: Workload, returncode: int, stdout: str, baseline: str) -> list[str]:
    """Reasons the sample is wrong; empty when it is correct.

    A sample is wrong when it exits non-zero (3, time budget exceeded,
    included), prints a FAIL line, misses or skips a check that passed in
    the baseline, or, for the flow oracle, cross-checks fewer valuations
    than the baseline or prints another table digest.
    Byte-identical stdout is not required: a correctness change may lift a
    gate and add PASS lines.
    """
    reasons = [f"exit code {returncode}"] if returncode != 0 else []
    if workload.cli_argv is None:
        got, want = cross_checked(stdout), cross_checked(baseline)
        if got < want:
            reasons.append(f"{got} valuations cross-checked, {want} in the baseline")
        if stdout != baseline:
            reasons.append("valuation table or its digest differs from the baseline")
        return reasons
    got = check_statuses(stdout)
    reasons += [f"FAIL {name}" for name, status in got.items() if status == "FAIL"]
    for name, status in check_statuses(baseline).items():
        if status == "PASS" and got.get(name) != "PASS":
            reasons.append(f"{name} passed in the baseline, now {got.get(name, 'missing')}")
    return reasons


def checks_passed(workload: Workload, stdout: str) -> int:
    """PASS lines of a verdict, or the valuations the oracle cross-checked."""
    if workload.cli_argv is None:
        return cross_checked(stdout)
    return sum(status == "PASS" for status in check_statuses(stdout).values())
