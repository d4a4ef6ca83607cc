"""lgrnok benchmark: time to a checked verdict, one closed-loop client.

    python3 benchmark/run.py --workload vertex-n7 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: lgrnok is imported from that
checkout's `src/`.  Every sample is a fresh interpreter, one at a time, so
the `functools.cache`d tables start cold and each child's own rusage gives
its CPU time and peak memory.  Samples are taken in rounds for about
`--seconds`.  Per selected workload a round holds one timed sample and,
with `--trace 0`, SETUPS_PER_ROUND set-up samples (the interpreter imports
the workload's entry point and exits) or, with `--trace 1`, one traced
sample.  The seed shuffles the order inside each round.  Every workload
sample is checked by the gate in `workloads.py`.  The benchmark and its
children share one CPU, whose speed `speed.py` meters while each child
runs; every time reported is scaled by that speed.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics, printed by name with their units;
the last line of stdout is the result as JSON.  The full record (machine,
commit, run order, load average and every sample) goes to
`benchmark/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from speed import TICK_S, SpeedMeter
from workloads import LAYERS, WORKLOADS, Workload, checks_passed, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS_PER_ROUND = 3
MIN_ROUNDS = 2


@dataclass
class Sample:
    kind: str  # "timed", "traced" or "setup"
    workload: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    load_before: tuple[float, ...]
    load_after: tuple[float, ...]
    reasons: list[str] = field(default_factory=list)
    stdout_identical: bool | None = None
    checks_passed: int | None = None
    stderr_tail: str = ""
    trace: dict | None = None
    # Reference seconds per second measured on the CPU while the sample ran
    # (speed.py); every time metric is a time of a sample times its scale.
    scale: float = 1.0


def spawn(kind: str, workload: Workload, cmd: list[str], env: dict) -> tuple[Sample, str]:
    """Run one child to its exit, metering the CPU's speed meanwhile; time
    it from spawn to exit and take its own rusage from wait4."""
    load_before = os.getloadavg()
    meter = SpeedMeter()
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(TICK_S * 1000):
                meter.tick()
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = returncode = os.waitstatus_to_exitcode(status)
        meter.finish()
        out.seek(0)
        err.seek(0)
        stdout, stderr = (f.read().decode(errors="replace") for f in (out, err))
    sample = Sample(kind, workload.name, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, returncode, load_before, os.getloadavg(),
                    stderr_tail=stderr[-2000:], scale=meter.scale())
    return sample, stdout


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_command(workload: Workload) -> list[str]:
    return [sys.executable, "-c", f"import {workload.entry}"]


def sample_command(workload: Workload, trace_prefix: Path | None) -> list[str]:
    if workload.cli_argv is not None and trace_prefix is None:
        return [sys.executable, "-m", "lgrnok", *workload.cli_argv]
    cmd = [sys.executable, str(HERE / "child.py"), workload.name]
    return cmd + ["--trace", str(trace_prefix)] if trace_prefix else cmd


def run_checked(kind: str, workload: Workload, cmd: list[str], env: dict) -> Sample:
    sample, _ = spawn(kind, workload, cmd, env)
    if sample.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} failed:\n{sample.stderr_tail}")
    return sample


def run_job(kind: str, workload: Workload, env: dict, baseline: str) -> Sample:
    if kind == "setup":
        return run_checked(kind, workload, setup_command(workload), env)
    prefix = RESULTS / f"trace-{workload.name}" if kind == "traced" else None
    sample, stdout = spawn(kind, workload, sample_command(workload, prefix), env)
    sample.reasons = gate(workload, sample.returncode, stdout, baseline)
    sample.stdout_identical = stdout == baseline
    sample.checks_passed = checks_passed(workload, stdout)
    if prefix is not None and sample.returncode == 0:
        sample.trace = json.loads(prefix.with_suffix(".json").read_text())
    return sample


def collect(workloads: list[Workload], seed: int, seconds: float, trace: bool) -> tuple[list[Sample], list]:
    """Rounds of samples, shuffled by the seed, while the next round, taken
    to last as long as the longest so far, would end within `seconds`."""
    rng = random.Random(seed)
    env = child_env()
    # The benchmark, its speed meter and every child share one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    baselines = {w.name: w.baseline() for w in workloads}
    for w in workloads:  # untimed: compiles the .pyc files of the checkout
        run_checked("setup", w, setup_command(w), env)
    kinds = ["timed"] + (["traced"] if trace else ["setup"] * SETUPS_PER_ROUND)
    samples, order = [], []
    start = time.perf_counter()
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        jobs = [(kind, w) for w in workloads for kind in kinds]
        rng.shuffle(jobs)
        for kind, w in jobs:
            order.append((kind, w.name))
            samples.append(run_job(kind, w, env, baselines[w.name]))
        rounds += 1
        round_s = max(round_s, time.perf_counter() - round_start)
    return samples, order


def workload_runs(samples: list[Sample]) -> list[Sample]:
    return [s for s in samples if s.kind in ("timed", "traced")]


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    median = statistics.median
    timed = [s for s in samples if s.kind == "timed"]
    runs = workload_runs(samples)
    return {
        "wall_s": median(s.wall_s * s.scale for s in timed),
        "cpu_s": median(s.cpu_s * s.scale for s in timed),
        "setup_s": median(s.wall_s * s.scale for s in samples if s.kind == "setup"),
        "raw_wall_s": median(s.wall_s for s in timed),
        "raw_cpu_s": median(s.cpu_s for s in timed),
        "peak_rss_mb": median(s.peak_rss_mb for s in timed),
        "checks_passed": median(s.checks_passed for s in runs),
        "pass_rate": sum(not s.reasons for s in runs) / len(runs),
    }


def layer_metrics(trace: dict, scale: float) -> dict[str, float]:
    """Per-function and per-layer numbers of one traced sample, its
    seconds scaled like the end-to-end times."""
    run_s = trace["run_s"]
    out = dict(trace["counts"])
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    layers["cli"]["self_s"] = out["cli.self_s"] = trace["cli_self_s"] * scale
    for name, f in trace["functions"].items():
        out[f"{name}.calls"] = f["calls"]
        out[f"{name}.incl_s"] = f["incl_s"] * scale
        out[f"{name}.self_s"] = f["self_s"] * scale
        out[f"{name}.incl_share"] = f["incl_s"] / run_s
        out[f"{name}.self_share"] = f["self_s"] / run_s
        if "distinct" in f:
            out[f"{name}.distinct_ratio"] = f["distinct"] / f["calls"] if f["calls"] else 0.0
        layer = layers[name.split(".")[0]]
        layer["calls"] += f["calls"]
        layer["self_s"] += f["self_s"] * scale
    for layer, totals in layers.items():
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.self_s"] = totals["self_s"]
        out[f"{layer}.self_share"] = totals["self_s"] / (run_s * scale)
    return out


def per_layer(samples: list[Sample]) -> dict[str, float]:
    """Medians over the traced samples; the tracing overhead is the traced
    median wall time minus the untraced one."""
    traced = [layer_metrics(s.trace, s.scale) for s in samples if s.kind == "traced" and s.trace]
    if not traced:
        raise SystemExit("error: no traced sample completed")
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    walls = {kind: statistics.median(s.wall_s * s.scale for s in samples if s.kind == kind)
             for kind in ("timed", "traced")}
    out["trace_overhead_s"] = walls["traced"] - walls["timed"]
    return out


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main() -> int:
    parser = argparse.ArgumentParser(description="lgrnok benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lgrnok" / "__init__.py").is_file():
        print(f"error: no lgrnok sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    RESULTS.mkdir(exist_ok=True)

    samples, order = collect(workloads, args.seed, seconds, bool(args.trace))

    measure = per_layer if args.trace else end_to_end
    metrics, results = {}, {}
    for w in workloads:
        mine = [s for s in samples if s.workload == w.name]
        values = measure(mine)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: BENCHMARK.json names metrics the run does not give: {missing}")
        prefix = "" if len(workloads) == 1 else f"{w.name}."
        runs = workload_runs(mine)
        identical = sum(bool(s.stdout_identical) for s in runs)
        print(f"{w.name}: {len(runs)} samples, {sum(bool(s.reasons) for s in runs)} failed, "
              f"stdout identical to the baseline in {identical}")
        for s in runs:
            if s.reasons:
                print(f"  failed sample: {'; '.join(s.reasons)}")
        for m in declared:
            value = values[m["name"]]
            bound = f"  (bound {m['bound']:.1%})" if "bound" in m else ""
            print(f"  {m['name']:48s} {value:14.6f} {m['unit']}{bound}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        for name in ("raw_wall_s", "raw_cpu_s"):
            if name in values:
                print(f"  {name:48s} {values[name]:14.6f} s  (unscaled, not a metric)")
        results[w.name] = values

    runs = workload_runs(samples)
    failed = sum(bool(s.reasons) for s in runs)
    record = {
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "pinned_cpus": sorted(os.sched_getaffinity(0))},
        "python": sys.version,
        **git_state(),
        "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "workloads": [w.name for w in workloads],
        "run_order": order,
        "metrics": results,
        "samples": [asdict(s) for s in samples],
    }
    (RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
