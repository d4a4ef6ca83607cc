#!/usr/bin/env python3
"""Run the whole verification suite across a range of sizes.

Vertex-level checks run for every n; hull-level checks (exact hulls,
f-vectors, volumes) run where they are gated.  Exits 1 if anything fails,
and stops with exit 3 when a check exceeds the time budget, as the CLI does.

Usage: python scripts/run_verification.py [--max-n 5] [--time-budget 1800]
"""

import argparse
import sys
import time

from lgrnok.cli import CommandConfig, _verification_checks
from lgrnok.polytope import TimeBudgetExceeded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--time-budget", type=float, default=1800.0)
    args = parser.parse_args(argv)

    failures = 0
    for n in range(1, args.max_n + 1):
        cfg = CommandConfig(n=n, subcommand="verify", time_budget=args.time_budget)
        level = "all" if n <= 4 else "vertex"
        start = time.monotonic()
        results = []
        for name, call in _verification_checks(cfg, level):
            try:
                status, witness = call()
            except TimeBudgetExceeded as exc:
                print(f"error: n={n} ({level}) {name}: {exc}", file=sys.stderr)
                return 3
            except Exception as exc:
                status, witness = "fail", f"{type(exc).__name__}: {exc}"
            results.append((name, status, witness))
        elapsed = time.monotonic() - start
        bad = [(name, w) for name, s, w in results if s == "fail"]
        passed = sum(1 for _, s, _ in results if s == "pass")
        skipped = sum(1 for _, s, _ in results if s == "skip")
        print(f"n={n} ({level}): {passed} passed, {skipped} skipped, "
              f"{len(bad)} failed  [{elapsed:.1f}s]")
        for name, witness in bad:
            print(f"    FAIL {name}: {witness}")
        failures += len(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
