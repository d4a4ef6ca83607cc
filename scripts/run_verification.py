#!/usr/bin/env python3
"""Run the whole verification suite across a range of sizes.

Every check of `lgrnok.verify.CHECKS` runs at every n, except where its
own n-range in that table skips it.  One time budget covers the whole run.
Exits 1 if anything fails, and stops with exit 3 when the time budget runs
out, as the CLI does; a --max-n below 1 or a budget that is not positive
exits 2.

Usage: python scripts/run_verification.py [--max-n 5] [--time-budget 1800]
"""

import argparse
import sys
import time

from lgrnok.budget import Deadline, TimeBudgetExceeded, arm
from lgrnok.verify import run_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--time-budget", type=float, default=1800.0)
    args = parser.parse_args(argv)
    if args.max_n < 1:
        print("error: max-n must be >= 1", file=sys.stderr)
        return 2
    if not args.time_budget > 0:  # also refuses nan
        print("error: time budget must be positive", file=sys.stderr)
        return 2

    with arm(Deadline(args.time_budget)):
        failures = 0
        for n in range(1, args.max_n + 1):
            start = time.monotonic()
            try:
                results = run_checks(n, "all")
            except TimeBudgetExceeded as exc:
                print(f"error: n={n} {exc}", file=sys.stderr)
                return 3
            elapsed = time.monotonic() - start
            bad = [r for r in results if r["status"] == "fail"]
            passed = sum(r["status"] == "pass" for r in results)
            skipped = sum(r["status"] == "skip" for r in results)
            print(f"n={n}: {passed} passed, {skipped} skipped, "
                  f"{len(bad)} failed  [{elapsed:.1f}s]")
            for r in bad:
                print(f"    FAIL {r['name']}: {r['witness']}")
            failures += len(bad)
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
