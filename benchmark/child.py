"""One benchmark sample, in a fresh interpreter.

    python benchmark/child.py WORKLOAD [--trace PREFIX]

lgrnok is imported from PYTHONPATH, which the benchmark points at the
checkout's `src/`.  The workload's output goes to stdout, exactly as the
CLI prints it, and the exit code is the CLI's.  With `--trace`, every
public function of the lgrnok modules below the CLI is wrapped before the
workload runs; the spans stay in memory and are written out when it ends:
PREFIX.json holds the totals per function, and PREFIX.spans the raw spans
as `marshal.load(file) -> (names, [(function, start, end, parent), ...])`,
where `function` indexes `names` and `parent` indexes the span list, -1 for
a top-level span.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import inspect
import json
import marshal
import sys
import time

from workloads import LAYERS, TRACED_MODULES, WORKLOADS, oracle_output

# Results whose length is itself a count of work done: metric name by function.
RESULT_COUNTS = {"plabic.enumerate_flows": "plabic.flows"}


class Tracer:
    """Wraps functions so that each call records a span (function, start,
    end, parent) and the hash of its arguments."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        # Per function, the hashes of the argument tuples it was called with;
        # None once a call's arguments turn out unhashable.  Only hashes are
        # kept: holding every argument tuple made the interpreter's cyclic
        # garbage collector slow the traced run down by seconds.
        self.args: list[set[int] | None] = []
        self.result_items: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.args.append(set())
        self.result_items.append(0)
        spans, stack, args_seen, clock = self.spans, self._stack, self.args, time.perf_counter
        count_result = name in RESULT_COUNTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            seen = args_seen[fid]
            if seen is not None:
                try:
                    seen.add(hash((args, tuple(sorted(kwargs.items()))) if kwargs else args))
                except TypeError:  # unhashable input: no distinct ratio
                    args_seen[fid] = None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if count_result:
                self.result_items[fid] += len(result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap each public function defined in a traced module, and rebind
        it there and wherever an lgrnok module imported it by name."""
        for short in TRACED_MODULES:
            module = modules[short]
            for attr, fn in list(vars(module).items()):
                public = not attr.startswith("_") and getattr(fn, "__module__", None) == module.__name__
                # inspect.unwrap sees through functools.cache.
                if not (public and inspect.isfunction(inspect.unwrap(fn))):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for other in modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, traced)

    def summary(self, run_s: float, outside: float, inside: float) -> dict:
        """Per-function calls, inclusive and self seconds and distinct
        inputs, and the run time that no span covers.

        `outside` and `inside` are the wrapper's own seconds per call that
        fall outside the call's span (charged to the caller) and inside it
        (see wrapper_cost); they are taken off every self and inclusive
        time and off the run time.
        """
        n = len(self.names)
        calls, incl, self_s = [0] * n, [0.0] * n, [0.0] * n
        child_time = [0.0] * len(self.spans)
        children = [0] * len(self.spans)
        descendants = [0] * len(self.spans)
        # A child span always comes after its parent.
        for index in range(len(self.spans) - 1, -1, -1):
            fid, start, end, parent = self.spans[index]
            calls[fid] += 1
            if parent >= 0:
                child_time[parent] += end - start
                children[parent] += 1
                descendants[parent] += descendants[index] + 1
        per_call = outside + inside
        top, top_calls = 0.0, 0
        # Replaying the spans in call order with a stack of the open ones
        # tells which calls run inside another call of the same function.
        open_spans, open_calls = [], [0] * n
        for index, (fid, start, end, parent) in enumerate(self.spans):
            while open_spans and open_spans[-1] != parent:
                open_calls[self.spans[open_spans.pop()][0]] -= 1
            duration = end - start
            if parent < 0:
                top += duration
                top_calls += 1
            self_s[fid] += duration - child_time[index] - inside - outside * children[index]
            # A recursive call is already inside its outermost call's time.
            if not open_calls[fid]:
                incl[fid] += duration - inside - per_call * descendants[index]
            open_spans.append(index)
            open_calls[fid] += 1
        functions = {}
        for fid, name in enumerate(self.names):
            entry = {"calls": calls[fid], "incl_s": incl[fid], "self_s": self_s[fid]}
            if self.args[fid] is not None:
                entry["distinct"] = len(self.args[fid])
            functions[name] = entry
        counts = {RESULT_COUNTS[self.names[fid]]: items
                  for fid, items in enumerate(self.result_items) if self.names[fid] in RESULT_COUNTS}
        return {
            "run_s": run_s - per_call * len(self.spans),
            "traced_run_s": run_s,
            "wrapper_s_per_call": {"outside": outside, "inside": inside},
            "cli_self_s": run_s - top - outside * top_calls,
            "functions": functions,
            "counts": counts,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as out:
            marshal.dump((self.names, self.spans), out)


def wrapper_cost(calls: int = 10_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds per call that a Tracer wrapper adds outside its call's span
    and inside it, measured on an empty function taking one small hashable
    argument, the median over `repeats` loops of `calls` calls each."""
    def empty(arg):
        return arg

    clock = time.perf_counter
    outside, inside = [], []
    for _ in range(repeats):
        start = clock()
        for i in range(calls):
            empty(i)
        bare = clock() - start
        tracer = Tracer()
        traced = tracer.wrap("empty", empty)
        start = clock()
        for i in range(calls):
            traced(i)
        wrapped = clock() - start
        in_spans = sum(end - begin for _, begin, end, _ in tracer.spans)
        outside.append((wrapped - in_spans - bare) / calls)
        inside.append(in_spans / calls)
    # The median, without importing `statistics`, which would add to the
    # peak memory of every oracle sample.
    return sorted(outside)[repeats // 2], sorted(inside)[repeats // 2]


def run_workload(workload) -> int:
    if workload.cli_argv is not None:
        return importlib.import_module("lgrnok.cli").main(list(workload.cli_argv))
    # Count the valuations the flow model recomputes, so that a cross-check
    # gated away shows in the output instead of only in the time.
    valuation = importlib.import_module("lgrnok.valuation")
    recompute, recomputed = valuation.valuation_from_flows, 0

    def counted(*args, **kwargs):
        nonlocal recomputed
        recomputed += 1
        return recompute(*args, **kwargs)

    valuation.valuation_from_flows = counted
    table = valuation.all_plucker_valuations(workload.oracle_n, cross_check=True)
    sys.stdout.write(oracle_output(table, recomputed))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", metavar="PREFIX")
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install({short: importlib.import_module(f"lgrnok.{short}") for short in LAYERS})
    start = time.perf_counter()
    code = run_workload(WORKLOADS[args.workload])
    run_s = time.perf_counter() - start
    sys.stdout.flush()
    if tracer:
        tracer.write_spans(args.trace + ".spans")
        with open(args.trace + ".json", "w") as out:
            json.dump(tracer.summary(run_s, *wrapper_cost()), out)
        # The spans would make the interpreter's final garbage collection
        # take seconds; they are written out, so leave them uncollected.
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
