"""Self-test of the benchmark: ``python3 perfbench/selftest.py [--seed N] [--workload W ...]``.

Run from the root of a checkout.  For each workload it

1. runs the traced run twice on one seed and asserts that every count is
   identical: calls, ``madds``, ``cells``, ``max_bits``,
   ``exact_tests_per_call`` and ``sieve_primes_per_call``;
2. asserts that the traced run prints exactly the ``per_layer`` metrics of
   ``BENCHMARK.json``;
3. asserts that a second seed, and the second pass of one seed, change the
   inputs but keep the same operation kinds and sizes.

Exits non-zero on the first failed assertion.
"""

import argparse
import collections
import json
import random
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, make_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".madds", ".cells", ".max_bits", "_per_call")


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed {result['failed']} operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def shape(op):
    """What a seed must not change: the kind and the size of an operation."""
    args = op.args
    if isinstance(args, int):
        return op.kind, args
    if isinstance(args, dict):
        return op.kind, args["dim"]
    if isinstance(args, list) and args and isinstance(args[0], list):
        return op.kind, len(args), len(args[0])
    if op.kind == "pv_step":
        return op.kind, json.dumps(args[0]["group"], sort_keys=True)
    return op.kind


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

    for w in args.workload:
        first, second = traced(w, args.seed), traced(w, args.seed)
        if set(first) != declared:
            raise AssertionError(f"{w}: per-layer names differ from BENCHMARK.json: "
                                 f"{sorted(set(first) ^ declared)}")
        counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
        moved = {k: (first[k], second[k]) for k in counts if first[k] != second[k]}
        if moved:
            raise AssertionError(f"{w}: counts differ between two traced runs: {moved}")
        print(f"ok {w}: {len(counts)} counts repeat exactly on seed {args.seed}")

        a, a2 = make_passes(w, args.seed, 2)
        b = WORKLOADS[w].make_pass(random.Random(f"{w}:{args.seed + 1}"))
        others = {f"seed {args.seed + 1}": b, f"pass 2 of seed {args.seed}": a2}
        for what, other in others.items():
            if collections.Counter(map(shape, a)) != collections.Counter(map(shape, other)):
                raise AssertionError(f"{w}: {what} changed the operation kinds or sizes")
            if sorted(map(repr, (op.args for op in a))) == sorted(map(repr, (op.args for op in other))):
                raise AssertionError(f"{w}: {what} did not change the inputs")
            print(f"ok {w}: {what} keeps the {len(a)} operation kinds, new inputs")


if __name__ == "__main__":
    main()
