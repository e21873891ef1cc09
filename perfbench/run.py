"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (``BENCHMARK.json`` says why each exists):

* ``lattice`` — the bottom-up engine on Examples 6 and 7, in-process;
* ``serve``   — ``hypodatalog serve``: PROVE reads beside model-engine
  writes with a standing query, over two connections.

Each run generates its inputs from ``--seed``, sizes its fixed work
from ``--seconds``, checks every answer against an oracle computed
before the timed phase, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes ``perfbench/out/<workload>-seed<n>-trace.json``.
The exit code is 0 when every answer was right, 1 when one was
wrong, 2 when the benchmark cannot run (no program source).
``--workload all`` runs each workload in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

from common import BENCH_DIR, HASH_SEED, ROOT, BenchError, child_env, pin, require_source

WORKLOADS = ("lattice", "serve")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run_one(workload: str, seed: int, seconds: int, traced: bool) -> int:
    import wl_lattice
    import wl_serve

    module = {"lattice": wl_lattice, "serve": wl_serve}[workload]
    result = module.run(seed, seconds, traced)
    spec = _spec()
    correct = result.failed == 0
    if traced:
        if not result.layers.pop("trace.valid", False):
            correct = False
            print("trace file failed python -m repro.obs.validate")
        listed = spec["per_layer"]
        values = result.layers
    else:
        listed = spec["end_to_end"]
        values = {name: value for name, (value, _) in result.end_to_end().items()}
    metrics = {
        item["name"]: {"value": values.get(item["name"], 0), "unit": item["unit"]}
        for item in listed
    }
    digest = hashlib.sha256(repr(result.answers).encode()).hexdigest()
    print(f"workload {workload}, seed {seed}, seconds {seconds}, trace {int(traced)}")
    for line in result.describe() + result.notes:
        print("  " + line)
    if traced:
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"  answers_sha256 = {digest}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _run_all(seed: int, seconds: int) -> int:
    """Every workload in its own interpreter; one combined table."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=175,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = 1
            print(f"{workload} failed: {done.stderr[-2000:]}", file=sys.stderr)
            combined["correct"] = False
            continue
        outcome = json.loads(lines[-1])
        combined["correct"] &= outcome["correct"]
        combined["attempted"] += outcome["attempted"]
        combined["failed"] += outcome["failed"]
        for name, metric in outcome["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if options.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        require_source()
        if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
            # Engine counters follow set iteration order; pin it.
            os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
        pin()
        if options.workload == "all":
            return _run_all(options.seed, options.seconds)
        return _run_one(options.workload, options.seed, options.seconds, bool(options.trace))
    except BenchError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
