"""Layer-attributed revise-then-query benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain-sparse40 --seed 1 --seconds 15 --trace 0

Workloads: ``oneshot-clause32``, ``chain-sparse40``, ``service-mixed``
(see ``perfbench/design.json`` for why each was chosen and which layers
it stresses).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it hold the run record (machine, seed, tail percentiles and sample
counts, failures by status and error text).

``--seconds`` sizes the run: each workload generates the amount of work
that takes about that long on the reference box (whole rounds, so every
run of a workload holds the same mix; the one-shot round alone takes
about 34 s).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``: set-up is timed in three fresh processes (two that
only set up, and the measuring one) and reported as their median; the
measuring process then runs the timed closed loop and verifies every
output after the clock stops.

``--trace 1`` reports the per-layer metrics instead: a fixed prefix of
the same stream runs once untraced and twice traced, with benchmark-side
spans around each layer's entry points; the difference in wall time is
``trace_overhead`` and any count on which the two traced runs disagree
is listed as non-deterministic.

``--tiny`` runs each workload at its smallest size, for the benchmark's
own tests (``python3 perfbench/selftest.py``).

Child processes get no ``REPRO_*`` settings from the caller's
environment (the program runs on its defaults) and a fixed
``PYTHONHASHSEED``, so two traced runs of one seed count the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import count_metric_names, machine  # noqa: E402

WORKLOADS = ("oneshot-clause32", "chain-sparse40", "service-mixed")
#: Set-up is timed this many times per run (the measuring process is one).
SETUP_TRIALS = 3
#: Fixed-size prefixes for the traced runs (operations: pairs for the
#: one-shot workload, requests for the others).
TRACE_PREFIX = {"oneshot-clause32": 2, "chain-sparse40": 100,
                "service-mixed": 72}
TINY_PREFIX = {"oneshot-clause32": 1, "chain-sparse40": 12,
               "service-mixed": 12}
#: A seed kept out of tuning, for confirming later claims.
HELD_OUT_SEED = 9001
#: Every child must finish inside this many seconds of the run's start.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts the child processes of one run inside a work directory."""

    def __init__(self, args, work: str) -> None:
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def child(self, role: str, ops=None, trace: int = 0, spans=None) -> dict:
        self.count += 1
        out = os.path.join(self.work, f"child-{self.count}.json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--role", role, "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--trace", str(trace), "--work", self.work, "--out", out,
        ]
        if ops is not None:
            command += ["--ops", str(ops)]
        if self.args.tiny:
            command.append("--tiny")
        if spans:
            command += ["--spans", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted before the next process")
        spawned = time.monotonic()
        try:
            completed = subprocess.run(
                command, cwd=ROOT, env=child_env(), timeout=remaining,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{role} process overran the run budget") from error
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr[-4000:])
            raise BenchError(f"{role} process exited {completed.returncode}")
        with open(out) as handle:
            result = json.load(handle)
        if "t_ready" in result:
            result["setup_s"] = result["t_ready"] - spawned - result["gen_s"]
        return result


def untraced(runner: Runner) -> dict:
    if runner.args.workload == "chain-sparse40":
        runner.child("fill")
    setups = [runner.child("setup")["setup_s"]
              for _ in range(SETUP_TRIALS - 1)]
    measured = runner.child("measure")
    setups.append(measured["setup_s"])
    measured["metrics"]["setup_s"] = statistics.median(setups)
    measured["setup_samples_s"] = setups
    return measured


def traced(runner: Runner) -> dict:
    args = runner.args
    prefix = (TINY_PREFIX if args.tiny else TRACE_PREFIX)[args.workload]
    if args.workload == "chain-sparse40":
        runner.child("fill")
    plain = runner.child("measure", ops=prefix)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for label in ("a", "b"):
        spans = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}-{label}.jsonl")
        runs.append(runner.child("measure", ops=prefix, trace=1, spans=spans))
    first, second = runs
    counts = count_metric_names(first["layers"])
    first["metrics"] = dict(first["layers"])
    first["metrics"]["trace_overhead"] = first["wall_s"] - plain["wall_s"]
    first["nondeterministic_counts"] = [
        name for name in counts
        if first["layers"][name] != second["layers"][name]]
    first["untraced_wall_s"] = plain["wall_s"]
    for run in (plain, second):
        for key in ("attempted", "failed", "verified"):
            first[key] += run[key]
        for key, value in run["failures"].items():
            first["failures"][key] = first["failures"].get(key, 0) + value
    return first


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src", "repro"), HERE],
                   cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(args, work)
        result = traced(runner) if args.trace else untraced(runner)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    mismatches = sum(count for key, count in result["failures"].items()
                     if "mismatch" in key)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine(),
        "timed_wall_s": result["wall_s"],
        "revisions": result["revisions"],
        "revisions_ok": result["revisions_ok"],
        "queries": result["queries"],
        "queries_ok": result["queries_ok"],
        "verified": result["verified"],
        "revise_latency": result["latency"],
        "failures": result["failures"],
        "setup_failures": result["setup_failures"],
    }
    if args.trace:
        record["untraced_wall_s"] = result["untraced_wall_s"]
        record["trace_overhead_s"] = result["metrics"]["trace_overhead"]
        record["nondeterministic_counts"] = result["nondeterministic_counts"]
    else:
        record["setup_samples_s"] = result["setup_samples_s"]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
