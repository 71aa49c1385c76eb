"""End-to-end benchmark: four workloads, median-of-5 fresh-process passes,
and a layer ledger timed from outside.  See README.md in this directory.

    python benchmarks/e2e/run.py                     # all workloads
    python benchmarks/e2e/run.py --workload sssp_sim --seed 7 --trace 1
    python benchmarks/e2e/run.py --quick             # < 60 s self-check

One *run* of a workload is ``PASSES`` sequential passes, each in a fresh
interpreter (``one_pass.py``); every end-to-end metric of the run is the
median over its passes.  ``--trace 1`` instead makes two plain passes and
one traced pass and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object (BENCHMARK.json's
contract); the lines above it are the same numbers as a table.  Exit code 1
means a result differed from its reference.

This file imports only the standard library and never ``repro``: the
passes inherit nothing from it, not even its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Passes per run.  Five, because single passes of identical work differ
#: by 8-17 % (per-process memory layout, host) and medians of three still
#: disagree by up to 12 % (README.md, "Protocol").
PASSES = 5
#: Plain passes beside the traced one under ``--trace 1`` (they give the
#: untraced wall clock that ``trace.overhead_ratio`` is relative to).
PLAIN_PASSES_WHEN_TRACED = 2
QUICK_SCALE = 0.2
PASS_TIMEOUT_S = 120.0
#: Grace for a pass's helpers (multiprocessing's resource tracker) to
#: exit after the pass itself has.
REAP_TIMEOUT_S = 5.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_pass(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """One pass in a fresh interpreter; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Same hash seed in every pass: set iteration order is part of the
    # work.  One BLAS thread: two passes never overlap, and numpy must
    # not use the second core behind the benchmark's back.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--traced", str(int(traced)),
               "--spawned-at", repr(time.time())]
    # Own process group, so that a hung pass can be killed together with
    # the live workers it spawned.
    child = subprocess.Popen(command, env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{workload}: pass exceeded {PASS_TIMEOUT_S:.0f} s")
    finally:
        reap_group(child.pid)
    if child.returncode != 0:
        raise SystemExit(f"{workload}: pass exited with "
                         f"{child.returncode}")
    return json.loads(stdout.splitlines()[-1])


def reap_group(group: int) -> None:
    """Return once no process of the pass's group is left."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() >= deadline:
            os.killpg(group, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)


def measure(workload: str, seed: int, scale: float, passes: int,
            traced: bool) -> dict:
    """One run: ``passes`` plain passes (medians), plus one traced pass
    when asked."""
    plain = [run_pass(workload, seed, scale, traced=False)
             for _ in range(passes)]
    run = {
        "attempted": sum(report["attempted"] for report in plain),
        "failed": sum(report["failed"] for report in plain),
        "passes": passes,
        "end_to_end": {
            name: statistics.median(report["metrics"][name]
                                    for report in plain)
            for name in plain[0]["metrics"]},
        "counts": [report["counts"] for report in plain],
    }
    if traced:
        report = run_pass(workload, seed, scale, traced=True)
        run["attempted"] += report["attempted"]
        run["failed"] += report["failed"]
        run["per_layer"] = dict(
            report["layers"],
            **{"trace.overhead_ratio": report["sections_wall_s"]
               / statistics.median(r["sections_wall_s"] for r in plain)})
    return run


def contract_line(spec: dict, run: dict, traced: bool) -> dict:
    """The result object BENCHMARK.json's contract asks for: every
    end-to-end metric with ``--trace 0``, every per-layer one with 1."""
    section, values = (("per_layer", run["per_layer"]) if traced
                       else ("end_to_end", run["end_to_end"]))
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in spec[section]},
    }


#: "Where a second goes": the self-time metrics that partition the traced
#: wall clock, grouped by layer.
SECOND_ROWS = {
    "simulator kernel": ("simulator.kernel_self_s",),
    "simulator network": ("simulator.network.send_s",),
    "core.ingester": ("core.ingester.handle_s",),
    "core.processor": ("core.processor.self_s",),
    "core.transport": ("core.transport.send_s", "core.transport.recv_s"),
    "core.master": ("core.master.self_s",),
    "storage": ("storage.put_s", "storage.read_s", "storage.snapshot_s",
                "storage.gc_s"),
    "algorithms": ("algorithms.program_s",),
    "live master route": ("live.master.route_s",),
    "live master pump": ("live.master.pump_self_s",),
    "runtime gc": ("runtime.gc_s",),
}


def print_second(per_layer: dict) -> None:
    """Milliseconds of each traced wall-clock second per layer."""
    seconds = {row: sum(per_layer[name] for name in names)
               for row, names in SECOND_ROWS.items()}
    wall_s = sum(seconds.values()) / per_layer["trace.coverage"]
    print("  -- where a second goes (ms of each traced second)")
    for row, value in seconds.items():
        if value:
            print(f"  {row:36s} {1e3 * value / wall_s:16.1f} ms")
    print(f"  {'untraced (benchmark loop)':36s} "
          f"{1e3 * (1 - per_layer['trace.coverage']):16.1f} ms")


def print_table(spec: dict, workload: str, run: dict) -> None:
    print(f"== {workload}: {run['attempted']} ops attempted, "
          f"{run['failed']} failed")
    sections = [("end_to_end", f"median of {run['passes']} passes")]
    if "per_layer" in run:
        sections.append(("per_layer", "one traced pass"))
    for section, how in sections:
        print(f"  -- {section} ({how})")
        for metric in spec[section]:
            value = run[section][metric["name"]]
            print(f"  {metric['name']:36s} {value:16.6g} {metric['unit']}")
    if "per_layer" in run:
        print_second(run["per_layer"])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="run length; scales the section sizes "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="self-check: one pass at 1/5 of the sizes")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no system under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
        names = [args.workload]
    traced = bool(args.trace)
    if args.quick:
        scale, passes = QUICK_SCALE, 1
    else:
        scale = (args.seconds or spec["run_seconds"]) / spec["run_seconds"]
        passes = PLAIN_PASSES_WHEN_TRACED if traced else PASSES

    lines = {}
    for name in names:
        run = measure(name, args.seed, scale, passes, traced)
        print_table(spec, name, run)
        lines[name] = contract_line(spec, run, traced)
    # With --workload the last line is that workload's result object,
    # otherwise an object of them keyed by workload.
    print(json.dumps(lines[names[0]] if args.workload else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
