"""Measure the benchmark's own noise, the way its user will judge it.

    python benchmarks/e2e/calibrate.py --sets 3 --out calibration.json
    python benchmarks/e2e/calibrate.py --judge calibration.json

One *set* is one run (``run.py --trace 0``) of every workload on each of
``--seeds`` seeds.  Per set, workload and end-to-end metric the report
holds the run values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the *spread*: the distance
between first and third quartile as a share of the median.  Across sets
it holds the widest relative *gap* between two set medians.

The verdict (exit 1 on failure) is taken against the bounds in
BENCHMARK.json: no spread above its metric's bound, no gap above 0.6 x
the bound - a benchmark that cannot tell its own reruns apart by less
than a bound cannot resolve a regression of that size.  ``--judge``
re-takes the verdict of a stored report, e.g. after a bound changed;
measuring takes an hour, judging does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import PASSES, load_spec, measure

GAP_SHARE_OF_BOUND = 0.6


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def collect(workloads: list[str], metrics: list[str], seeds: list[int],
            n_sets: int) -> dict:
    report: dict = {"seeds": seeds, "passes": PASSES, "workloads": {}}
    for workload in workloads:
        sets = []
        failed_ops = 0
        for _ in range(n_sets):
            runs = [measure(workload, seed, 1.0, PASSES, traced=False)
                    for seed in seeds]
            failed_ops += sum(run["failed"] for run in runs)
            sets.append({name: summarize([run["end_to_end"][name]
                                          for run in runs])
                         for name in metrics})
        gaps = {}
        for name in metrics:
            medians = [one[name]["median"] for one in sets]
            gaps[name] = (max(medians) - min(medians)) / min(medians)
        report["workloads"][workload] = {
            "sets": sets, "gaps": gaps, "failed_ops": failed_ops}
        print(f"measured {workload}", file=sys.stderr, flush=True)
    return report


def judge(report: dict, bounds: dict[str, float]) -> list[str]:
    """Print the table; return what breaks the rules above."""
    failures = []
    for workload, body in report["workloads"].items():
        if body["failed_ops"]:
            failures.append(f"{workload}: {body['failed_ops']} failed ops")
        for name, bound in bounds.items():
            medians = [one[name]["median"] for one in body["sets"]]
            spread = max(one[name]["spread"] for one in body["sets"])
            gap = body["gaps"][name]
            verdict = "ok"
            # setup_s is exempt from the spread rule, as it is for the
            # driver: its bound guards the median only.
            if spread > bound and name != "setup_s":
                verdict = "SPREAD > BOUND"
            if gap > GAP_SHARE_OF_BOUND * bound:
                verdict = "GAP > 0.6 BOUND"
            if verdict != "ok":
                failures.append(f"{workload} {name}: {verdict}")
            print(f"{workload:13s} {name:20s} medians "
                  + " ".join(f"{median:9.4g}" for median in medians)
                  + f"  spread {spread:6.2%}  gap {gap:6.2%}"
                  f"  bound {bound:4.0%}  {verdict}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                        help="comma-separated seeds, one run each per set")
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--out", help="write the report here as JSON")
    parser.add_argument("--judge", metavar="REPORT",
                        help="judge this stored report instead of measuring")
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.judge:
        with open(args.judge) as handle:
            report = json.load(handle)
    else:
        report = collect(
            args.workload or [w["name"] for w in spec["workloads"]],
            list(bounds), [int(seed) for seed in args.seeds.split(",")],
            args.sets)
    failures = judge(report, bounds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
