"""CLI: ``python -m repro.chaos [--quick] [--schedules N] [--seed S]``.

Runs a seeded chaos campaign against the fig8-style workloads and exits
non-zero if any oracle (or the same-seed determinism check) fails.
Failing schedules are shrunk to minimal reproductions and written, with
the failing run's flight-recorder trace, to ``--out``.
"""

from __future__ import annotations

import argparse
import sys

from repro.chaos.campaign import (default_workloads,
                                  master_kill_mid_migration_outcome,
                                  run_campaign)

WORKLOADS = ("sssp", "pagerank", "migration")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded chaos campaigns with exact-recovery oracles")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer schedules per workload")
    parser.add_argument("--schedules", type=int, default=None,
                        help="schedules per workload "
                             "(default 12, or quick-mode preset)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign base seed (default 1)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS),
                        help="subset of workloads to run")
    parser.add_argument("--out", default="chaos-out",
                        help="directory for failing schedules and traces")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing schedules")
    parser.add_argument("--planted-restart-skew", type=int, default=0,
                        help="plant the test-only restart-frontier "
                             "mutation (the oracles must catch any "
                             "non-zero value)")
    args = parser.parse_args(argv)

    per_workload = args.schedules
    if per_workload is None:
        per_workload = 9 if args.quick else 12
    workloads = [w for w in default_workloads(args.planted_restart_skew)
                 if w.name in args.workloads]

    report = run_campaign(workloads, per_workload, args.seed,
                          out_dir=args.out,
                          shrink_failures=not args.no_shrink)

    # Deterministic regression: master killed the instant a live
    # migration is cut — the durable migration record must re-drive the
    # in-flight handoff.
    migration_kill = master_kill_mid_migration_outcome(
        args.planted_restart_skew)
    report.outcomes.append(migration_kill)
    print(f"[migration] master kill mid-migration "
          f"{'ok' if migration_kill.passed else 'FAIL'}")
    for result in migration_kill.failures():
        print(f"    {result.line()}")

    total = len(report.outcomes)
    failed = len(report.failed)
    coverage = ", ".join(f"{kind}:{n}"
                         for kind, n in report.kind_coverage().items())
    print(f"\n{total} schedules, {failed} failed; fault-kind coverage: "
          f"{coverage}")
    for name, same in sorted(report.determinism.items()):
        print(f"determinism[{name}]: {'ok' if same else 'FAIL'}")
    if not report.passed:
        print(f"FAILED — minimal repros in {args.out}/", file=sys.stderr)
        return 1
    print("all oracles passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
