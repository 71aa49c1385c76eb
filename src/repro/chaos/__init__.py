"""Chaos campaigns: seeded fault schedules + exact-recovery oracles.

Run ``python -m repro.chaos --quick`` for the CI smoke campaign; see
DESIGN.md §3e for the fault vocabulary and oracle definitions.
"""

from repro.chaos.campaign import (CampaignReport, ChaosOutcome,
                                  PageRankWorkload, SSSPWorkload,
                                  default_workloads, run_campaign, shrink)
from repro.chaos.faults import apply_to_job, fault_windows
from repro.chaos.oracles import (FrontierProbe, OracleResult, exactness,
                                 liveness, manifest_consistency)
from repro.chaos.schedule import (ChaosSchedule, FaultMenu, FaultSpec,
                                  KINDS, generate_schedule)

__all__ = [
    "CampaignReport", "ChaosOutcome", "ChaosSchedule", "FaultMenu",
    "FaultSpec", "FrontierProbe", "KINDS", "OracleResult",
    "PageRankWorkload", "SSSPWorkload", "apply_to_job",
    "default_workloads", "exactness", "fault_windows",
    "generate_schedule", "liveness", "manifest_consistency",
    "run_campaign", "shrink",
]
