"""Migration-under-faults chaos regressions.

:class:`repro.chaos.campaign.MigrationWorkload` runs SSSP with a planted
hot spot (every vertex starts on ``proc-0``) and the live migrator on,
disk-backed, so each schedule lands its faults on in-flight vertex
handoffs.  This suite pins two harsh 1-minimal single-fault schedules, a
fault-free determinism check, the planted-mutation teeth test and a
small seeded campaign, so the migrator's exact recovery under fire can
never silently regress.
"""

from repro.chaos import ChaosSchedule, FaultSpec, run_campaign
from repro.chaos.campaign import T_MID, MigrationWorkload
from repro.core import TornadoJob


def outcome_for(faults, skew=0):
    workload = MigrationWorkload(planted_restart_skew=skew)
    return workload.run_chaos(ChaosSchedule(seed=0, faults=faults))


class TestPinnedSchedules:
    def test_master_kill_mid_query_1minimal(self):
        # 1-minimal: kill the master exactly at the mid-chaos query
        # instant, while the hot-spot migration is in flight.
        outcome = outcome_for([
            FaultSpec(kind="kill", start=T_MID, duration=0.4,
                      a=TornadoJob.MASTER)])
        assert outcome.passed, [r.line() for r in outcome.failures()]

    def test_disk_stall_under_hot_spot_1minimal(self):
        # 1-minimal: stall the hot processor's disk while it owns every
        # vertex.
        outcome = outcome_for([
            FaultSpec(kind="disk_stall", start=1.0, duration=0.5,
                      a="proc-0")])
        assert outcome.passed, [r.line() for r in outcome.failures()]

    def test_fault_free_run_is_deterministic(self):
        workload = MigrationWorkload()
        schedule = ChaosSchedule(seed=0, faults=[])
        first = workload.run_chaos(schedule)
        second = workload.run_chaos(schedule)
        assert first.passed, [r.line() for r in first.failures()]
        assert first.digest == second.digest


class TestOracleTeeth:
    def test_planted_skew_caught_by_manifest_consistency_only(self):
        # The restart-skew mutation is planted in the job's manifest;
        # the manifest-consistency oracle must catch it while every
        # other oracle still holds.
        outcome = outcome_for([], skew=1)
        assert not outcome.passed
        failed = {r.oracle for r in outcome.failures()}
        assert failed == {"manifest-consistency"}


class TestQuickCampaign:
    def test_seeded_schedules_all_pass(self):
        report = run_campaign([MigrationWorkload()],
                              schedules_per_workload=3, base_seed=1,
                              out_dir=None, log=lambda *_: None,
                              shrink_failures=False)
        assert report.passed, [r.line()
                               for o in report.failed
                               for r in o.failures()]
