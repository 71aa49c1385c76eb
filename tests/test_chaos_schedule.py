"""Unit tests for the chaos-schedule generator and its helpers."""

import pytest

from repro.chaos import (KINDS, ChaosSchedule, FaultMenu, FaultSpec,
                         fault_windows, generate_schedule)

FULL_MENU = FaultMenu(
    kill_targets=("proc-0", "proc-1", "master"),
    link_endpoints=("proc-0", "proc-1", "master"),
    disks=("proc-0", "proc-1"),
)


class TestFaultMenu:
    def test_full_menu_offers_every_kind(self):
        assert FULL_MENU.kinds() == KINDS

    def test_empty_menu_offers_nothing(self):
        assert FaultMenu().kinds() == ()
        with pytest.raises(ValueError, match="no fault kinds"):
            generate_schedule(1, FaultMenu(), horizon=4.0)

    def test_single_endpoint_cannot_partition(self):
        menu = FaultMenu(link_endpoints=("only",))
        assert "partition" not in menu.kinds()


class TestGenerateSchedule:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(42, FULL_MENU, horizon=4.0)
        b = generate_schedule(42, FULL_MENU, horizon=4.0)
        assert a.dump() == b.dump()
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        digests = {generate_schedule(seed, FULL_MENU, horizon=4.0).digest()
                   for seed in range(20)}
        assert len(digests) > 1

    def test_force_kind_pins_first_fault(self):
        for kind in KINDS:
            schedule = generate_schedule(7, FULL_MENU, horizon=4.0,
                                         force_kind=kind)
            assert kind in schedule.kinds()

    def test_every_fault_heals_before_deadline(self):
        horizon = 4.0
        for seed in range(50):
            schedule = generate_schedule(seed, FULL_MENU, horizon)
            for fault in schedule.faults:
                assert fault.duration > 0
                assert fault.start >= 0.05 * horizon
                assert fault.start + fault.duration <= 0.8 * horizon + 1e-9

    def test_at_most_one_kill_per_target_and_one_chaos_plane(self):
        for seed in range(50):
            schedule = generate_schedule(seed, FULL_MENU, horizon=4.0,
                                         max_faults=8)
            kills = [f.a for f in schedule.faults if f.kind == "kill"]
            assert len(kills) == len(set(kills))
            drops = [f for f in schedule.faults if f.kind == "drop_dup"]
            assert len(drops) <= 1

    def test_faults_sorted_by_start(self):
        schedule = generate_schedule(3, FULL_MENU, horizon=4.0, max_faults=8)
        starts = [f.start for f in schedule.faults]
        assert starts == sorted(starts)


class TestScheduleOps:
    def test_without_removes_one_fault(self):
        schedule = generate_schedule(5, FULL_MENU, horizon=4.0, max_faults=8)
        assert len(schedule.faults) >= 2
        shrunk = schedule.without(0)
        assert len(shrunk.faults) == len(schedule.faults) - 1
        assert shrunk.faults == schedule.faults[1:]
        assert schedule.faults  # original untouched

    def test_dump_roundtrip_is_stable(self):
        schedule = ChaosSchedule(seed=9, faults=[
            FaultSpec("kill", 1.0, 0.5, a="proc-0"),
            FaultSpec("delay", 2.0, 0.25, x=0.05),
        ])
        assert schedule.dump() == schedule.dump()
        assert "kill start=1.000000" in schedule.dump()
        assert schedule.digest() == schedule.digest()


class TestFaultWindows:
    def test_windows_are_padded_and_merged(self):
        schedule = ChaosSchedule(seed=0, faults=[
            FaultSpec("kill", 1.0, 0.2, a="proc-0"),
            FaultSpec("kill", 1.3, 0.2, a="proc-1"),   # overlaps when padded
            FaultSpec("delay", 3.0, 0.1, x=0.05),
        ])
        windows = fault_windows(schedule, pad=0.25)
        assert windows == [(0.75, 1.75), (2.75, 3.35)]

    def test_empty_schedule_has_no_windows(self):
        assert fault_windows(ChaosSchedule(seed=0, faults=[]), pad=1.0) == []
