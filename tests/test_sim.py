"""Tests for the event queue, hardware model, and rollover simulation.

The calibration tests pin the model to the paper's quoted ranges — if a
profile change drifts outside them, these fail and EXPERIMENTS.md's
numbers are stale.
"""

from dataclasses import replace

import pytest

from repro.sim.availability import weekly_availability
from repro.sim.events import EventQueue
from repro.sim.hardware import HOUR, MINUTE, paper_profile
from repro.sim.restart import simulate_leaf_restart, simulate_machine_recovery
from repro.sim.rollover import simulate_rollover


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        log = []
        queue.schedule(5.0, lambda: log.append("b"))
        queue.schedule(1.0, lambda: log.append("a"))
        queue.schedule(9.0, lambda: log.append("c"))
        queue.run()
        assert log == ["a", "b", "c"]
        assert queue.now == 9.0

    def test_ties_break_in_schedule_order(self):
        queue = EventQueue()
        log = []
        queue.schedule(1.0, lambda: log.append(1))
        queue.schedule(1.0, lambda: log.append(2))
        queue.run()
        assert log == [1, 2]

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        log = []
        queue.schedule(1.0, lambda: queue.schedule(1.0, lambda: log.append("later")))
        queue.run()
        assert log == ["later"] and queue.now == 2.0

    def test_run_until(self):
        queue = EventQueue()
        log = []
        queue.schedule(1.0, lambda: log.append(1))
        queue.schedule(10.0, lambda: log.append(2))
        queue.run(until=5.0)
        assert log == [1] and queue.now == 5.0 and queue.pending == 1

    def test_past_scheduling_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_runaway_guard(self):
        queue = EventQueue()

        def loop():
            queue.schedule(0.0, loop)

        queue.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            queue.run(max_events=100)


class TestHardwareCalibration:
    """Each paper quote, as an executable assertion."""

    def test_reading_120gb_takes_20_to_25_minutes(self):
        profile = paper_profile()
        seconds = profile.data_gb_per_machine * 1e9 / (profile.disk_read_mbps * 1e6)
        assert 20 * MINUTE <= seconds <= 25 * MINUTE

    def test_machine_disk_recovery_takes_about_2_5_to_3_hours(self):
        recovery = simulate_machine_recovery(paper_profile(), "disk", "all_at_once")
        assert 2.2 * HOUR <= recovery.total_seconds <= 3.0 * HOUR

    def test_shm_shutdown_copy_takes_3_to_4_seconds(self):
        profile = paper_profile()
        assert 3.0 <= profile.shm_shutdown_seconds(1) <= 4.5

    def test_shm_rollover_slot_is_2_to_3_minutes(self):
        profile = paper_profile()
        slot = profile.shm_restart_seconds(1) + profile.detection_overhead_s
        assert 2 * MINUTE <= slot <= 3 * MINUTE

    def test_disk_vs_shm_machine_factor_is_order_60x(self):
        profile = paper_profile()
        disk = simulate_machine_recovery(profile, "disk", "all_at_once").total_seconds
        shm = simulate_machine_recovery(profile, "shm", "sequential").total_seconds
        assert disk / shm > 20  # "2-3 minutes versus 2.5-3 hours"

    def test_contention_is_monotone(self):
        profile = paper_profile()
        nbytes = profile.data_bytes_per_leaf
        for k in range(1, 8):
            assert profile.disk_read_seconds(nbytes, k + 1) >= profile.disk_read_seconds(
                nbytes, k
            )
            assert profile.translate_seconds(nbytes, k + 1) >= profile.translate_seconds(
                nbytes, k
            )

    def test_ssd_variant_removes_thrash(self):
        ssd = paper_profile().with_ssd()
        hdd = paper_profile()
        assert ssd.disk_aggregate_bps(8) == ssd.disk_aggregate_bps(1)
        assert ssd.disk_restart_seconds(8) < hdd.disk_restart_seconds(8) / 4

    def test_shm_disk_format_variant_kills_translate(self):
        fast = paper_profile().with_shm_disk_format()
        slow = paper_profile()
        assert fast.disk_restart_seconds(1) < slow.disk_restart_seconds(1) / 2

    def test_snapshot_tier_sits_between_disk_and_shm(self):
        """E12's modelled rung: much faster than legacy replay (no row
        translation) but still slower than shared memory (the bytes come
        off the spindle)."""
        profile = paper_profile()
        for k in (1, 8):
            snap = simulate_leaf_restart(profile, "disk_snapshot", k).total_seconds
            disk = simulate_leaf_restart(profile, "disk", k).total_seconds
            shm = simulate_leaf_restart(profile, "shm", k).total_seconds
            assert shm < snap < disk
        # Uncontended (the E12 configuration) the translate stage is the
        # bottleneck, so removing it buys the acceptance floor; at 8-wide
        # the thrashing spindle dominates both rungs and only the
        # ordering above survives.
        solo_disk = simulate_leaf_restart(profile, "disk", 1).total_seconds
        solo_snap = simulate_leaf_restart(profile, "disk_snapshot", 1).total_seconds
        assert solo_disk / solo_snap >= 3

    def test_snapshot_unpack_dominated_by_disk_read(self):
        """With shm-format bytes on disk the translate stage collapses:
        the remaining cost is essentially the read itself."""
        profile = paper_profile()
        breakdown = simulate_leaf_restart(profile, "disk_snapshot", 1)
        assert breakdown.translate_seconds < breakdown.read_seconds / 10
        legacy = simulate_leaf_restart(profile, "disk", 1)
        assert legacy.translate_seconds > legacy.read_seconds

    def test_invalid_arguments(self):
        profile = paper_profile()
        with pytest.raises(ValueError):
            profile.disk_read_seconds(1.0, 0)
        with pytest.raises(ValueError):
            profile.translate_seconds(1.0, 0)
        with pytest.raises(ValueError):
            profile.mem_copy_seconds(1.0, 0)
        with pytest.raises(ValueError):
            profile.snapshot_translate_seconds(1.0, 0)
        with pytest.raises(ValueError):
            simulate_leaf_restart(profile, "tape")
        with pytest.raises(ValueError):
            simulate_machine_recovery(profile, "disk", "sideways")
        with pytest.raises(ValueError):
            profile.effective_copy_streams(0)
        with pytest.raises(ValueError):
            profile.effective_copy_streams(4, "fiber")
        with pytest.raises(ValueError):
            profile.parallel_restore_speedup(0)

    def test_gil_caps_thread_backend_copy_streams(self):
        """The CPython reality the process backend exists to escape: a
        thread pool's bulk copies see ``gil_copy_streams`` (~1) streams
        no matter how wide the pool; forked processes see one per
        worker, up to the memory-bandwidth ceiling."""
        profile = paper_profile()
        for workers in (1, 2, 4, 8):
            assert profile.effective_copy_streams(workers, "thread") == 1.0
            assert profile.effective_copy_streams(workers, "process") == workers
            assert profile.parallel_restore_speedup(workers, "thread") == (
                pytest.approx(1.0)
            )
            assert profile.parallel_restore_speedup(workers, "process") == (
                pytest.approx(min(workers, 4))
            )

    def test_paper_cpp_has_no_gil_ceiling(self):
        """The paper's C++ implementation maps to gil_copy_streams=inf:
        both backends then hit only the bandwidth ceiling."""
        cpp = replace(paper_profile(), gil_copy_streams=float("inf"))
        for workers in (1, 2, 4, 8):
            assert cpp.parallel_restore_speedup(workers, "thread") == (
                pytest.approx(min(workers, 4))
            )

    def test_incremental_sync_byte_model(self):
        """Delta bytes = churn + one-chain_links'th of the base rewrite,
        amortized: defaults (5% churn, 8 links) cut sync writes ~5.7x,
        and the two degenerate corners recover the full-rewrite cost."""
        profile = paper_profile()
        assert profile.incremental_sync_reduction() == pytest.approx(
            1.0 / (0.05 + 1.0 / 8.0)
        )
        assert profile.incremental_sync_reduction() >= 5.0
        # Total churn, or a chain that compacts every sync, degenerates
        # to a full rewrite: no reduction.
        assert profile.incremental_sync_reduction(churn=1.0) < 1.0
        assert profile.incremental_sync_reduction(chain_links=1) <= 1.0
        assert profile.incremental_sync_bytes(1e9) == pytest.approx(
            1e9 * (0.05 + 0.125)
        )
        with pytest.raises(ValueError):
            profile.incremental_sync_bytes(1e9, churn=1.5)
        with pytest.raises(ValueError):
            profile.incremental_sync_bytes(1e9, chain_links=0)

    def test_parallel_replay_amdahl_model(self):
        """Replay worker processes scale to the translate cores, less the
        serial fraction (chunk scan + merge)."""
        profile = paper_profile()
        for workers in (1, 2, 4, 8):
            assert profile.effective_replay_streams(workers) == (
                min(workers, profile.translate_cores)
            )
        assert profile.parallel_replay_speedup(1) == pytest.approx(1.0)
        four = profile.parallel_replay_speedup(4)
        assert four == pytest.approx(1.0 / (0.08 + 0.92 / 4))
        assert four >= 2.0
        # Past the core count the serial fraction is the whole story.
        assert profile.parallel_replay_speedup(8) == pytest.approx(four)
        with pytest.raises(ValueError):
            profile.effective_replay_streams(0)

    def test_replay_workers_shrink_disk_translate_only(self):
        """simulate_leaf_restart's replay_workers fan out the translate
        stage of the legacy disk rung; the read and overhead do not
        change, and the snapshot/shm rungs ignore the knob."""
        profile = paper_profile()
        serial = simulate_leaf_restart(profile, "disk", 1)
        fanned = simulate_leaf_restart(profile, "disk", 1, replay_workers=4)
        speedup = profile.parallel_replay_speedup(4)
        assert fanned.translate_seconds == pytest.approx(
            serial.translate_seconds / speedup
        )
        assert fanned.read_seconds == serial.read_seconds
        assert fanned.overhead_seconds == serial.overhead_seconds
        assert fanned.total_seconds < serial.total_seconds
        snap = simulate_leaf_restart(profile, "disk_snapshot", 1)
        snap_fanned = simulate_leaf_restart(
            profile, "disk_snapshot", 1, replay_workers=4
        )
        assert snap_fanned.total_seconds == snap.total_seconds


class TestRolloverSimulation:
    def test_disk_rollover_lands_in_paper_range(self):
        result = simulate_rollover(paper_profile(), 100, "disk", 0.02)
        assert 10 * HOUR <= result.total_seconds <= 14 * HOUR

    def test_shm_rollover_is_under_an_hour(self):
        result = simulate_rollover(paper_profile(), 100, "shm", 0.02)
        assert result.total_seconds <= 1.05 * HOUR
        assert result.restart_seconds <= 25 * MINUTE

    def test_everyone_ends_upgraded(self):
        result = simulate_rollover(paper_profile(), 20, "shm", 0.05)
        final = result.dashboard.samples[-1]
        assert final.new_version == result.leaves_total
        assert final.rolling_over == 0

    def test_offline_fraction_never_exceeds_batch(self):
        result = simulate_rollover(paper_profile(), 50, "disk", 0.02)
        floor = 1 - result.batch_size / result.leaves_total - 1e-9
        assert result.min_availability >= floor
        for sample in result.dashboard.samples:
            assert sample.rolling_over <= result.batch_size

    def test_dashboard_monotone_progress(self):
        result = simulate_rollover(paper_profile(), 10, "shm", 0.1)
        upgraded = [s.new_version for s in result.dashboard.samples]
        assert upgraded == sorted(upgraded)

    def test_larger_batches_finish_faster(self):
        slow = simulate_rollover(paper_profile(), 50, "disk", 0.02)
        fast = simulate_rollover(paper_profile(), 50, "disk", 0.10)
        assert fast.restart_seconds < slow.restart_seconds

    def test_non_pipelined_detection_is_slower(self):
        pipelined = simulate_rollover(paper_profile(), 30, "shm", 0.02)
        serial = simulate_rollover(
            paper_profile(), 30, "shm", 0.02, pipelined_detection=False
        )
        assert serial.restart_seconds > pipelined.restart_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_rollover(paper_profile(), 10, "carrier-pigeon")
        with pytest.raises(ValueError):
            simulate_rollover(paper_profile(), 10, "shm", 0.0)


class TestAvailability:
    def test_paper_headline_numbers(self):
        disk = weekly_availability(12 * HOUR)
        shm = weekly_availability(1 * HOUR)
        assert disk.fully_available_fraction == pytest.approx(0.9286, abs=1e-3)
        assert shm.fully_available_fraction == pytest.approx(0.994, abs=1e-3)

    def test_mean_data_availability_accounts_for_98_percent(self):
        report = weekly_availability(12 * HOUR, availability_during_rollover=0.98)
        assert report.mean_data_availability == pytest.approx(
            1 - (12 / 168) * 0.02, abs=1e-6
        )

    def test_multiple_rollovers_per_week(self):
        report = weekly_availability(1 * HOUR, rollovers_per_week=3)
        assert report.fully_available_fraction == pytest.approx(165 / 168)

    def test_validation(self):
        with pytest.raises(ValueError):
            weekly_availability(-1.0)
        with pytest.raises(ValueError):
            weekly_availability(1.0, rollovers_per_week=-1)
        with pytest.raises(ValueError):
            weekly_availability(1.0, availability_during_rollover=2.0)


class TestStragglers:
    def test_failure_rate_zero_is_identical(self):
        clean = simulate_rollover(paper_profile(), 30, "shm", 0.02)
        zero = simulate_rollover(paper_profile(), 30, "shm", 0.02, shm_failure_rate=0.0)
        assert clean.restart_seconds == zero.restart_seconds
        assert zero.stragglers == 0

    def test_stragglers_stretch_the_tail(self):
        clean = simulate_rollover(paper_profile(), 50, "shm", 0.02, seed=1)
        slow = simulate_rollover(
            paper_profile(), 50, "shm", 0.02, shm_failure_rate=0.05, seed=1
        )
        assert slow.stragglers > 0
        assert slow.restart_seconds > clean.restart_seconds
        # The offline cap still holds; stragglers stretch time, not depth.
        assert slow.min_availability >= 1 - slow.batch_size / slow.leaves_total - 1e-9

    def test_all_failures_degrades_to_disk_cost(self):
        forced = simulate_rollover(
            paper_profile(), 20, "shm", 0.02, shm_failure_rate=1.0, seed=2
        )
        disk = simulate_rollover(paper_profile(), 20, "disk", 0.02)
        assert forced.stragglers == forced.leaves_total
        assert forced.restart_seconds == pytest.approx(disk.restart_seconds, rel=0.02)

    def test_deterministic_for_seed(self):
        a = simulate_rollover(paper_profile(), 25, "shm", 0.02, shm_failure_rate=0.1, seed=7)
        b = simulate_rollover(paper_profile(), 25, "shm", 0.02, shm_failure_rate=0.1, seed=7)
        assert a.stragglers == b.stragglers
        assert a.restart_seconds == b.restart_seconds

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            simulate_rollover(paper_profile(), 10, "shm", 0.02, shm_failure_rate=1.5)

    def test_disk_strategy_ignores_failure_rate(self):
        result = simulate_rollover(
            paper_profile(), 10, "disk", 0.05, shm_failure_rate=0.5, seed=4
        )
        assert result.stragglers == 0
