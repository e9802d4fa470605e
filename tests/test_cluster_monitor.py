"""Tests for the rollover monitor (ETA, stall and availability alerts)."""

import pytest

from repro.cluster.dashboard import Dashboard
from repro.cluster.monitor import RolloverMonitor, format_progress


def dashboard_with(*rows):
    """rows: (t, old, rolling, new, availability)"""
    dashboard = Dashboard()
    for row in rows:
        dashboard.record(*row)
    return dashboard


class TestProgress:
    def test_fraction_and_rate(self):
        dashboard = dashboard_with(
            (0.0, 100, 0, 0, 1.0),
            (60.0, 88, 2, 10, 0.98),
            (120.0, 78, 2, 20, 0.98),
        )
        progress = RolloverMonitor(dashboard).progress()
        assert progress.fraction_done == pytest.approx(0.2)
        assert progress.upgrade_rate_per_second == pytest.approx(10 / 60)
        assert progress.eta_seconds == pytest.approx(80 / (10 / 60))
        assert not progress.stalled
        assert progress.alerts == ()

    def test_eta_unknown_without_progress(self):
        dashboard = dashboard_with((0.0, 100, 0, 0, 1.0))
        progress = RolloverMonitor(dashboard).progress()
        assert progress.eta_seconds is None
        assert progress.fraction_done == 0.0

    def test_no_samples_raises(self):
        with pytest.raises(ValueError):
            RolloverMonitor(Dashboard()).progress()

    def test_complete_rollover_never_stalls(self):
        dashboard = dashboard_with(
            (0.0, 100, 0, 0, 1.0),
            (100.0, 0, 0, 100, 1.0),
            (10_000.0, 0, 0, 100, 1.0),
        )
        progress = RolloverMonitor(dashboard, stall_seconds=60).progress()
        assert not progress.stalled
        assert progress.fraction_done == 1.0


class TestAlerts:
    def test_stall_detected(self):
        dashboard = dashboard_with(
            (0.0, 100, 2, 0, 0.98),
            (60.0, 98, 2, 2, 0.98),
            (5000.0, 98, 2, 2, 0.98),  # nothing finished for ages
        )
        progress = RolloverMonitor(dashboard, stall_seconds=1800).progress()
        assert progress.stalled
        assert any("stuck" in alert for alert in progress.alerts)

    def test_availability_alert(self):
        dashboard = dashboard_with(
            (0.0, 100, 0, 0, 1.0),
            (60.0, 60, 30, 10, 0.70),
        )
        progress = RolloverMonitor(dashboard, min_availability=0.97).progress()
        assert any("availability" in alert for alert in progress.alerts)

    def test_validation(self):
        dashboard = dashboard_with((0.0, 1, 0, 0, 1.0))
        with pytest.raises(ValueError):
            RolloverMonitor(dashboard, stall_seconds=0)
        with pytest.raises(ValueError):
            RolloverMonitor(dashboard, min_availability=1.5)


class TestFormatting:
    def test_format_contains_key_facts(self):
        dashboard = dashboard_with(
            (0.0, 100, 0, 0, 1.0),
            (60.0, 88, 2, 10, 0.98),
        )
        line = format_progress(RolloverMonitor(dashboard).progress())
        assert "10.0%" in line
        assert "ETA" in line
        assert "98.0%" in line

    def test_format_shows_alerts(self):
        dashboard = dashboard_with(
            (0.0, 100, 0, 0, 1.0),
            (60.0, 50, 40, 10, 0.60),
        )
        line = format_progress(RolloverMonitor(dashboard).progress())
        assert "ALERTS" in line

    def test_live_rollover_feeds_the_monitor(self, shm_namespace, tmp_path, clock):
        """End to end: a real in-process rollover's dashboard parses."""
        import random

        from repro.cluster.cluster import Cluster
        from repro.cluster.rollover import RolloverCoordinator

        cluster = Cluster(
            2, tmp_path, leaves_per_machine=2, namespace=shm_namespace,
            clock=clock, rows_per_block=64, rng=random.Random(1),
        )
        cluster.start_all()
        cluster.ingest("t", [{"time": i} for i in range(200)], batch_rows=50)
        result = RolloverCoordinator(cluster.machines, "v2", batch_fraction=0.5).run()
        progress = RolloverMonitor(result.dashboard).progress()
        assert progress.fraction_done == 1.0
        assert not progress.stalled
