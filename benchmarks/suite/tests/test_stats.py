import pytest

from benchmarks.suite import stats


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert stats.percentile(samples, 0.5) == 50.0
    assert stats.percentile(samples, 0.95) == 95.0
    assert stats.percentile([3.0], 0.95) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_ten_samples_beyond_rule():
    # 200 SELECTs leave exactly ten beyond p95; 199 do not.
    assert stats.beyond(200, 0.95) == 10
    assert stats.beyond(199, 0.95) == 9
    # 120 writes support p90 (12 beyond) but not p95 (6 beyond).
    assert stats.beyond(120, 0.90) == 12
    assert stats.highest_supported(120) == 0.9
    assert stats.highest_supported(200) == 0.95
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(20) == 0.5
    assert stats.highest_supported(19) is None


def test_drift_share():
    assert stats.drift_share(0.010, 0.012) == pytest.approx(0.2)
    assert stats.drift_share(0.010, 0.009) == pytest.approx(0.1)
