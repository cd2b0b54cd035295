"""Unit tests of the benchmark's own pieces (no program run needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import common  # noqa: E402
from wl_http import lateness, poisson_schedule  # noqa: E402

# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 10, 25, 50, 75, 90, 99, 100):
        assert common.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_edges():
    assert common.percentile([7.0], 99) == 7.0
    assert common.median([1.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1.0], 101)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(999) == 95.0
    assert common.tail_percentile(200) == 95.0
    assert common.tail_percentile(100) == 90.0
    assert common.tail_percentile(99) is None


# ----------------------------------------------------------------------
# open-loop scheduling
# ----------------------------------------------------------------------


def test_poisson_schedule_is_seeded_and_inside_the_window():
    first = poisson_schedule(random.Random(3), 100.0, 10.0, 5.0)
    second = poisson_schedule(random.Random(3), 100.0, 10.0, 5.0)
    assert first == second
    assert first == sorted(first)
    assert 5.0 < first[0] and first[-1] <= 15.0
    assert 900 < len(first) < 1100
    assert poisson_schedule(random.Random(4), 100.0, 10.0, 5.0) != first


def test_lateness_counts_latency_from_the_due_time():
    # due, sent, done: the second request waited 30 ms for a connection
    entries = [(0.000, 0.000, 0.010), (0.005, 0.035, 0.045)]
    latencies, lags = lateness(iter(entries))
    assert [round(seconds, 9) for _, seconds in latencies] == [0.010, 0.040]
    assert [round(lag, 9) for lag in lags] == [0.0, 0.030]
    assert [done for done, _ in latencies] == [0.010, 0.045]


# ----------------------------------------------------------------------
# calibration scaling
# ----------------------------------------------------------------------


def test_scale_time_expresses_a_duration_at_nominal_speed():
    nominal = common.NOMINAL_CAL_S["interpreter"]
    assert common.scale_time(0.010, nominal, nominal) == pytest.approx(0.010)
    # a machine running the kernel twice as slow: halve the raw time
    assert common.scale_time(0.010, 2 * nominal, nominal) == pytest.approx(0.005)


def test_local_calibration_uses_readings_near_each_sample():
    calibration = common.Calibration()
    nominal = calibration.nominal
    # slow first half, fast second half
    calibration.readings = [(float(t), 2 * nominal) for t in range(50)] + [
        (float(t), nominal) for t in range(50, 100)
    ]
    assert calibration.local(10.0) == pytest.approx(2 * nominal)
    assert calibration.local(90.0) == pytest.approx(nominal)
    scaled = common.scaled_samples([(10.0, 0.004), (90.0, 0.004)], calibration)
    assert scaled == pytest.approx([0.002, 0.004])


@pytest.mark.parametrize("kernel", sorted(common.KERNELS))
def test_calibration_take_records_readings(kernel):
    calibration = common.Calibration(kernel)
    value = calibration.take(3)
    assert len(calibration.readings) == 3
    assert value == pytest.approx(statistics.mean(calibration.seconds()))
    assert calibration.burst(0.01) > 0


def test_trimmed_mean_leaves_out_preempted_readings():
    assert common.trimmed_mean([1.0, 1.2, 0.8, 10.0]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# independent checkers
# ----------------------------------------------------------------------


def _world(seed: int = 0, n: int = 40, dim: int = 6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim), np.arange(100, 100 + n), rng.normal(size=(n, dim))


def test_brute_force_matches_a_per_pair_loop():
    user, ids, matrix = _world()
    expected, scores = checks.brute_force_top_k(user, ids, matrix, 5)
    loop = []
    for event_id, row in zip(ids, matrix):
        cosine = float(user @ row) / (
            (np.linalg.norm(user) + checks.COSINE_EPS)
            * (np.linalg.norm(row) + checks.COSINE_EPS)
        )
        loop.append((-cosine, int(event_id)))
        assert scores[int(event_id)] == pytest.approx(cosine, abs=1e-12)
    assert expected == [event_id for _, event_id in sorted(loop)[:5]]


def test_brute_force_breaks_ties_by_event_id():
    user = np.array([1.0, 0.0])
    matrix = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    expected, _ = checks.brute_force_top_k(user, np.array([9, 3, 1]), matrix, 2)
    assert expected == [3, 9]


def test_check_ranking_accepts_the_right_answer():
    user, ids, matrix = _world()
    expected, scores = checks.brute_force_top_k(user, ids, matrix, 10)
    served = [(event_id, scores[event_id]) for event_id in expected]
    assert checks.check_ranking(served, expected, scores, 10) == []


def test_check_ranking_rejects_a_wrong_ranking():
    user, ids, matrix = _world()
    expected, scores = checks.brute_force_top_k(user, ids, matrix, 10)
    served = [(event_id, scores[event_id]) for event_id in expected]
    swapped = [served[1], served[0], *served[2:]]
    assert checks.check_ranking(swapped, expected, scores, 10)
    wrong_score = [(served[0][0], served[0][1] + 1e-6), *served[1:]]
    assert checks.check_ranking(wrong_score, expected, scores, 10)
    outsider = [(999999, 0.99), *served[1:]]
    assert checks.check_ranking(outsider, expected, scores, 10)
    too_many = served + [(int(ids[-1]), scores[int(ids[-1])])]
    assert checks.check_ranking(too_many, expected, scores, 10)
    missing_best = served[1:]
    assert checks.check_ranking(missing_best, expected, scores, 10)


def test_mann_whitney_auc_counts_ties_as_half():
    labels = np.array([1, 0, 1, 0])
    scores = np.array([0.9, 0.1, 0.5, 0.5])
    # pairs: (0.9>0.1) (0.9>0.5) (0.5>0.1) (0.5=0.5) -> 3.5 / 4
    assert checks.mann_whitney_auc(labels, scores) == 0.875


def test_mann_whitney_auc_agrees_with_pairwise_count():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, size=300)
    scores = np.round(rng.normal(size=300), 1)  # many ties
    positives, negatives = scores[labels == 1], scores[labels == 0]
    pairwise = (
        (positives[:, None] > negatives[None, :]).sum()
        + 0.5 * (positives[:, None] == negatives[None, :]).sum()
    ) / (positives.size * negatives.size)
    assert checks.mann_whitney_auc(labels, scores) == pytest.approx(pairwise, abs=1e-15)
    with pytest.raises(ValueError):
        checks.mann_whitney_auc(np.zeros(3), np.zeros(3))
