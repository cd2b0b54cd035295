"""Output checks computed apart from the program.

The reference ranking is brute force: cosine of the user vector with
every candidate's vector (numpy, the training epsilon convention
``dot / ((|u| + eps) * (|e| + eps))``), ordered by ``(-score, event_id)``.
The reference AUC is the Mann-Whitney statistic counted from sorted
scores.  Neither touches the program's index, ranking or metric code.
"""

from __future__ import annotations

import numpy as np

COSINE_EPS = 1.0e-12
SCORE_TOLERANCE = 1e-9


def cosine_scores(user_vector: np.ndarray, event_matrix: np.ndarray) -> np.ndarray:
    """Cosine of one vector against each row of a matrix."""
    user_norm = float(np.sqrt(np.dot(user_vector, user_vector))) + COSINE_EPS
    row_norms = np.sqrt(np.einsum("ij,ij->i", event_matrix, event_matrix)) + COSINE_EPS
    return (event_matrix @ user_vector) / (row_norms * user_norm)


def brute_force_top_k(
    user_vector: np.ndarray,
    event_ids: np.ndarray,
    event_matrix: np.ndarray,
    top_k: int,
) -> tuple[list[int], dict[int, float]]:
    """Expected top-``k`` ids, and the reference score of every candidate."""
    scores = cosine_scores(user_vector, event_matrix)
    order = sorted(range(len(event_ids)), key=lambda i: (-scores[i], int(event_ids[i])))
    expected = [int(event_ids[i]) for i in order[:top_k]]
    return expected, {int(event_id): float(score) for event_id, score in zip(event_ids, scores)}


def check_ranking(
    got: list[tuple[int, float]],
    expected: list[int],
    reference: dict[int, float],
    top_k: int,
) -> list[str]:
    """Problems with one served ranking; empty when it is right.

    ``got`` is the served ``(event_id, score)`` list.  Ids must match the
    brute-force order position by position; a mismatch is accepted only
    where the two events' reference scores tie within the tolerance.
    Every served score must match its reference score.
    """
    problems: list[str] = []
    if len(got) > top_k:
        problems.append(f"{len(got)} results for top_k={top_k}")
    if len(got) != len(expected):
        problems.append(f"{len(got)} results, expected {len(expected)}")
    ids = [event_id for event_id, _ in got]
    if len(set(ids)) != len(ids):
        problems.append("duplicate ids")
    for position, (event_id, score) in enumerate(got):
        if event_id not in reference:
            problems.append(f"id {event_id} is not a candidate")
            continue
        if abs(score - reference[event_id]) > SCORE_TOLERANCE:
            problems.append(
                f"id {event_id}: score {score!r} != reference {reference[event_id]!r}"
            )
        if position < len(expected) and event_id != expected[position]:
            other = expected[position]
            if abs(reference[event_id] - reference[other]) > SCORE_TOLERANCE:
                problems.append(
                    f"position {position}: id {event_id}, expected {other}"
                )
    keys = [(-score, event_id) for event_id, score in got]
    for position in range(1, len(keys)):
        if keys[position - 1] >= keys[position]:
            problems.append(f"not sorted by (-score, event_id) at position {position}")
    return problems


def mann_whitney_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """AUC as the share of (positive, negative) pairs ordered right,
    ties counting one half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.sort(scores[labels == 1])
    negatives = np.sort(scores[labels == 0])
    if positives.size == 0 or negatives.size == 0:
        raise ValueError("AUC needs both classes present")
    below = np.searchsorted(negatives, positives, side="left")
    at_or_below = np.searchsorted(negatives, positives, side="right")
    wins = below.sum() + 0.5 * (at_or_below - below).sum()
    return float(wins) / (positives.size * negatives.size)
