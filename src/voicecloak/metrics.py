"""Evaluation machinery: SNR, trial parsing and scoring, EER.

Scoring convention: trials are columns (enrollment ids, test ids, target
mask); a trial score is the plain cosine similarity between the two
embeddings, so higher means "same speaker", and an EER above 0.5 signals
inverted score polarity.

Cost and numeric contract: the EER sweep sorts each score set once and
counts by binary search, O(n log n); its error rates are exact integer
counts, so EER values are exact. Scores and similarity matrices are one
product of row-normalised matrices, which sums in a different order than
a per-pair cosine (`-cosine_loss`), so they may differ from it (and the
EER threshold with them) in the last few ulps.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .audio_io import Waveform
from .encoder import NORM_EPS

SNR_DENOM_FLOOR = 1e-300
VALID_LABELS = ("target", "nontarget")


class TrialFormatError(ValueError):
    """Raised for malformed trial files and for trials naming a key no embedding has."""


def snr_db(ref: Waveform, test: Waveform) -> float:
    """10*log10(ref energy / error energy), trimmed to the common length.

    Returns float('inf') when the error energy underflows (identical
    signals). Raises on a zero-energy reference or mismatched rates.
    """
    if ref.sample_rate != test.sample_rate:
        raise ValueError(f"sample rates differ: {ref.sample_rate} vs {test.sample_rate}")
    n = min(len(ref.samples), len(test.samples))
    if n == 0:
        raise ValueError("empty signal")
    r = ref.samples[:n]
    signal_energy = float(np.sum(r**2))
    if signal_energy == 0.0:
        raise ValueError("zero-energy reference signal")
    error_energy = float(np.sum((r - test.samples[:n]) ** 2))
    if error_energy < SNR_DENOM_FLOOR:
        return float("inf")
    return 10.0 * np.log10(signal_energy / error_energy)


def parse_trials(path) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a trial file: one `enroll test label` triple per line.

    Labels are case-insensitive target/nontarget; fields are whitespace
    separated; blank lines are skipped. Malformed lines are rejected with
    their line number. Returns the columns in file order: enrollment ids,
    test ids, and a boolean array that is True for target trials.
    """
    enroll_ids: list[str] = []
    test_ids: list[str] = []
    is_target: list[bool] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = stripped.split()
            if len(fields) != 3:
                raise TrialFormatError(
                    f"{path}:{lineno}: expected 3 fields (enroll test label),"
                    f" got {len(fields)}: {stripped!r}"
                )
            enroll, test, label = fields
            if label.lower() not in VALID_LABELS:
                raise TrialFormatError(
                    f"{path}:{lineno}: label must be target or nontarget, got {label!r}"
                )
            enroll_ids.append(enroll)
            test_ids.append(test)
            is_target.append(label.lower() == "target")
    if not enroll_ids:
        raise TrialFormatError(f"{path}: no trials found")
    return enroll_ids, test_ids, np.array(is_target, dtype=bool)


def _unit_rows(embeddings: dict[str, np.ndarray], keys) -> np.ndarray:
    """Stack the embeddings of `keys` as rows scaled to unit norm."""
    matrix = np.array([embeddings[k] for k in keys], dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    small = np.flatnonzero(norms <= NORM_EPS)
    if small.size:
        i = small[0]
        raise ValueError(f"near-zero-norm embedding for key {keys[i]!r} (norm {norms[i]:.3e})")
    return matrix / norms[:, None]


def score_trials(
    enroll_ids: list[str],
    test_ids: list[str],
    enroll_embeddings: dict[str, np.ndarray],
    test_embeddings: dict[str, np.ndarray],
) -> np.ndarray:
    """Cosine similarity per trial, aligned with the order of the id columns.

    Every key is checked, and a missing one reported by name, before any
    arithmetic. The scores are cells of one Gram matrix between the
    distinct enrollment and test keys.
    """
    if len(enroll_ids) != len(test_ids):
        raise ValueError(f"{len(enroll_ids)} enrollment ids but {len(test_ids)} test ids")
    enroll_index = {k: i for i, k in enumerate(dict.fromkeys(enroll_ids))}  # trial order
    test_index = {k: i for i, k in enumerate(dict.fromkeys(test_ids))}
    if not (enroll_index.keys() <= enroll_embeddings.keys()
            and test_index.keys() <= test_embeddings.keys()):
        for enroll_id, test_id in zip(enroll_ids, test_ids):  # name the first missing key
            if enroll_id not in enroll_embeddings:
                raise TrialFormatError(f"enrollment key {enroll_id!r} missing from embeddings")
            if test_id not in test_embeddings:
                raise TrialFormatError(f"test key {test_id!r} missing from embeddings")
    if not enroll_index:
        return np.zeros(0)
    ei = list(map(enroll_index.__getitem__, enroll_ids))
    ti = list(map(test_index.__getitem__, test_ids))
    enroll = _unit_rows(enroll_embeddings, list(enroll_index))
    test = _unit_rows(test_embeddings, list(test_index))
    return (enroll @ test.T)[ei, ti]


def _operating_points(target_scores: np.ndarray, nontarget_scores: np.ndarray):
    """FAR/FRR at each candidate threshold: all scores plus one beyond max.

    FAR(t) counts nontargets >= t, FRR(t) counts targets < t; both are
    step functions that only change at score values, so this sweep visits
    every achievable operating point, counted by binary search.
    """
    thresholds = np.unique(np.concatenate([target_scores, nontarget_scores]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    n_non, n_target = len(nontarget_scores), len(target_scores)
    far = (n_non - np.searchsorted(np.sort(nontarget_scores), thresholds, "left")) / n_non
    frr = np.searchsorted(np.sort(target_scores), thresholds, "left") / n_target
    return thresholds, far, frr


def compute_eer(target_scores, nontarget_scores) -> tuple[float, float]:
    """Equal error rate and its threshold from raw trial scores.

    Sweeps every distinct operating point and linearly interpolates
    between the two adjacent points where FAR - FRR changes sign. The
    result is a fraction; values above 0.5 indicate inverted polarity.
    """
    target_scores = np.asarray(target_scores, dtype=np.float64)
    nontarget_scores = np.asarray(nontarget_scores, dtype=np.float64)
    if target_scores.size == 0 or nontarget_scores.size == 0:
        raise ValueError("need at least one target and one nontarget score")
    thresholds, far, frr = _operating_points(target_scores, nontarget_scores)
    diff = far - frr  # monotone nonincreasing in the threshold
    k = int(np.argmax(diff <= 0.0))
    if k == 0:
        return float(far[0]), float(thresholds[0])
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    eer = far[k - 1] + t * (far[k] - far[k - 1])
    threshold = thresholds[k - 1] + t * (thresholds[k] - thresholds[k - 1])
    return float(eer), float(threshold)


def average_by_speaker(embeddings: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Average utterance embeddings per speaker prefix (text before the
    first '-'; keys without one form their own group)."""
    groups: dict[str, list[np.ndarray]] = {}
    for key in sorted(embeddings):
        groups.setdefault(key.split("-", 1)[0], []).append(embeddings[key])
    return {spk: np.mean(vecs, axis=0) for spk, vecs in groups.items()}


def similarity_matrix(
    rows: dict[str, np.ndarray],
    cols: dict[str, np.ndarray],
    speaker_level: bool,
) -> tuple[np.ndarray, list[str], list[str]]:
    """Cosine similarity between two embedding collections.

    Returns (matrix, row_keys, col_keys) with keys sorted. speaker_level
    first averages each side's embeddings by speaker prefix.
    """
    if not rows or not cols:
        raise ValueError("embedding maps must be nonempty")
    if speaker_level:
        rows = average_by_speaker(rows)
        cols = average_by_speaker(cols)
    row_keys = sorted(rows)
    col_keys = sorted(cols)
    matrix = _unit_rows(rows, row_keys) @ _unit_rows(cols, col_keys).T
    return matrix, row_keys, col_keys


def _csv_key(key: str) -> str:
    """key as csv.writer spells it as the first of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow((key, ""))
    return buf.getvalue()[: -len(",\r\n")]


def write_similarity_csv(path, matrix: np.ndarray, row_keys: list[str], col_keys: list[str]):
    """The matrix as CSV: a header of column keys, then each row key and its
    cells as %.12g, quoted and ended as csv.writer's default dialect does."""
    cells = ",%.12g" * matrix.shape[1] + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([""] + col_keys)
        for key, row in zip(row_keys, matrix):
            fh.write(_csv_key(key) + cells % tuple(row.tolist()))
