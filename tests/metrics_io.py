"""Evaluation helpers that only the tests need: a per-pair cosine and file readers and writers."""

from __future__ import annotations

import csv

import numpy as np

from voicecloak.encoder import cosine_loss


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of one pair, the per-pair reference for Gram-matrix scoring."""
    return -cosine_loss(a, b)


def format_trials(enroll_ids: list[str], test_ids: list[str], is_target) -> str:
    return "".join(
        f"{e} {t} {'target' if y else 'nontarget'}\n"
        for e, t, y in zip(enroll_ids, test_ids, is_target)
    )


def read_similarity_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col_keys = header[1:]
        row_keys = []
        values = []
        for record in reader:
            row_keys.append(record[0])
            values.append([float(v) for v in record[1:]])
    return np.array(values), row_keys, col_keys
