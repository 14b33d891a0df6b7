"""Readers and writers for evaluation files that only the tests need."""

from __future__ import annotations

import csv

import numpy as np

from voicecloak.metrics import Trial


def format_trials(trials: list[Trial]) -> str:
    return "".join(f"{t.enroll_id} {t.test_id} {t.label}\n" for t in trials)


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
