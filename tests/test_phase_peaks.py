"""tools/phase_peaks.py: nested phases keep their peaks, and a smoke run on 1 s."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "phase_peaks.py"
_spec = importlib.util.spec_from_file_location("phase_peaks", TOOL)
phase_peaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_peaks)

MIB = 2**20


def test_a_nested_phase_hides_nothing_from_its_caller():
    """The inner call's 2 MiB temporary peaks inside both phases; the outer
    phase's later 1 MiB, made after the inner returned, only inside its own."""
    watch = phase_peaks.PhaseWatch()
    inner = watch.wrap("inner", lambda: np.ones(2 * MIB // 8).nbytes)

    def outer():
        held = np.ones(MIB // 8)
        inner()
        later = np.ones(MIB // 8)
        return held.nbytes + later.nbytes

    outer = watch.wrap("outer", outer)
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    assert 3 * MIB <= watch.peaks["inner"] < 3.1 * MIB
    assert 3 * MIB <= watch.peaks["outer"] < 3.1 * MIB
    assert watch.open == []


def test_prints_a_peak_for_every_phase_of_a_one_second_file():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), "1"], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    header, *lines = run.stdout.splitlines()
    assert header.startswith("tracemalloc peak (MiB) inside each phase")
    peaks = {name.strip(): float(mib) for name, mib in (line.rsplit(None, 1) for line in lines)}
    assert list(peaks) == [phase for phase, _ in phase_peaks.PHASES]
    assert all(mib > 0 for mib in peaks.values())
    assert peaks["analysis"] >= 101 * 257 * 8 / MIB  # it makes the [frames x bins] magnitude
