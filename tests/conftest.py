import numpy as np
import pytest

from voicecloak.encoder import EncoderConfig, WeightStore, init_random
from voicecloak.spectral import mel_matrix

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, name: str, ok: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the summary."""
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_weights() -> WeightStore:
    return init_random(EncoderConfig(), 42)


@pytest.fixture(scope="session")
def mel64() -> np.ndarray:
    return mel_matrix(512, 64)
