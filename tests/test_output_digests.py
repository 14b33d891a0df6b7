"""tools/output_digests.py: digests per directory and suffix that ignore where the job ran."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def _work(root: Path, value: int) -> Path:
    (root / "out").mkdir(parents=True)
    (root / "empty").mkdir()
    (root / "weights.bin").write_bytes(b"weights")
    (root / "out" / "a.wav").write_bytes(b"RIFF")
    (root / "out" / "a.json").write_text(f'{{"input": "{root}/in/a.wav", "x": {value}}}\n')
    return root


def test_digests_ignore_the_work_path_but_not_a_byte(tmp_path):
    here = output_digests.directory_digests(_work(tmp_path / "a", 1))
    elsewhere = output_digests.directory_digests(_work(tmp_path / "deeper" / "b", 1))
    changed = output_digests.directory_digests(_work(tmp_path / "c", 2))
    assert [(directory, suffix, count) for directory, suffix, count, _ in here] == [
        (".", ".bin", 1), ("out", ".json", 1), ("out", ".wav", 1)]
    assert here == elsewhere
    assert changed[1] != here[1]
    assert changed[0] == here[0] and changed[2] == here[2]  # the WAV line holds
