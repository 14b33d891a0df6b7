"""tools/ab_passes.py: the summary of paired passes, and the check on its sources."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_passes.py"
_spec = importlib.util.spec_from_file_location("ab_passes", TOOL)
ab_passes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_passes)


def _pair(wall_a, wall_b, rss_a=40.0, rss_b=41.0):
    return {"wall": wall_a, "peak_rss_mib": rss_a}, {"wall": wall_b, "peak_rss_mib": rss_b}


def test_summary_gives_medians_quartiles_and_wins():
    pairs = [_pair(1.0, 0.5), _pair(2.0, 1.0), _pair(4.0, 5.0, rss_b=43.0),
             _pair(0.8, 0.8), _pair(1.25, 0.625)]
    result = ab_passes.summary(pairs, audio_seconds=10.0)
    # A rates 10, 5, 2.5, 12.5, 8; B rates 20, 10, 2, 12.5, 16
    assert result["a"]["audio_s_per_s"] == {"median": 8.0, "q1": 5.0, "q3": 10.0}
    assert result["b"]["audio_s_per_s"] == {"median": 12.5, "q1": 10.0, "q3": 16.0}
    assert result["a"]["peak_rss_mib"] == {"median": 40.0, "q1": 40.0, "q3": 40.0}
    assert result["b"]["peak_rss_mib"]["median"] == 41.0
    assert result["b"]["peak_rss_mib"]["q3"] == 41.0
    assert result["b_wins"] == "3/5"  # a tie is no win


def test_a_source_without_voicecloak_is_a_usage_error(tmp_path, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    assert ab_passes.main(["evaluate", "1", "2", str(src), str(tmp_path)]) == 2
    assert f"no voicecloak package in {tmp_path}" in capsys.readouterr().err
    assert ab_passes.main(["evaluate", "1", "2", str(tmp_path), str(src)]) == 2
