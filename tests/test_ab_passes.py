"""tools/ab_passes.py: the summary of paired passes, and the check on its sources."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_passes.py"
_spec = importlib.util.spec_from_file_location("ab_passes", TOOL)
ab_passes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_passes)


def _pair(wall_a, wall_b, rss_a=40.0, rss_b=41.0, faults_b=900):
    usage = {"user_s": 0.5, "sys_s": 0.25, "minor_faults": 1000}
    return ({"wall": wall_a, "peak_rss_mib": rss_a, **usage},
            {"wall": wall_b, "peak_rss_mib": rss_b, **usage, "minor_faults": faults_b})


def test_summary_gives_medians_quartiles_and_wins():
    pairs = [_pair(1.0, 0.5, faults_b=100), _pair(2.0, 1.0, faults_b=300),
             _pair(4.0, 5.0, rss_b=43.0, faults_b=500), _pair(0.8, 0.8, faults_b=200),
             _pair(1.25, 0.625, faults_b=400)]
    result = ab_passes.summary(pairs, audio_seconds=10.0)
    # A rates 10, 5, 2.5, 12.5, 8; B rates 20, 10, 2, 12.5, 16
    assert result["a"]["audio_s_per_s"] == {"median": 8.0, "q1": 5.0, "q3": 10.0}
    assert result["b"]["audio_s_per_s"] == {"median": 12.5, "q1": 10.0, "q3": 16.0}
    assert result["a"]["peak_rss_mib"] == {"median": 40.0, "q1": 40.0, "q3": 40.0}
    assert result["b"]["peak_rss_mib"]["median"] == 41.0
    assert result["b"]["peak_rss_mib"]["q3"] == 41.0
    assert result["a"]["user_s"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert result["a"]["sys_s"] == {"median": 0.25, "q1": 0.25, "q3": 0.25}
    assert result["a"]["minor_faults"]["median"] == 1000
    assert result["b"]["minor_faults"] == {"median": 300, "q1": 200, "q3": 400}
    assert result["b_wins"] == "3/5"  # a tie is no win
    assert result["b_peak_wins"] == "0/5"  # B's peak is higher in every pair
    lower = ab_passes.summary([_pair(1.0, 1.0, rss_b=39.0), _pair(1.0, 1.0, rss_b=40.0)], 1.0)
    assert lower["b_peak_wins"] == "1/2"  # a tie is no win
    # audio: (12.5 - 8) / (10 - 5); A's peak has no spread
    assert result["gap_over_a_spread"] == {"audio_s_per_s": 0.9, "peak_rss_mib": None}


def test_gap_over_spread_is_signed_by_b_minus_a():
    pairs = [_pair(1.0, 1.0, rss_a=40.0, rss_b=38.0), _pair(2.0, 2.0, rss_a=41.0, rss_b=38.5),
             _pair(4.0, 4.0, rss_a=42.0, rss_b=39.0)]
    # A peaks 40, 41, 42 (spread 1); B peaks 38, 38.5, 39 (median 38.5); equal rates
    gap = ab_passes.summary(pairs, audio_seconds=4.0)["gap_over_a_spread"]
    assert gap["peak_rss_mib"] == -2.5
    assert gap["audio_s_per_s"] == 0.0


FAKE_WORKER = """\
import json, resource, subprocess, sys
# a grandchild that touches 4 MiB and reports its own faults, as a pool worker would
child = subprocess.run([sys.executable, "-c", "import resource; b = bytearray(4 << 20); "
                        "b[::4096] = b'x' * (1 << 10); "
                        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)"],
                       stdout=subprocess.PIPE, text=True, check=True)
print(json.dumps({"wall": 1.0, "failed": 0, "peak_rss_mib": 1.0,
                  "grandchild_faults": int(child.stdout)}))
"""


def test_a_pass_counts_the_cpu_and_faults_of_the_workers_it_reaped(tmp_path, monkeypatch):
    (tmp_path / "worker.py").write_text(FAKE_WORKER, encoding="utf-8")
    monkeypatch.setattr(ab_passes, "BENCH", tmp_path)
    report = ab_passes._pass("evaluate", tmp_path, tmp_path, env=None)
    assert report["minor_faults"] > report["grandchild_faults"] > 0
    assert report["user_s"] > 0 and report["sys_s"] >= 0
    assert report["wall"] == 1.0 and report["peak_rss_mib"] == 1.0


def test_a_source_without_voicecloak_is_a_usage_error(tmp_path, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    assert ab_passes.main(["evaluate", "1", "2", str(src), str(tmp_path)]) == 2
    assert f"no voicecloak package in {tmp_path}" in capsys.readouterr().err
    assert ab_passes.main(["evaluate", "1", "2", str(tmp_path), str(src)]) == 2


def test_sources_at_paths_of_different_lengths_are_a_usage_error(tmp_path, capsys):
    short, longer = tmp_path / "a", tmp_path / "bb"
    for src in (short, longer):
        (src / "voicecloak").mkdir(parents=True)
        (src / "voicecloak" / "__init__.py").write_text("", encoding="utf-8")
    assert ab_passes.main(["evaluate", "1", "2", str(short), str(longer)]) == 2
    err = capsys.readouterr().err
    assert f"SRC_A {short} and SRC_B {longer}" in err and "different lengths" in err
