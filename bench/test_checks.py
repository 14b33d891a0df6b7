"""Each output check passes on real outputs and fails on a corrupted copy.

Run from the root of the repository: python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import corpus  # noqa: E402
from voicecloak import attack, cli, encoder, spectral  # noqa: E402
from voicecloak.audio_io import Waveform  # noqa: E402

SEED = 7
SPEAKERS, UTTERANCES = 3, 3


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small protect and evaluate job, run once for all tests."""
    work = tmp_path_factory.mktemp("bench")
    weights = work / "weights.bin"
    encoder.save_weights(encoder.init_random(encoder.EncoderConfig(), 42), weights)
    corpus.write_utterances(work / "in", SEED, [(s, 0, 0.5) for s in range(2)])
    for method in ("ifgsm", "gaussian"):
        assert cli.run_protect(str(work / "in"), str(weights), str(work / method), method=method, jobs=1) == 0

    plan = [(s, u, 0.5) for s in range(SPEAKERS) for u in range(UTTERANCES)]
    corpus.write_utterances(work / "clean", SEED, plan)
    corpus.write_utterances(work / "to-protect", SEED, [p for p in plan if p[1] == 0])
    assert cli.run_protect(str(work / "to-protect"), str(weights), str(work / "protected"), jobs=1) == 0
    cli.run_embed((str(work / "clean"),), str(weights), str(work / "clean.emb"))
    cli.run_embed((str(work / "protected"),), str(weights), str(work / "protected.emb"))
    keys = sorted(p.stem for p in (work / "clean").glob("*.wav"))
    trials = [(a, b, "target" if a[:5] == b[:5] else "nontarget")
              for i, a in enumerate(keys) for b in keys[i + 1:]]
    (work / "trials.txt").write_text("".join(f"{a} {b} {c}\n" for a, b, c in trials))
    cli.run_eval(str(work / "trials.txt"), str(work / "clean.emb"), str(work / "clean.emb"), str(work / "cc"))
    cli.run_simmat(str(work / "clean.emb"), str(work / "protected.emb"), str(work / "utt.csv"))
    cli.run_simmat(str(work / "clean.emb"), str(work / "protected.emb"), str(work / "spk.csv"), True)
    return work, trials


def corrupt_copy(src: Path, dst: Path, edit) -> Path:
    shutil.copy(src, dst)
    dst.write_bytes(edit(bytearray(dst.read_bytes())))
    return dst


def flip_sample(data: bytearray) -> bytes:
    data[44 + 2 * 1000 + 1] ^= 0x40  # high byte of sample 1000
    return bytes(data)


def test_wav_check(run, tmp_path):
    work, _ = run
    good = work / "ifgsm" / "spk00-utt00.wav"
    n = len(checks.read_pcm16(work / "in" / "spk00-utt00.wav"))
    assert checks.check_wav(good, n) == []
    assert checks.check_wav(good, n + 1)
    stereo = corrupt_copy(good, tmp_path / "stereo.wav", lambda d: bytes(d[:22] + b"\x02" + d[23:]))
    assert checks.check_wav(stereo, n)


@pytest.mark.parametrize("method", ["ifgsm", "gaussian"])
def test_report_snr_check(run, tmp_path, method):
    work, _ = run
    clean = checks.read_pcm16(work / "in" / "spk00-utt00.wav")
    out = work / method / "spk00-utt00.wav"
    reported = json.loads((work / method / "spk00-utt00.json").read_text())["snr_db"]
    assert checks.check_snr(clean, checks.read_pcm16(out), reported, "ok") == []
    flipped = checks.read_pcm16(corrupt_copy(out, tmp_path / "f.wav", flip_sample))
    assert checks.check_snr(clean, flipped, reported, "flipped")


def test_target_snr_check(run, tmp_path):
    work, _ = run
    clean = checks.read_pcm16(work / "in" / "spk00-utt00.wav")
    out = work / "gaussian" / "spk00-utt00.wav"
    assert checks.check_snr(clean, checks.read_pcm16(out), 32.0, "ok") == []
    flipped = checks.read_pcm16(corrupt_copy(out, tmp_path / "f.wav", flip_sample))
    assert checks.check_snr(clean, flipped, 32.0, "flipped")


def test_attack_check(run):
    work, _ = run
    ws = encoder.load_weights(work / "weights.bin")
    x = spectral.stft(Waveform(checks.read_pcm16(work / "in" / "spk00-utt00.wav"), 16000)).magnitude
    e_ref, _ = encoder.forward(spectral.log_mel(x, spectral.mel_matrix()), ws)
    eps = 0.02
    one = attack.fgsm(x, ws, e_ref, eps)
    many = attack.ifgsm(x, ws, e_ref)
    assert checks.check_attack(x, one.adv_magnitude, one.loss_trajectory, eps, 1, True, "fgsm") == []
    assert checks.check_attack(x, many.adv_magnitude, many.loss_trajectory, eps, 50, False, "ifgsm") == []

    over = many.adv_magnitude.copy()
    over[3, 5] = x[3, 5] + 1.5 * eps
    assert checks.check_attack(x, over, many.loss_trajectory, eps, 50, False, "over budget")
    negative = many.adv_magnitude.copy()
    negative[np.unravel_index(np.argmin(x), x.shape)] = -1e-9
    assert checks.check_attack(x, negative, many.loss_trajectory, eps, 50, False, "negative")
    assert checks.check_attack(x, many.adv_magnitude, many.loss_trajectory[:-1], eps, 50, False, "short")
    off_grid = one.adv_magnitude.copy()
    off_grid[4, 7] = x[4, 7] + 0.5 * eps
    assert checks.check_attack(x, off_grid, one.loss_trajectory, eps, 1, True, "off grid")


def test_identical_check(run, tmp_path):
    work, _ = run
    shutil.copytree(work / "ifgsm", tmp_path / "copy")
    first = checks.digests(tmp_path / "copy")
    assert checks.check_identical(first, checks.digests(tmp_path / "copy")) == []
    target = tmp_path / "copy" / "spk01-utt00.wav"
    target.write_bytes(flip_sample(bytearray(target.read_bytes())))
    assert checks.check_identical(first, checks.digests(tmp_path / "copy"))


def test_embedding_check(run):
    work, _ = run
    archive = checks.read_archive(work / "clean.emb")
    ref = checks.ReferenceEncoder(work / "weights.bin")
    wavs = {k: work / "clean" / f"{k}.wav" for k in ("spk00-utt01", "spk02-utt02")}
    assert checks.check_embeddings(archive, wavs, ref, "ok") == []
    edited = dict(archive)
    edited["spk02-utt02"] = archive["spk02-utt02"] * (1.0 + 1e-7)
    assert checks.check_embeddings(edited, wavs, ref, "edited")


def test_score_check(run, tmp_path):
    work, trials = run
    clean = checks.read_archive(work / "clean.emb")
    assert checks.check_scores(work / "cc.scores.txt", trials, clean, clean) == []
    lines = (work / "cc.scores.txt").read_text().splitlines()
    e, t, label, score = lines[4].split()
    lines[4] = f"{e} {t} {label} {float(score) + 1e-6:.12g}"
    edited = tmp_path / "edited.scores.txt"
    edited.write_text("\n".join(lines) + "\n")
    assert checks.check_scores(edited, trials, clean, clean)


def test_eer_check(run, tmp_path):
    work, trials = run
    clean = checks.read_archive(work / "clean.emb")
    assert checks.check_eer(work / "cc.eer.json", trials, clean, clean)[0] == []
    summary = json.loads((work / "cc.eer.json").read_text())
    summary["eer"] += 1e-6
    edited = tmp_path / "edited.eer.json"
    edited.write_text(json.dumps(summary))
    assert checks.check_eer(edited, trials, clean, clean)[0]


def test_sweep_eer_matches_hand_count():
    # FAR - FRR falls from +1/6 at t = 0.5 (FAR 1/2) to -1/3 at t = 0.6
    # (FAR 0); interpolating FAR there gives 1/2 - (1/3)(1/2) = 1/3
    assert checks.sweep_eer(np.array([0.9, 0.6, 0.3]), np.array([0.5, 0.2])) == pytest.approx(1 / 3)


@pytest.mark.parametrize("name, speaker_level", [("utt.csv", False), ("spk.csv", True)])
def test_simmat_check(run, tmp_path, name, speaker_level):
    work, _ = run
    clean = checks.read_archive(work / "clean.emb")
    protected = checks.read_archive(work / "protected.emb")
    assert checks.check_simmat(work / name, clean, protected, speaker_level) == []
    lines = (work / name).read_text().splitlines()
    first, second = lines[1].split(",", 1), lines[2].split(",", 1)
    lines[1], lines[2] = f"{first[0]},{second[1]}", f"{second[0]},{first[1]}"
    shuffled = tmp_path / name
    shuffled.write_text("\n".join(lines) + "\n")
    assert checks.check_simmat(shuffled, clean, protected, speaker_level)


def test_speaker_level_check_wants_means(run, tmp_path):
    work, _ = run
    clean = checks.read_archive(work / "clean.emb")
    protected = checks.read_archive(work / "protected.emb")
    firsts = {k.split("-")[0]: v for k, v in clean.items() if k.endswith("utt00")}
    means = checks.speaker_means(protected)
    rows = ["," + ",".join(sorted(means))]
    rows += [f"{r}," + ",".join(f"{checks.cosine(firsts[r], means[c]):.12g}" for c in sorted(means))
             for r in sorted(firsts)]
    first_utterances = tmp_path / "spk.csv"
    first_utterances.write_text("\n".join(rows) + "\n")
    assert checks.check_simmat(first_utterances, clean, protected, True)


def test_protection_check():
    assert checks.check_protection(0.1, 0.4) == []
    assert checks.check_protection(0.4, 0.1)


def test_tracer_keeps_every_span_under_threads():
    from concurrent.futures import ThreadPoolExecutor

    from tracing import Tracer

    tracer = Tracer()

    def inner(i):
        return i

    def outer(i):
        return tracer._run("inner", inner, (i,), {})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda i: tracer._run("outer", outer, (i,), {}), range(4000)))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(4000))
    assert len(tracer.spans) == 8000
    for name, start, end, parent, thread in tracer.spans:
        assert end >= start > 0.0
        if name == "inner":
            assert tracer.spans[parent][0] == "outer" and tracer.spans[parent][4] == thread
        else:
            assert parent is None
