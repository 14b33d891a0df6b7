"""The three workloads: their inputs, their job and the checks on their outputs.

The benchmark process makes the inputs from the seed and checks the
outputs apart from the program (checks.py). Each pass of the job runs in a
fresh worker process (worker.py) through the public entry points of
`voicecloak.cli`, so BLAS threading is set before NumPy loads and the
worker's peak memory is the job's own.

Sizes, all 16 kHz PCM16 speech from corpus.py:

* protect-ifgsm: 2 x 3 s and 2 x 10 s (26 s), I-FGSM at the defaults,
  `jobs=1`, one BLAS thread.
* protect-batch: 8 I-FGSM, 64 FGSM and 64 Gaussian files of 1 s (136 s),
  one `run_protect` call per method at the program's defaults: worker
  count unset, BLAS threads as the environment leaves them.
* evaluate: 20 speakers x 10 utterances of 1 s, clean (200 s), and the
  first 3 utterances of each speaker protected with I-FGSM at the defaults
  while the inputs are made (60 s); one BLAS thread. The job embeds both
  corpora, scores every unordered pair of distinct clean utterances
  (19 900 trials) and every clean utterance against every protected one
  (12 000), and writes the clean x clean, clean x protected and protected
  x protected similarity matrices at utterance and at speaker level. The
  EER sweep does one pass per threshold, so scoring cost grows faster than
  the trial count; these sizes give embedding, scoring and the matrices
  each about a fifth or more of a pass.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import checks
import corpus

WORKLOADS = ("protect-ifgsm", "protect-batch", "evaluate")
ONE_BLAS_THREAD = {"protect-ifgsm", "evaluate"}  # pinned in the job process

WEIGHTS_SEED = 42
EPSILON, ITERATIONS, TARGET_SNR = 0.02, 50, 32.0  # the program's defaults

IFGSM_PLAN = [(0, 0, 3.0), (1, 0, 3.0), (2, 0, 10.0), (3, 0, 10.0)]
BATCH_FILES = {"ifgsm": 8, "fgsm": 64, "gaussian": 64}
BATCH_FIRST_SPEAKER = {"ifgsm": 0, "fgsm": 100, "gaussian": 200}
SPEAKERS, UTTERANCES, PROTECTED = 20, 10, 3  # evaluate; 1 s utterances


def _protect_calls(name: str) -> list[tuple[str, str, str]]:
    """(method, input dir, output dir) of each run_protect call in the job."""
    if name == "protect-ifgsm":
        return [("ifgsm", "in", "out")]
    return [(m, f"in-{m}", f"out-{m}") for m in BATCH_FILES]


def _eval_keys() -> tuple[list[str], list[str]]:
    clean = [corpus.speaker_key(s, u) for s in range(SPEAKERS) for u in range(UTTERANCES)]
    protected = [corpus.speaker_key(s, u) for s in range(SPEAKERS) for u in range(PROTECTED)]
    return clean, protected


def _eval_trials():
    clean, protected = _eval_keys()

    def label(a, b):
        return "target" if a.split("-")[0] == b.split("-")[0] else "nontarget"

    cc = [(a, b, label(a, b)) for i, a in enumerate(clean) for b in clean[i + 1:]]
    cp = [(a, b, label(a, b)) for a in clean for b in protected]
    return cc, cp


# ------------------------------------------------------------------ inputs

def make_inputs(name: str, work: Path, seed: int) -> float:
    """Write the workload's inputs under `work`; returns seconds of audio per pass.

    The evaluate workload's protected corpus is made here with the program
    itself, so `voicecloak` must be importable.
    """
    from voicecloak import cli
    from voicecloak.encoder import EncoderConfig, init_random, save_weights

    save_weights(init_random(EncoderConfig(), WEIGHTS_SEED), work / "weights.bin")
    if name == "protect-ifgsm":
        return corpus.write_utterances(work / "in", seed, IFGSM_PLAN)
    if name == "protect-batch":
        return sum(
            corpus.write_utterances(work / f"in-{m}", seed,
                                    [(BATCH_FIRST_SPEAKER[m] + i, 0, 1.0) for i in range(n)])
            for m, n in BATCH_FILES.items())

    plan = [(s, u, 1.0) for s in range(SPEAKERS) for u in range(UTTERANCES)]
    clean = corpus.write_utterances(work / "clean", seed, plan)
    protected = corpus.write_utterances(work / "to-protect", seed, [p for p in plan if p[1] < PROTECTED])
    if cli.run_protect(str(work / "to-protect"), str(work / "weights.bin"), str(work / "protected"), jobs=2):
        raise RuntimeError("protecting the evaluation corpus failed")
    for tag, trials in zip(("cc", "cp"), _eval_trials()):
        (work / f"trials-{tag}.txt").write_text(
            "".join(f"{a} {b} {label}\n" for a, b, label in trials), encoding="utf-8")
    return clean + protected


def output_dirs(name: str, work: Path) -> list[Path]:
    if name == "evaluate":
        return [work / "out"]
    return [work / out for _, _, out in _protect_calls(name)]


def operations_per_pass(name: str) -> int:
    """Files protected, or files embedded plus trials scored plus matrices written."""
    if name == "protect-ifgsm":
        return len(IFGSM_PLAN)
    if name == "protect-batch":
        return sum(BATCH_FILES.values())
    cc, cp = _eval_trials()
    return sum(map(len, _eval_keys())) + len(cc) + len(cp) + 6


# --------------------------------------------------------------------- job

def clear_outputs(name: str, work: Path) -> None:
    for directory in output_dirs(name, work):
        shutil.rmtree(directory, ignore_errors=True)


def run_job(name: str, work: Path) -> int:
    """One pass of the job through voicecloak.cli; returns the failed operations."""
    from voicecloak import cli

    weights = str(work / "weights.bin")
    if name != "evaluate":
        jobs = 1 if name == "protect-ifgsm" else None
        return sum(cli.run_protect(str(work / src), weights, str(work / dst), method=m, jobs=jobs)
                   for m, src, dst in _protect_calls(name))

    out = work / "out"
    out.mkdir()
    clean, protected = str(out / "clean.emb"), str(out / "protected.emb")
    cli.run_embed((str(work / "clean"),), weights, clean)
    cli.run_embed((str(work / "protected"),), weights, protected)
    cli.run_eval(str(work / "trials-cc.txt"), clean, clean, str(out / "cc"))
    cli.run_eval(str(work / "trials-cp.txt"), clean, protected, str(out / "cp"))
    for level, speaker_level in (("utt", False), ("spk", True)):
        cli.run_simmat(clean, None, str(out / f"cc-{level}.csv"), speaker_level)
        cli.run_simmat(clean, protected, str(out / f"cp-{level}.csv"), speaker_level)
        cli.run_simmat(protected, None, str(out / f"pp-{level}.csv"), speaker_level)
    return 0


# ------------------------------------------------------------------ checks

def check_outputs(name: str, work: Path) -> list[str]:
    """Every output check on one pass."""
    if name == "evaluate":
        return _check_evaluate(work)
    faults = _check_direct_attacks(name, work)
    for method, src, dst in _protect_calls(name):
        for wav in sorted((work / src).glob("*.wav")):
            report = work / dst / f"{wav.stem}.json"
            if not report.exists():
                continue  # a failed file, counted in `failed`
            clean = checks.read_pcm16(wav)
            out = work / dst / wav.name
            bad_wav = checks.check_wav(out, len(clean))
            faults += bad_wav
            if bad_wav:
                continue
            protected = checks.read_pcm16(out)
            snr_db = json.loads(report.read_text(encoding="utf-8"))["snr_db"]
            faults += checks.check_snr(clean, protected, snr_db, f"{out.name} report")
            if method == "gaussian":
                faults += checks.check_snr(clean, protected, TARGET_SNR, f"{out.name} target")
    return faults


def _check_direct_attacks(name: str, work: Path) -> list[str]:
    """Direct fgsm calls on two of the inputs and an ifgsm call on one, untimed."""
    from voicecloak import attack, encoder, spectral
    from voicecloak.audio_io import Waveform

    ws = encoder.load_weights(work / "weights.bin")
    mel = spectral.mel_matrix()
    faults = []
    for i, wav in enumerate(sorted((work / _protect_calls(name)[0][1]).glob("*.wav"))[:2]):
        x = spectral.stft(Waveform(checks.read_pcm16(wav), 16000)).magnitude
        e_ref, _ = encoder.forward(spectral.log_mel(x, mel), ws)
        one = attack.fgsm(x, ws, e_ref, EPSILON)
        faults += checks.check_attack(x, one.adv_magnitude, one.loss_trajectory,
                                      EPSILON, 1, True, f"fgsm {wav.name}")
        if i == 0:
            many = attack.ifgsm(x, ws, e_ref)
            faults += checks.check_attack(x, many.adv_magnitude, many.loss_trajectory,
                                          EPSILON, ITERATIONS, False, f"ifgsm {wav.name}")
    return faults


def _check_evaluate(work: Path) -> list[str]:
    out = work / "out"
    clean = checks.read_archive(out / "clean.emb")
    protected = checks.read_archive(out / "protected.emb")
    # the looped reference encoder is slow: it checks one clean and one
    # protected utterance of every fourth speaker
    encoder = checks.ReferenceEncoder(work / "weights.bin")
    faults = []
    for archive, corpus_dir, per_speaker in ((clean, "clean", UTTERANCES), (protected, "protected", PROTECTED)):
        keys = [corpus.speaker_key(s, s % per_speaker) for s in range(0, SPEAKERS, 4)]
        wavs = {k: work / corpus_dir / f"{k}.wav" for k in keys}
        faults += checks.check_embeddings(archive, wavs, encoder, f"{corpus_dir}.emb")
    eers = []
    for tag, trials, test in zip(("cc", "cp"), _eval_trials(), (clean, protected)):
        faults += checks.check_scores(out / f"{tag}.scores.txt", trials, clean, test)
        found, eer = checks.check_eer(out / f"{tag}.eer.json", trials, clean, test)
        faults += found
        eers.append(eer)
    for level, speaker_level in (("utt", False), ("spk", True)):
        for tag, rows, cols in (("cc", clean, clean), ("cp", clean, protected), ("pp", protected, protected)):
            faults += checks.check_simmat(out / f"{tag}-{level}.csv", rows, cols, speaker_level)
    faults += checks.check_protection(*eers)
    return faults
