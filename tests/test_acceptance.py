"""End-to-end acceptance checks.

Each test exercises one released guarantee at its stated tolerance and
records a single pass/fail line (printed immediately and repeated in the
terminal summary). Tolerances and instance counts are pinned; loosening
them is a behavior change, not a test fix.
"""

import functools
import hashlib
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import record_criterion
from metrics_io import cosine_similarity
from synth import speaker_key, speaker_utterance
from test_attack import small_instance
from test_metrics import brute_force_eer
from voicecloak.attack import AttackConfig, fgsm, ifgsm, loss_and_grad, protect_utterance
from voicecloak.audio_io import Waveform, add_gaussian_noise, write_wav
from voicecloak.cli import cli
from voicecloak.encoder import EncoderConfig, cosine_loss, forward, init_random
from voicecloak.metrics import compute_eer
from voicecloak.spectral import (
    LOG_FLOOR, WIN_LENGTH, log_mel, log_mel_backward, resynthesize, stft, stft_magnitude,
)


def _check(number, name, ok, detail):
    record_criterion(number, name, ok, detail)
    assert ok, f"criterion {number} {name}: {detail}"


def _embed(w, ws, mel):
    e, _ = forward(log_mel(stft(w).magnitude, mel), ws)
    return e


def test_criterion_01_gradient_matches_finite_differences(mel64):
    started = time.perf_counter()
    h = 1e-5
    worst = 0.0
    checked = 0
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        x = stft(speaker_utterance(i, 1, seconds=0.22)).magnitude
        ref = stft(speaker_utterance(i, 2, seconds=0.22)).magnitude
        ws = e_ref = None
        for attempt in range(50):  # reroll ReLU-dead weight draws
            candidate = init_random(EncoderConfig(), i + 10007 * attempt)
            e_x, _ = forward(log_mel(x, mel64), candidate)
            e_candidate, _ = forward(log_mel(ref, mel64), candidate)
            if min(np.linalg.norm(e_x), np.linalg.norm(e_candidate)) > 1e-3:
                ws, e_ref = candidate, e_candidate
                break
        assert ws is not None, f"no live encoder draw for instance {i}"
        _, grad_energy = loss_and_grad(x, mel64, ws, e_ref)
        grad = log_mel_backward(grad_energy, x, mel64, None, None)

        def evaluate(mag, ws=ws, e_ref=e_ref):
            """Loss plus the piecewise-linearity pattern at this point."""
            feat = log_mel(mag, mel64)
            embedding, cache = forward(feat, ws)
            floored = (feat == np.log(LOG_FLOOR)).tobytes()
            relu = tuple((z > 0.0).tobytes() for z in cache.pre_acts)
            return cosine_loss(e_ref, embedding), (floored, *relu)

        _, base_pattern = evaluate(x)
        floor = 1e-3 * np.max(np.abs(grad))
        # A step of h across log-compressed energies is only locally linear
        # when the entry dwarfs h; smaller entries put the stencil in a
        # regime where central differences no longer estimate the slope.
        eligible = np.flatnonzero(x.ravel() >= 600 * h)
        top = list(eligible[np.argsort(np.abs(grad).ravel()[eligible])[-6:]])
        sampled = list(rng.permutation(eligible)[:24])
        probes = 0
        for flat_idx in dict.fromkeys(top + sampled):
            if probes >= 12:
                break
            r, c = np.unravel_index(flat_idx, x.shape)
            up, down = x.copy(), x.copy()
            up[r, c] += h
            down[r, c] -= h
            loss_up, pattern_up = evaluate(up)
            loss_down, pattern_down = evaluate(down)
            if not (pattern_up == base_pattern == pattern_down):
                continue  # a kink or the log floor sits inside the stencil
            fd = (loss_up - loss_down) / (2 * h)
            rel = abs(fd - grad[r, c]) / max(abs(fd), abs(grad[r, c]), floor)
            worst = max(worst, rel)
            probes += 1
        assert probes >= 8, f"instance {i}: only {probes} differentiable probes"
        checked += probes
    elapsed = time.perf_counter() - started
    _check(
        1, "analytic gradient vs central differences",
        worst < 1e-4 and elapsed < 60.0,
        f"max rel err {worst:.2e} over {checked} probes / 20 instances in {elapsed:.1f}s",
    )


def test_criterion_02_perturbation_budget_never_violated():
    rng = np.random.default_rng(0)
    worst_excess = -np.inf
    most_negative = np.inf
    for i in range(100):
        frames = int(rng.integers(4, 11))
        x, ws, e_ref = small_instance(i, frames=frames)
        epsilon = float(rng.uniform(1e-3, 0.05))
        iterations = int(rng.integers(0, 6))
        alpha = epsilon if iterations <= 1 else float(
            rng.uniform(0.2, 1.0)) * epsilon / iterations
        cfg = AttackConfig(epsilon=epsilon, alpha=alpha, iterations=iterations)
        result = ifgsm(x, ws, e_ref, cfg)
        worst_excess = max(worst_excess, float(np.max(np.abs(result.adv_magnitude - x)) - epsilon))
        most_negative = min(most_negative, float(np.min(result.adv_magnitude)))
    _check(
        2, "attack stays inside the budget band and nonnegative",
        worst_excess <= 1e-12 and most_negative >= 0.0,
        f"max excess {worst_excess:.2e}, min entry {most_negative:.2e} over 100 runs",
    )


def test_criterion_03_single_iteration_schedule_degenerates_to_one_shot():
    rng = np.random.default_rng(1)
    identical = 0
    for i in range(25):
        x, ws, e_ref = small_instance(600 + i)
        epsilon = float(rng.uniform(5e-3, 0.03))
        a = ifgsm(x, ws, e_ref, AttackConfig(epsilon=epsilon, alpha=epsilon, iterations=1))
        b = fgsm(x, ws, e_ref, epsilon=epsilon)
        if np.array_equal(a.adv_magnitude, b.adv_magnitude) and (
            a.loss_trajectory == b.loss_trajectory
        ):
            identical += 1
    _check(
        3, "one-iteration schedule equals the one-shot attack bitwise",
        identical == 25,
        f"{identical}/25 instances bit-identical",
    )


def test_criterion_04_analysis_synthesis_round_trip():
    rng = np.random.default_rng(2)
    worst = np.inf
    for _ in range(10):
        n = int(rng.integers(16000, 48001))
        x = rng.standard_normal(n) * 0.1
        w = Waveform(x, 16000)
        y = resynthesize(w, stft_magnitude(w)).samples
        interior = slice(WIN_LENGTH, n - WIN_LENGTH)
        err = y[interior] - x[interior]
        snr = 10.0 * np.log10(np.sum(x[interior] ** 2) / np.sum(err**2))
        worst = min(worst, snr)
    _check(
        4, "interior reconstruction through analysis and synthesis",
        worst > 60.0,
        f"worst interior SNR {worst:.0f} dB over 10 random 1-3 s signals",
    )


@pytest.fixture(scope="module")
def protected_utterance(default_weights):
    """protect_utterance of one corpus utterance at the criteria's settings,
    keyed by (speaker, utterance, method) and computed once for the module:
    criterion 06 reuses the ifgsm results criterion 05, run before it, times."""

    @functools.cache
    def protect(spk, utt, method):
        return protect_utterance(speaker_utterance(spk, utt), default_weights, AttackConfig(),
                                 method=method, target_snr_db=32.0, seed=5)

    return protect


def test_criterion_05_method_ordering_at_desk_scale(protected_utterance):
    started = time.perf_counter()
    means = {}
    for method in ("gaussian", "fgsm", "ifgsm"):
        deltas = []
        for spk in range(20):
            _, report = protected_utterance(spk, 0, method)
            deltas.append(report.delta_cosd)
        means[method] = float(np.mean(deltas))
    elapsed = time.perf_counter() - started
    gap = means["ifgsm"] - means["gaussian"]
    ok = (
        means["gaussian"] < means["fgsm"] < means["ifgsm"]
        and gap >= 0.3
        and elapsed < 300.0
    )
    _check(
        5, "embedding distance ordering gaussian < fgsm < ifgsm",
        ok,
        f"gaussian {means['gaussian']:+.3f}, fgsm {means['fgsm']:+.3f},"
        f" ifgsm {means['ifgsm']:+.3f}, gap {gap:+.3f}, {elapsed:.0f}s",
    )


def test_criterion_06_protection_shifts_the_operating_point(
    default_weights, mel64, protected_utterance
):
    clean, protected = {}, {}
    for spk in range(10):
        for utt in range(5):
            key = (spk, utt)
            clean[key] = _embed(speaker_utterance(spk, utt), default_weights, mel64)
            pw, _ = protected_utterance(spk, utt, "ifgsm")
            protected[key] = _embed(pw, default_weights, mel64)

    def eer_against(test_side):
        target, nontarget = [], []
        keys = sorted(clean)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                score = cosine_similarity(clean[a], test_side[b])
                (target if a[0] == b[0] else nontarget).append(score)
        rng = np.random.default_rng(99)
        nontarget = list(rng.choice(nontarget, size=len(target), replace=False))
        return compute_eer(target, nontarget)[0]

    eer_clean = eer_against(clean)
    eer_protected = eer_against(protected)
    shift = eer_protected - eer_clean
    _check(
        6, "verification error rises by 15 points under protection",
        shift >= 0.15,
        f"clean EER {eer_clean:.3f}, protected EER {eer_protected:.3f}, shift {shift:+.3f}",
    )


def test_criterion_07_eer_equals_the_brute_force_sweep():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n_t = int(rng.integers(1, 51))
        n_n = int(rng.integers(1, 51))
        target = rng.normal(rng.uniform(-0.5, 1.5), 1.0, n_t)
        nontarget = rng.normal(0.0, 1.0, n_n)
        if rng.uniform() < 0.25:
            take = min(n_t, n_n)
            nontarget[:take] = target[:take]
        got, _ = compute_eer(target, nontarget)
        worst = max(worst, abs(got - brute_force_eer(target, nontarget)))
    _check(
        7, "equal error rate matches the exhaustive threshold sweep",
        worst < 1e-12,
        f"max |difference| {worst:.2e} over 100 random score sets",
    )


def test_criterion_08_noise_injection_hits_the_requested_level():
    w = speaker_utterance(4, 0, seconds=1.0)
    worst = 0.0
    for target in np.arange(0.0, 60.1, 7.5):
        noisy = add_gaussian_noise(w, float(target), seed=11)
        err = noisy.samples - w.samples
        realized = 10.0 * np.log10(np.sum(w.samples**2) / np.sum(err**2))
        worst = max(worst, abs(realized - target))
    _check(
        8, "gaussian baseline realizes its target level",
        worst < 0.01,
        f"max |realized - requested| {worst:.2e} dB across 0-60 dB",
    )


def test_criterion_09_default_attack_is_fast_enough(default_weights):
    w = speaker_utterance(3, 0, seconds=3.0)
    started = time.perf_counter()
    protect_utterance(w, default_weights, AttackConfig(), "ifgsm", 32.0, 0)
    elapsed = time.perf_counter() - started
    _check(
        9, "fifty iterations on three seconds of audio in under ten",
        elapsed < 10.0,
        f"{elapsed:.2f}s elapsed",
    )


def test_criterion_10_recorded_runs_reproduce_bitwise(tmp_path):
    runner = CliRunner()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for spk in range(3):
        write_wav(corpus / f"{speaker_key(spk, 0)}.wav", speaker_utterance(spk, 0, seconds=0.5))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"conv_channels": [2, 2], "pool_after": [0], "embed_dim": 16}))
    weights = tmp_path / "weights.bin"
    result = runner.invoke(
        cli, ["init-encoder", "--config", str(config), "--seed", "3", "--out", str(weights)]
    )
    assert result.exit_code == 0, result.output + result.stderr

    out = tmp_path / "protected"
    args = [
        "protect", str(corpus), "--weights", str(weights), "--out", str(out),
        "--iterations", "5", "--alpha", "0.004", "--seed", "11",
    ]
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output + result.stderr
    wavs = sorted(out.glob("*.wav"))
    first = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in wavs}
    for p in wavs:
        p.unlink()

    result = runner.invoke(cli, ["rerun", str(out / "manifest.json")])
    assert result.exit_code == 0, result.output + result.stderr
    second = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.wav"))}
    _check(
        10, "rerun from the manifest reproduces identical audio",
        first == second and len(first) == 3,
        f"{len(first)} protected files, digests {'match' if first == second else 'differ'}",
    )
