"""Output checks made apart from the program.

Nothing here imports voicecloak. WAV files are parsed with the stdlib
`wave` module, embedding archives with a reader of the container layout
(one JSON header line, then a little-endian float64 blob), and embeddings
are recomputed by a reference encoder written with explicit loops. Each
check returns a list of faults; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import wave
from pathlib import Path

import numpy as np

RATE = 16000
PCM16_HALF_STEP = 0.5 / 32768
BUDGET_SLACK = 1e-12
REL_TOL_PRINTED = 1e-10  # scores and matrix cells are printed with 12 digits
REL_TOL_EMBEDDING = 1e-9


# ---------------------------------------------------------------- audio

def read_pcm16(path) -> np.ndarray:
    """Samples of a 16 kHz mono PCM16 file as float64; raises ValueError otherwise."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2 or fh.getframerate() != RATE:
            raise ValueError(
                f"{path}: {fh.getnchannels()} ch, {8 * fh.getsampwidth()} bit,"
                f" {fh.getframerate()} Hz; need mono PCM16 at {RATE} Hz"
            )
        if fh.getcomptype() != "NONE":
            raise ValueError(f"{path}: compressed ({fh.getcomptype()})")
        n = fh.getnframes()
        data = fh.readframes(n)
    if len(data) != 2 * n:
        raise ValueError(f"{path}: header declares {n} samples, data holds {len(data) // 2}")
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768


def check_wav(path, n_expected: int) -> list[str]:
    try:
        samples = read_pcm16(path)
    except (OSError, EOFError, wave.Error, ValueError) as exc:
        return [f"{path}: not a 16 kHz mono PCM16 WAV: {exc}"]
    if len(samples) != n_expected:
        return [f"{path}: {len(samples)} samples, input has {n_expected}"]
    return []


def snr_with_tolerance(clean: np.ndarray, protected: np.ndarray) -> tuple[float, float]:
    """SNR of the written file and the most PCM16 rounding can move it.

    The program measures SNR on the float output before rounding it to
    PCM16. Rounding adds an error q with |q| <= half a step per sample, so
    the float error norm lies within ||q|| of the norm measured here, and
    the two SNRs differ by at most 20*log10(e / (e - ||q||)).
    """
    error = float(np.sqrt(np.sum((clean - protected) ** 2)))
    q = PCM16_HALF_STEP * math.sqrt(len(clean))
    snr = 10.0 * math.log10(float(np.sum(clean**2)) / error**2)
    tol = 20.0 * math.log10(error / (error - q)) if error > q else math.inf
    return snr, tol


def check_snr(clean: np.ndarray, protected: np.ndarray, expected: float, name: str) -> list[str]:
    """The SNR of the two files is `expected` dB, within PCM16 rounding."""
    snr, tol = snr_with_tolerance(clean, protected)
    if not abs(expected - snr) <= tol:
        return [f"{name}: expected SNR {expected:.4f} dB, files give {snr:.4f} dB (tolerance {tol:.4f})"]
    return []


def check_attack(x: np.ndarray, adv: np.ndarray, trajectory, epsilon: float,
                 iterations: int, one_step: bool, name: str) -> list[str]:
    """Budget, sign of the output and trajectory length of a direct attack call.

    For the one-step attack every entry must move by -eps, 0 or +eps, or
    sit at the zero clamp.
    """
    faults = []
    excess = float(np.max(np.abs(adv - x))) - epsilon
    if excess > BUDGET_SLACK:
        faults.append(f"{name}: |adv - x| exceeds epsilon by {excess:.3e}")
    if float(np.min(adv)) < 0.0:
        faults.append(f"{name}: negative magnitude {float(np.min(adv)):.3e}")
    if len(trajectory) != iterations + 1:
        faults.append(f"{name}: trajectory has {len(trajectory)} entries, expected {iterations + 1}")
    if one_step:
        step = adv - x
        on_grid = np.zeros(step.shape, dtype=bool)
        for target in (-epsilon, 0.0, epsilon):
            on_grid |= np.abs(step - target) <= BUDGET_SLACK
        on_grid |= (adv == 0.0) & (x - epsilon < 0.0)
        if not on_grid.all():
            faults.append(f"{name}: {int((~on_grid).sum())} entries moved by neither -eps, 0 nor +eps")
    return faults


# -------------------------------------------------------------- digests

def digests(*directories) -> dict[str, str]:
    out = {}
    for directory in directories:
        for path in sorted(Path(directory).rglob("*")):
            if path.is_file():
                out[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_identical(first: dict[str, str], later: dict[str, str]) -> list[str]:
    if first == later:
        return []
    changed = sorted(k for k in set(first) | set(later) if first.get(k) != later.get(k))
    return [f"output differs from the first pass: {changed[:5]}"]


# ----------------------------------------------------- embedding archives

def read_archive(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    sep = raw.index(b"\n")
    header = json.loads(raw[:sep])
    blob = np.frombuffer(raw[sep + 1:], dtype="<f8")
    out = {}
    for entry in header["tensors"]:
        size = int(np.prod(entry["shape"], dtype=np.int64))
        out[entry["name"]] = blob[entry["offset"]: entry["offset"] + size].reshape(entry["shape"])
    return out


def stft_magnitude(samples: np.ndarray, win: int = 400, hop: int = 160, fft: int = 512) -> np.ndarray:
    """|STFT|, frame by frame: centre reflect padding, periodic Hann of
    `win` samples zero-padded centrally to `fft`; [frames x bins]."""
    window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * n / win) for n in range(win)])
    padded = np.pad(samples, (win // 2, win // 2), mode="reflect")
    rows = []
    for k in range(len(samples) // hop + 1):
        frame = np.zeros(fft)
        frame[(fft - win) // 2: (fft - win) // 2 + win] = padded[k * hop: k * hop + win] * window
        rows.append(np.abs(np.fft.rfft(frame)))
    return np.array(rows)


def _mel_filters(n_mels: int, fft_size: int = 512) -> np.ndarray:
    top = 2595.0 * math.log10(1.0 + (RATE / 2) / 700.0)
    hz = [700.0 * (10.0 ** (top * i / (n_mels + 1) / 2595.0) - 1.0) for i in range(n_mels + 2)]
    n_bins = fft_size // 2 + 1
    filters = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = hz[m], hz[m + 1], hz[m + 2]
        for b in range(n_bins):
            f = b * RATE / fft_size
            filters[m, b] = max(0.0, min((f - lo) / (mid - lo), (hi - f) / (hi - mid)))
    return filters


class ReferenceEncoder:
    """The encoder's forward pass from its file, written out loop by loop.

    STFT: centre reflect padding, 400-sample periodic Hann zero-padded to
    512, hop 160. Features: log(max(|X|^2 . mel^T, 1e-10)) with 64 HTK
    filters. Convs: 3x3, circular in time, zero-padded in frequency, ReLU,
    2x2 mean pooling where configured; then per-band temporal mean and
    standard deviation and the linear map.
    """

    def __init__(self, weights_path):
        raw = Path(weights_path).read_bytes()
        self.config = json.loads(raw[: raw.index(b"\n")])["meta"]["config"]
        self.tensors = read_archive(weights_path)
        self.mel = _mel_filters(self.config["n_mels"])

    def features(self, samples: np.ndarray) -> np.ndarray:
        energies = (stft_magnitude(samples) ** 2) @ self.mel.T
        return np.log(np.maximum(energies, 1e-10))

    def embed(self, samples: np.ndarray) -> np.ndarray:
        a = self.features(samples)[None]
        for i in range(len(self.config["conv_channels"])):
            kernel = self.tensors[f"conv{i}.kernel"]
            bias = self.tensors[f"conv{i}.bias"]
            c_out, c_in = kernel.shape[:2]
            t, f = a.shape[1:]
            z = np.zeros((c_out, t, f))
            for o in range(c_out):
                z[o] += bias[o]
                for c in range(c_in):
                    for dt in range(3):
                        shifted_t = np.roll(a[c], 1 - dt, axis=0)  # circular in time
                        for df in range(3):
                            shifted = np.zeros((t, f))
                            lo, hi = max(0, 1 - df), min(f, f + 1 - df)
                            shifted[:, lo:hi] = shifted_t[:, lo + df - 1: hi + df - 1]
                            z[o] += kernel[o, c, dt, df] * shifted
            a = np.maximum(z, 0.0)
            if i in self.config["pool_after"]:
                t2, f2 = a.shape[1] // 2, a.shape[2] // 2
                pooled = np.zeros((c_out, t2, f2))
                for dt in range(2):
                    for df in range(2):
                        pooled += a[:, dt: 2 * t2: 2, df: 2 * f2: 2]
                a = pooled / 4.0
        mean = a.mean(axis=1)
        std = np.sqrt(((a - mean[:, None, :]) ** 2).mean(axis=1))
        stats = np.concatenate([mean.ravel(), std.ravel()])
        return self.tensors["embed.weight"] @ stats + self.tensors["embed.bias"]


def check_embeddings(archive: dict[str, np.ndarray], wavs: dict[str, Path],
                     encoder: ReferenceEncoder, name: str) -> list[str]:
    faults = []
    for key, path in wavs.items():
        if key not in archive:
            faults.append(f"{name}: key {key} missing")
            continue
        expected = encoder.embed(read_pcm16(path))
        err = float(np.max(np.abs(archive[key] - expected)) / np.max(np.abs(expected)))
        if not err <= REL_TOL_EMBEDDING:
            faults.append(f"{name}: {key} differs from the reference encoder by {err:.2e} relative")
    return faults


# ------------------------------------------------------------- scoring

def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL_PRINTED * max(1.0, abs(want))


def check_scores(scores_path, trials: list[tuple[str, str, str]],
                 enroll: dict[str, np.ndarray], test: dict[str, np.ndarray]) -> list[str]:
    lines = Path(scores_path).read_text(encoding="utf-8").splitlines()
    if len(lines) != len(trials):
        return [f"{scores_path}: {len(lines)} scores for {len(trials)} trials"]
    for lineno, (line, (e, t, label)) in enumerate(zip(lines, trials), start=1):
        fields = line.split()
        if fields[:3] != [e, t, label]:
            return [f"{scores_path}:{lineno}: trial {fields[:3]}, expected {[e, t, label]}"]
        want = cosine(enroll[e], test[t])
        if not _close(float(fields[3]), want):
            return [f"{scores_path}:{lineno}: score {fields[3]}, cosine is {want:.12g}"]
    return []


def sweep_eer(target: np.ndarray, nontarget: np.ndarray) -> float:
    """EER by visiting every threshold a score takes, plus one past the top.

    FAR(t) = share of nontargets >= t, FRR(t) = share of targets < t;
    the crossing is interpolated between the two thresholds that bracket
    the sign change of FAR - FRR.
    """
    target, nontarget = np.sort(target), np.sort(nontarget)
    thresholds = np.unique(np.concatenate([target, nontarget]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = (len(nontarget) - np.searchsorted(nontarget, thresholds, side="left")) / len(nontarget)
    frr = np.searchsorted(target, thresholds, side="left") / len(target)
    diff = far - frr
    k = int(np.flatnonzero(diff <= 0.0)[0])
    if k == 0:
        return float(far[0])
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    return float(far[k - 1] + t * (far[k] - far[k - 1]))


def check_eer(eer_path, trials, enroll, test) -> tuple[list[str], float]:
    summary = json.loads(Path(eer_path).read_text(encoding="utf-8"))
    scores = np.array([cosine(enroll[e], test[t]) for e, t, _ in trials])
    is_target = np.array([label == "target" for _, _, label in trials])
    eer = sweep_eer(scores[is_target], scores[~is_target])
    faults = []
    if not abs(summary["eer"] - eer) <= 1e-9:
        faults.append(f"{eer_path}: EER {summary['eer']!r}, threshold sweep gives {eer!r}")
    if (summary["n_target"], summary["n_nontarget"]) != (int(is_target.sum()), int((~is_target).sum())):
        faults.append(f"{eer_path}: trial counts {summary['n_target']}/{summary['n_nontarget']}")
    return faults, eer


def speaker_means(archive: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    groups: dict[str, list[np.ndarray]] = {}
    for key, vec in archive.items():
        groups.setdefault(key.split("-", 1)[0], []).append(vec)
    return {spk: np.mean(vecs, axis=0) for spk, vecs in groups.items()}


def check_simmat(csv_path, rows: dict[str, np.ndarray], cols: dict[str, np.ndarray],
                 speaker_level: bool) -> list[str]:
    if speaker_level:
        rows, cols = speaker_means(rows), speaker_means(cols)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if records[0][1:] != sorted(cols) or [r[0] for r in records[1:]] != sorted(rows):
        return [f"{csv_path}: row or column keys are not the sorted archive keys"]
    for record in records[1:]:
        for ck, cell in zip(records[0][1:], record[1:]):
            want = cosine(rows[record[0]], cols[ck])
            if not _close(float(cell), want):
                return [f"{csv_path}: cell ({record[0]}, {ck}) is {cell}, cosine is {want:.12g}"]
    return []


def check_protection(clean_eer: float, protected_eer: float) -> list[str]:
    if protected_eer > clean_eer:
        return []
    return [f"protected EER {protected_eer:.4f} does not exceed clean EER {clean_eer:.4f}"]
