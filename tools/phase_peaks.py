"""Traced memory peak inside each phase of one protected file.

Usage, from the root of a checkout:

  python3 tools/phase_peaks.py SRC SECONDS

SRC is a directory holding a `voicecloak` package, such as the `src/` of a
checkout. The script writes SECONDS of the benchmark's synthetic speech
(`bench/corpus.py`, seed SEED, speaker 3, utterance 0) to a PCM16 WAV and
makes random default weights before tracing starts. The traced call does
what `protect` does with one file: it passes `read_wav` of that file
straight to `protect_utterance`, keeping no reference, so the input is
held as its int16 samples through the attack; runs `ifgsm` for ITERATIONS
steps (every step peaks alike); and writes the result with `write_wav`.
So everything a protected file makes and holds is counted: its samples,
the clean magnitude, the iterate, and each phase's own arrays.

A phase is one of the functions in PHASES, called through the name that
`voicecloak.attack` binds (`read_wav` and `write_wav` are called by this
script). For each, it prints the highest `tracemalloc` peak reached inside
any of its calls, in MiB, nested calls included: `embed` holds a `forward`, and `forward`
and `backward` count the attack step's passes and `embed`'s. A warm-up
call runs first, so caches (the filterbank) are not charged. Nothing is
written outside a temporary directory.
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 13
ITERATIONS = 2
# (phase, name bound in voicecloak.attack or, for the WAV edges, audio_io), in the
# order a protected file meets them
PHASES = (
    ("read_wav", "read_wav"), ("analysis", "stft_magnitude"), ("embed", "embed"),
    ("mel_energies", "mel_energies"), ("forward", "forward"), ("backward", "backward"),
    ("sign step", "_sign_step"), ("resynthesize", "resynthesize"), ("snr_db", "snr_db"),
    ("write_wav", "write_wav"),
)


class PhaseWatch:
    """Wraps functions so that each records the traced peak inside its calls.

    `tracemalloc` keeps one peak; a call resets it on entry and on exit, and
    `open` carries, per call still running, the highest peak seen inside it
    before the latest reset, so a nested call hides nothing from its caller.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self.open: list[int] = []

    def wrap(self, phase: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._enter()
            try:
                return func(*args, **kwargs)
            finally:
                self._leave(phase)

        return traced

    def _enter(self) -> None:
        if self.open:
            self.open[-1] = max(self.open[-1], tracemalloc.get_traced_memory()[1])
        self.open.append(0)
        tracemalloc.reset_peak()

    def _leave(self, phase: str) -> None:
        inside = max(self.open.pop(), tracemalloc.get_traced_memory()[1])
        self.peaks[phase] = max(self.peaks.get(phase, 0), inside)
        if self.open:
            self.open[-1] = max(self.open[-1], inside)
        tracemalloc.reset_peak()


def phase_peaks(seconds: float) -> dict[str, float]:
    """MiB per phase of one protected file of `seconds` (see the module docstring)."""
    sys.path.insert(0, str(BENCH))
    import corpus
    from voicecloak import attack, audio_io, encoder

    ws = encoder.init_random(encoder.EncoderConfig(), 42)
    cfg = attack.AttackConfig(iterations=ITERATIONS)
    watch = PhaseWatch()
    for phase, name in PHASES:
        if name not in ("read_wav", "write_wav"):
            setattr(attack, name, watch.wrap(phase, getattr(attack, name)))
    read_wav = watch.wrap("read_wav", audio_io.read_wav)
    write_wav = watch.wrap("write_wav", audio_io.write_wav)
    with tempfile.TemporaryDirectory() as tmp:
        clean, out = Path(tmp) / "in.wav", Path(tmp) / "out.wav"
        audio_io.write_wav(clean, audio_io.Waveform(corpus.utterance(SEED, 3, 0, seconds),
                                                    audio_io.CANONICAL_RATE))

        def protect_file():  # keeps no reference to the input, as `protect` does
            write_wav(out, attack.protect_utterance(read_wav(clean), ws, cfg, "ifgsm", 32.0, 0)[0])

        protect_file()  # warm-up
        watch.peaks.clear()
        tracemalloc.start()
        try:
            protect_file()
        finally:
            tracemalloc.stop()
    return {phase: round(watch.peaks[phase] / 2**20, 2) for phase, _ in PHASES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the voicecloak package")
    parser.add_argument("seconds", type=float, help="length of the protected file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    peaks = phase_peaks(args.seconds)
    print(f"tracemalloc peak (MiB) inside each phase, ifgsm x{ITERATIONS}, {args.seconds:g} s:")
    for phase, mib in peaks.items():
        print(f"  {phase:<13} {mib:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
