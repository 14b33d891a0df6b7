"""The benchmark calls the library by name and signature; both must still work.

`bench/tracing.py`, `bench/workloads.py` and `bench/test_checks.py` are
parsed, not imported, so the checks run without the benchmark's own
dependencies and write nothing under `bench/`. Their `cli.run_*` calls are
bound to the commands' signatures, and the direct attack calls are made
here the way those files make them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from synth import speaker_utterance
from voicecloak import attack, cli, encoder, spectral
from voicecloak.audio_io import Waveform

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no LAYERS")


def test_every_traced_layer_is_a_voicecloak_callable():
    layers = _layers()
    assert layers
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"voicecloak.{module}"), name, None))
    ]
    assert missing == []


def _cli_calls(path: Path) -> list[tuple[str, int, list]]:
    """(name, positional count, keyword names) of each `cli.<name>(...)` call in a file."""
    return [
        (node.func.attr, len(node.args), [k.arg for k in node.keywords])
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "cli"
    ]


def test_every_cli_attribute_the_tracer_reads_exists():
    """`Tracer.install` swaps names on `voicecloak.cli`; one that is gone
    would break every `bench/run.py --trace 1` run."""
    read = {
        node.attr
        for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert read
    assert sorted(name for name in read if not hasattr(cli, name)) == []


@pytest.mark.parametrize("name", ["workloads.py", "test_checks.py"])
def test_the_benchmarks_cli_calls_bind_to_the_run_signatures(name):
    calls = _cli_calls(BENCH / name)
    assert calls
    for function, n_positional, keywords in calls:
        inspect.signature(getattr(cli, function)).bind(
            *range(n_positional), **dict.fromkeys(keywords)
        )


def test_the_benchmarks_direct_attack_calls_still_work():
    ws = encoder.init_random(encoder.EncoderConfig(), 42)
    samples = speaker_utterance(0, 0, seconds=0.5).samples
    mel = spectral.mel_matrix()
    x = spectral.stft(Waveform(samples, 16000)).magnitude
    e_ref, _ = encoder.forward(spectral.log_mel(x, mel), ws)
    one = attack.fgsm(x, ws, e_ref, 0.02)
    many = attack.ifgsm(x, ws, e_ref)
    assert x.shape == (51, 257)
    assert len(one.loss_trajectory) == 2
    assert len(many.loss_trajectory) == 51
    for result in (one, many):
        assert result.adv_magnitude.shape == x.shape
        assert np.max(np.abs(result.adv_magnitude - x)) <= 0.02 * (1 + 1e-12)
