"""The byte ledger: every file of a small chain of commands, digested and
compared with the lines checked in as `byte_ledger.txt`.

The chain runs in a temporary directory: `init-encoder` at its defaults;
`protect` with each method on three 1 s synthetic clips (`synth.py`);
`embed` of the clean clips and of each protected set; `eval` and `simmat`
of the clean archive against the ifgsm one; and `dump-spec` of one
protected file. `tools/output_digests.py`'s `directory_digests` hashes
every input, output and manifest per directory and suffix, with the
directory's path replaced, so the lines do not depend on where it ran.

A change that moves output bytes on purpose writes the ledger again in the
same change, and says which lines moved and why:

  PYTHONPATH=src python3 tests/test_byte_ledger.py > tests/byte_ledger.txt

The float bits of reports, archives and protected WAVs can differ under
another NumPy or BLAS build, and under another of the kernels OpenBLAS
picks at load time for the CPU it runs on. The ledger's first lines record
the build and the kernel that wrote it, and a mismatch names both, so such
a mismatch reads as one.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from synth import speaker_key, speaker_utterance
from voicecloak.attack import METHODS
from voicecloak.audio_io import write_wav
from voicecloak.cli import _openblas_corename, cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)

LEDGER = Path(__file__).with_name("byte_ledger.txt")
CLIPS = [(0, 0), (0, 1), (1, 0)]  # (speaker, utterance), 1 s each
TRIALS = [((0, 0), (0, 1), "target"), ((0, 1), (0, 0), "target"),
          ((0, 0), (1, 0), "nontarget"), ((1, 0), (0, 1), "nontarget")]


def build_lines() -> list[str]:
    """The NumPy version, BLAS build and runtime BLAS kernel of this process,
    as ledger lines."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return [f"# numpy {np.__version__}", f"# blas {build}", f"# kernel {_openblas_corename()}"]


def run_chain(root: Path) -> None:
    """Write the clips and run every command of the chain under root."""
    runner = CliRunner()

    def invoke(*args) -> None:
        result = runner.invoke(cli, [str(a) for a in args])
        if result.exit_code != 0:
            raise RuntimeError(f"voicecloak {args[0]} exited {result.exit_code}: {result.output}")

    (root / "clean").mkdir()
    for spk, utt in CLIPS:
        write_wav(root / "clean" / f"{speaker_key(spk, utt)}.wav",
                  speaker_utterance(spk, utt, seconds=1.0))
    (root / "config.json").write_text("{}\n", encoding="utf-8")
    (root / "trials.txt").write_text(
        "".join(f"{speaker_key(*e)} {speaker_key(*t)} {label}\n" for e, t, label in TRIALS),
        encoding="utf-8")
    weights = root / "weights.bin"
    invoke("init-encoder", "--config", root / "config.json", "--out", weights)
    invoke("embed", root / "clean", "--weights", weights, "--out", root / "clean.emb")
    for method in METHODS:
        invoke("protect", root / "clean", "--weights", weights, "--out", root / method,
               "--method", method, "--jobs", 1)
        invoke("embed", root / method, "--weights", weights, "--out", root / f"{method}.emb")
    invoke("eval", "--trials", root / "trials.txt", "--enroll", root / "clean.emb",
           "--test", root / "ifgsm.emb", "--out", root / "eval")
    invoke("simmat", "--rows", root / "clean.emb", "--cols", root / "ifgsm.emb",
           "--out", root / "sim.csv")
    invoke("dump-spec", root / "ifgsm" / f"{speaker_key(0, 0)}.wav", "--out", root / "mag.csv")


def ledger_lines(root: Path) -> list[str]:
    """The build lines, then one line per directory and suffix of root."""
    return build_lines() + [f"{directory} {suffix or '-'} {count} {digest}"
                            for directory, suffix, count, digest
                            in output_digests.directory_digests(root)]


def test_every_byte_of_the_chain_matches_the_ledger(tmp_path):
    run_chain(tmp_path)
    got = ledger_lines(tmp_path)
    expected = LEDGER.read_text(encoding="utf-8").splitlines()
    header = len(build_lines())
    moved = [line for line in got[header:] if line not in expected]
    assert got == expected, (
        f"{LEDGER.name} was written under {'; '.join(expected[:header])},"
        f" this run is under {'; '.join(got[:header])}; lines not in the ledger: {moved}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_chain(Path(tmp))
        sys.stdout.write("".join(f"{line}\n" for line in ledger_lines(Path(tmp))))
