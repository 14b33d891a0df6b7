import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from metrics_io import read_similarity_csv
from synth import speaker_key, speaker_utterance
import voicecloak
from voicecloak import tensorfile
from voicecloak.audio_io import WavFormatError, read_wav, write_wav
from voicecloak.cli import cli
from voicecloak.encoder import EncoderConfig, init_random, load_weights, save_weights
from voicecloak.metrics import score_trials
from voicecloak.spectral import stft

SMALL_CONFIG = {
    "conv_channels": [2, 2],
    "pool_after": [0],
    "embed_dim": 16,
    "n_mels": 16,
    "min_frames": 2,
}


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for spk in range(2):
        for utt in range(2):
            w = speaker_utterance(spk, utt, seconds=0.4)
            write_wav(root / f"{speaker_key(spk, utt)}.wav", w)
    return root


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory, runner):
    root = tmp_path_factory.mktemp("encoder")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    out = root / "weights.bin"
    result = runner.invoke(
        cli, ["init-encoder", "--config", str(config), "--seed", "3", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestInitEncoder:
    def test_writes_loadable_weights_with_overrides(self, weights_file):
        ws = load_weights(weights_file)
        assert ws.config.conv_channels == (2, 2)
        assert ws.config.embed_dim == 16
        assert (weights_file.parent / "weights.bin.manifest.json").exists()

    def test_partial_config_keeps_remaining_defaults(self, runner, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"embed_dim": 32}))
        out = tmp_path / "w.bin"
        result = runner.invoke(
            cli, ["init-encoder", "--config", str(config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        ws = load_weights(out)
        assert ws.config.embed_dim == 32
        assert ws.config.conv_channels == (2, 4)

    def test_missing_config_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["init-encoder", "--out", str(tmp_path / "w.bin")])
        assert result.exit_code == 2

    def test_invalid_config_fails_cleanly(self, runner, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"embed_dim": 1}))
        result = runner.invoke(
            cli, ["init-encoder", "--config", str(config), "--out", str(tmp_path / "w.bin")]
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr


    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param({"conv_chanels": [8, 8]}, "'conv_chanels'", id="misspelt-key"),
            pytest.param({"embed_dim": 32, "seed": 1}, "'seed'", id="key-beside-known-ones"),
            pytest.param([["embed_dim", 32]], "JSON object", id="list"),
            pytest.param({"embed_dim": 16.7}, "error: embed_dim must be an integer, got 16.7",
                         id="float"),
            pytest.param({"embed_dim": True}, "error: embed_dim must be an integer, got True",
                         id="bool"),
            pytest.param({"conv_channels": [2.9, 4]}, "error: conv_channels must be a list",
                         id="float-in-list"),
            pytest.param({"conv_channels": 5}, "error: conv_channels must be a list",
                         id="number-for-list"),
            pytest.param({"pool_after": None}, "error: pool_after must be a list", id="null"),
        ],
    )
    def test_rejects_unknown_keys_and_non_objects(self, runner, tmp_path, config, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "w.bin"
        result = runner.invoke(cli, ["init-encoder", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert message in result.stderr
        assert list(tmp_path.iterdir()) == [path]


class TestProtect:
    def test_batch_writes_wav_report_and_manifest(self, runner, corpus, weights_file, tmp_path):
        out = tmp_path / "protected"
        result = runner.invoke(
            cli,
            ["protect", str(corpus), "--weights", str(weights_file), "--out", str(out),
             "--iterations", "4", "--alpha", "0.005", "--seed", "7"],
        )
        assert result.exit_code == 0, result.output + result.stderr
        for spk in range(2):
            for utt in range(2):
                key = speaker_key(spk, utt)
                protected = read_wav(out / f"{key}.wav")
                original = read_wav(corpus / f"{key}.wav")
                assert protected.sample_rate == 16000
                assert len(protected) == len(original)
                assert not np.array_equal(protected.samples, original.samples)
                report = json.loads((out / f"{key}.json").read_text())
                assert report["key"] == key
                assert report["method"] == "ifgsm"
                assert len(report["loss_trajectory"]) == 5
                assert -1.0 <= report["delta_cosd"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "protect"
        assert manifest["params"]["iterations"] == 4

    def test_single_file_input(self, runner, corpus, weights_file, tmp_path):
        out = tmp_path / "one"
        wav = corpus / f"{speaker_key(0, 0)}.wav"
        result = runner.invoke(
            cli,
            ["protect", str(wav), "--weights", str(weights_file), "--out", str(out),
             "--method", "gaussian", "--target-snr", "20"],
        )
        assert result.exit_code == 0, result.output + result.stderr
        report = json.loads((out / f"{speaker_key(0, 0)}.json").read_text())
        assert report["method"] == "gaussian"
        assert report["snr_db"] == pytest.approx(20.0, abs=1e-6)

    def test_bad_file_reports_error_and_batch_continues(self, runner, weights_file, tmp_path):
        bad_dir = tmp_path / "mixed"
        bad_dir.mkdir()
        write_wav(bad_dir / "good.wav", speaker_utterance(0, 0, seconds=0.3))
        (bad_dir / "broken.wav").write_bytes(b"not audio at all")
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            ["protect", str(bad_dir), "--weights", str(weights_file), "--out", str(out),
             "--iterations", "2", "--alpha", "0.01"],
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "broken.wav" in result.stderr
        assert (out / "good.wav").exists()
        assert not (out / "broken.wav").exists()

    def test_dump_spectrograms_flag(self, runner, corpus, weights_file, tmp_path):
        # removed: `dump-spec <out>/<stem>.wav` dumps the file actually written
        out = tmp_path / "spec"
        wav = corpus / f"{speaker_key(0, 1)}.wav"
        result = runner.invoke(
            cli,
            ["protect", str(wav), "--weights", str(weights_file), "--out", str(out),
             "--iterations", "1", "--alpha", "0.02", "--dump-spectrograms"],
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_dump_spec_reads_the_delivered_file(self, runner, corpus, weights_file, tmp_path):
        out = tmp_path / "protected"
        key = speaker_key(0, 1)
        protect = ["protect", str(corpus / f"{key}.wav"), "--weights", str(weights_file),
                   "--out", str(out), "--iterations", "1", "--alpha", "0.02"]
        assert runner.invoke(cli, protect).exit_code == 0
        csv_path = tmp_path / "mag.csv"
        result = runner.invoke(cli, ["dump-spec", str(out / f"{key}.wav"), "--out", str(csv_path)])
        assert result.exit_code == 0, result.output + result.stderr
        dumped = np.loadtxt(csv_path, delimiter=",")
        assert dumped.shape == (41, 257)
        delivered = stft(read_wav(out / f"{key}.wav")).magnitude
        np.testing.assert_allclose(dumped, delivered, rtol=1e-8, atol=1e-12)

    def test_inconsistent_schedule_is_a_usage_error(self, runner, corpus, weights_file, tmp_path):
        result = runner.invoke(
            cli,
            ["protect", str(corpus), "--weights", str(weights_file),
             "--out", str(tmp_path / "x"), "--alpha", "0.05"],
        )
        assert result.exit_code == 2
        assert "alpha" in result.stderr

    def test_repeated_stem_is_rejected_before_any_file_is_read(self, runner, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        write_wav(src / "a.wav", speaker_utterance(0, 0, seconds=0.3))
        (src / "a.WAV").write_bytes(b"not audio at all")
        weights = tmp_path / "weights.bin"
        weights.write_bytes(b"not a weight file")
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["protect", str(src), "--weights", str(weights), "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "duplicate key 'a'" in result.stderr
        assert str(src / "a.wav") in result.stderr
        assert str(src / "a.WAV") in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("method", ["fgsm", "gaussian"])
    def test_single_step_methods_ignore_alpha(self, runner, corpus, weights_file, tmp_path, method):
        out = tmp_path / "out"
        key = speaker_key(1, 0)
        result = runner.invoke(
            cli,
            ["protect", str(corpus / f"{key}.wav"), "--weights", str(weights_file),
             "--out", str(out), "--method", method, "--epsilon", "0.0001"],
        )
        assert result.exit_code == 0, result.output + result.stderr
        report = json.loads((out / f"{key}.json").read_text())
        params = json.loads((out / "manifest.json").read_text())["params"]
        for recorded in (report, params):
            assert recorded["epsilon"] == 0.0001
            assert recorded["alpha"] == 0.0004
            assert recorded["iterations"] == 50

    @pytest.mark.parametrize(
        "options, field",
        [
            pytest.param(["--method", "fgsm", "--epsilon", "inf"], "epsilon", id="fgsm-inf"),
            pytest.param(["--method", "fgsm", "--epsilon", "nan"], "epsilon", id="fgsm-nan"),
            pytest.param(["--epsilon", "-inf"], "epsilon", id="ifgsm-minus-inf"),
            pytest.param(["--alpha", "nan"], "alpha", id="ifgsm-alpha-nan"),
            pytest.param(["--jobs", "0"], "--jobs", id="no-jobs"),
            pytest.param(["--jobs", "-1"], "--jobs", id="negative-jobs"),
            pytest.param(["--method", "gaussian", "--epsilon", "inf"], "epsilon",
                         id="gaussian-inf"),
            pytest.param(["--method", "gaussian", "--epsilon", "nan"], "epsilon",
                         id="gaussian-nan"),
            pytest.param(["--method", "gaussian", "--alpha", "-inf"], "alpha",
                         id="gaussian-alpha-minus-inf"),
            pytest.param(["--target-snr", "nan"], "target_snr", id="ifgsm-target-snr-nan"),
        ],
    )
    def test_nonsense_values_are_usage_errors(
        self, runner, corpus, weights_file, tmp_path, options, field
    ):
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["protect", str(corpus), "--weights", str(weights_file), "--out", str(out),
                  *options],
        )
        assert result.exit_code == 2
        assert field in result.stderr
        assert "protect" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("target, field", [("3000", "snr_db"), ("4000", "target_snr_db"),
                                               ("-4000", "target_snr_db")])
    def test_an_out_of_range_target_snr_fails_the_file_naming_the_field(
        self, runner, corpus, weights_file, tmp_path, target, field
    ):
        out = tmp_path / "out"
        key = speaker_key(0, 0)
        result = runner.invoke(
            cli, ["protect", str(corpus / f"{key}.wav"), "--weights", str(weights_file),
                  "--out", str(out), "--method", "gaussian", "--target-snr", target],
        )
        assert result.exit_code == 1
        assert f"{key}.wav: {field} " in result.stderr
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

        def not_json(constant):
            raise AssertionError(f"manifest holds {constant}")

        json.loads((out / "manifest.json").read_text(), parse_constant=not_json)

    def test_threads_writing_one_path_do_not_share_a_temp(self, tmp_path):
        path = tmp_path / "manifest.json"
        both_half_done = threading.Barrier(2, timeout=10)

        def write_slowly(text):
            def write(temp):
                temp.write_text(text[:2])
                both_half_done.wait()
                with open(temp, "a") as fh:
                    fh.write(text[2:])

            voicecloak.cli._write_atomically(path, write)

        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(write_slowly, text) for text in ("AAAA", "BBBB")]
            for future in futures:
                future.result(timeout=10)
        assert path.read_text() in ("AAAA", "BBBB")
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_unknown_option_is_a_usage_error(self, runner):
        result = runner.invoke(cli, ["protect", "--no-such-flag"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "param, value",
        [
            pytest.param("jobs", 0, id="no-jobs"),
            pytest.param("jobs", -1, id="negative-jobs"),
            pytest.param("method", "pgd", id="unknown-method"),
        ],
    )
    def test_rerun_checks_method_and_jobs_before_reading(
        self, runner, corpus, weights_file, tmp_path, param, value
    ):
        out = tmp_path / "out"
        params = {"inputs": str(corpus), "weights": str(weights_file), "out_dir": str(out),
                  param: value}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"command": "protect", "params": params}))
        result = runner.invoke(cli, ["rerun", str(manifest)])
        assert result.exit_code == 1
        assert f"{param} must be" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_a_failed_write_leaves_no_file(self, runner, corpus, weights_file, tmp_path,
                                           monkeypatch):
        def half_write(path, w):
            Path(path).write_bytes(b"RIFF")
            raise OSError("disk full")

        monkeypatch.setattr(voicecloak.cli, "write_wav", half_write)
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["protect", str(corpus), "--weights", str(weights_file), "--out", str(out),
                  "--method", "gaussian"],
        )
        assert result.exit_code == 1
        assert result.stderr.count("disk full") == 4
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_outputs_replace_old_ones_and_leave_no_temp(self, runner, corpus, weights_file,
                                                        tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        key = speaker_key(0, 0)
        (out / f"{key}.wav").write_bytes(b"stale")
        result = runner.invoke(
            cli, ["protect", str(corpus / f"{key}.wav"), "--weights", str(weights_file),
                  "--out", str(out), "--method", "gaussian"],
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{key}.json", f"{key}.wav", "manifest.json"])
        assert len(read_wav(out / f"{key}.wav")) == len(read_wav(corpus / f"{key}.wav"))


class _Crash(BaseException):
    """Escapes run_protect's per-file error handling, as an interrupt does."""


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    """Wait until a marker file exists; other processes can see it."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"{path.name} did not appear within {timeout} s")
        time.sleep(0.005)


@pytest.fixture
def blas(monkeypatch):
    """OpenBLAS (get, set) with no BLAS thread variable set, its count at the CPU count.

    The count in force before the test is restored after it.
    """
    threads = voicecloak.cli._openblas_threads()
    if threads is None:
        pytest.skip("NumPy loaded no OpenBLAS")
    for name in voicecloak.cli._BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    get, set_ = threads
    saved = get()
    set_(voicecloak.cli._usable_cpus())
    yield get
    set_(saved)


class TestProtectBlasThreads:
    def _counts_in_pool(self, monkeypatch, blas, log, crash=False):
        """Wrap protect_utterance to record the BLAS thread count in each pool task.

        A forked worker shares no memory with the test, so each count is
        appended to the file `log`; returns a function that reads them back.
        """
        original = voicecloak.cli.protect_utterance

        def recording(*args, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{blas()}\n")
            if crash:
                raise _Crash()
            return original(*args, **kwargs)

        monkeypatch.setattr(voicecloak.cli, "protect_utterance", recording)
        log.write_text("", encoding="ascii")
        return lambda: [int(n) for n in log.read_text(encoding="ascii").split()]

    @pytest.mark.parametrize("jobs", [None, 1, 2, 3])
    def test_a_batch_splits_the_cpus_between_workers(
        self, corpus, weights_file, tmp_path, monkeypatch, blas, jobs
    ):
        seen = self._counts_in_pool(monkeypatch, blas, tmp_path / "counts")
        before = blas()
        n_cpus = voicecloak.cli._usable_cpus()
        failures = voicecloak.cli.run_protect(str(corpus), str(weights_file),
                                              str(tmp_path / "out"), "gaussian", jobs=jobs)
        assert failures == 0
        workers = min(jobs or n_cpus, 4)
        assert seen() == [max(1, n_cpus // workers)] * 4
        assert blas() == before

    def test_one_file_keeps_every_cpu(self, corpus, weights_file, tmp_path, monkeypatch, blas):
        seen = self._counts_in_pool(monkeypatch, blas, tmp_path / "counts")
        before = blas()
        voicecloak.cli.run_protect(str(corpus / f"{speaker_key(0, 0)}.wav"), str(weights_file),
                                   str(tmp_path / "out"), "gaussian")
        assert seen() == [before]
        assert blas() == before

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_blas_variable_in_the_environment_is_left_alone(
        self, corpus, weights_file, tmp_path, monkeypatch, blas, name
    ):
        monkeypatch.setenv(name, "1")
        seen = self._counts_in_pool(monkeypatch, blas, tmp_path / "counts")
        before = blas()
        voicecloak.cli.run_protect(str(corpus), str(weights_file), str(tmp_path / "out"),
                                   "gaussian", jobs=2)
        assert seen() == [before] * 4

    def test_the_count_is_restored_when_the_batch_raises(
        self, corpus, weights_file, tmp_path, monkeypatch, blas
    ):
        self._counts_in_pool(monkeypatch, blas, tmp_path / "counts", crash=True)
        before = blas()
        out = tmp_path / "out"
        with pytest.raises(_Crash):
            voicecloak.cli.run_protect(str(corpus), str(weights_file), str(out), "gaussian")
        assert blas() == before
        assert list(out.iterdir()) == []

    def test_overlapping_batches_restore_the_count_from_before_the_first(
        self, corpus, weights_file, tmp_path, monkeypatch, blas
    ):
        # Batch a returns while batch b still runs: b keeps its own count until
        # it returns, and then the count from before a is back. The batches'
        # workers are other processes, so marker files order them.
        for name, spk in (("a", 0), ("b", 1)):
            (tmp_path / name).mkdir()
            for utt in range(2):
                shutil.copy(corpus / f"{speaker_key(spk, utt)}.wav", tmp_path / name)
        a_running, b_running, a_returned = (tmp_path / m for m in ("a-running", "b-running",
                                                                   "a-returned"))
        seen_by_b = tmp_path / "seen-by-b"
        original = voicecloak.cli._load_waveform_16k

        def ordered(path):
            if path.parent.name == "a":
                a_running.touch()
                _wait_for(b_running)
            else:
                b_running.touch()
                _wait_for(a_returned)
                with open(seen_by_b, "a", encoding="ascii") as fh:
                    fh.write(f"{blas()}\n")
            return original(path)

        monkeypatch.setattr(voicecloak.cli, "_load_waveform_16k", ordered)
        before = blas()
        b_count = max(1, voicecloak.cli._usable_cpus() // 2)

        def protect(name):
            return voicecloak.cli.run_protect(str(tmp_path / name), str(weights_file),
                                              str(tmp_path / f"out-{name}"), "gaussian", jobs=2)

        with ThreadPoolExecutor(2) as callers:
            a = callers.submit(protect, "a")
            _wait_for(a_running)
            b = callers.submit(protect, "b")
            assert a.result(timeout=60) == 0
            assert blas() == b_count
            a_returned.touch()
            assert b.result(timeout=60) == 0
        assert [int(n) for n in seen_by_b.read_text(encoding="ascii").split()] == [b_count] * 2
        assert blas() == before

    def test_many_overlapping_blocks_leave_the_count_as_they_found_it(self, blas):
        before = blas()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def enter_and_leave(n):
                for _ in range(200):
                    with voicecloak.cli._blas_threads(n):
                        pass

            with ThreadPoolExecutor(4) as pool:
                for future in [pool.submit(enter_and_leave, 1 + i % 2) for i in range(4)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert voicecloak.cli._blas_active == 0
        assert blas() == before

    def test_jobs_leave_the_bytes_alone(self, runner, blas, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        for spk in range(3):
            write_wav(src / f"{speaker_key(spk, 0)}.wav", speaker_utterance(spk, 0, seconds=1.0))
        weights = tmp_path / "weights.bin"
        save_weights(init_random(EncoderConfig(), 5), weights)
        out = tmp_path / "out"
        written = []
        for jobs in ("1", "2"):
            result = runner.invoke(cli, ["protect", str(src), "--weights", str(weights),
                                         "--out", str(out), "--jobs", jobs])
            assert result.exit_code == 0, result.output + result.stderr
            written.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
            shutil.rmtree(out)
        assert len(written[0]) == 6
        assert written[0] == written[1]


class TestProtectWorkerProcesses:
    """A batch with more than one worker runs them in forked processes. However
    its files end, it returns with the BLAS count restored, no worker process
    left and no visible partial output."""

    DOOMED = speaker_key(0, 1)  # the file whose worker crashes or dies
    TEST_PID = os.getpid()

    def _batch(self, corpus, weights_file, out):
        return voicecloak.cli.run_protect(str(corpus), str(weights_file), str(out), "gaussian",
                                          jobs=2)

    def _is_doomed(self, file_seed):
        return file_seed == voicecloak.cli._file_seed(0, self.DOOMED)

    def _die(self):
        """End this worker process at once. In the test's own process raise
        instead, so a batch that runs its files there fails the test, not pytest."""
        if os.getpid() == self.TEST_PID:
            raise _Crash("the file ran in the test process, not in a worker")
        os._exit(3)

    def _assert_left_clean(self, corpus, out, blas, before):
        assert blas() == before
        assert multiprocessing.active_children() == []
        for path in out.iterdir():
            if path.name.startswith("."):
                continue  # a temp name, which no reader takes for an output
            if path.suffix == ".wav":
                assert len(read_wav(path)) == len(read_wav(corpus / path.name))
            else:
                json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    def test_workers_are_forked_processes_or_else_threads(
        self, corpus, weights_file, tmp_path, monkeypatch, blas, fork
    ):
        if not fork:
            monkeypatch.delattr(os, "fork")
        pids, original = tmp_path / "pids", voicecloak.cli.protect_utterance

        def recording(*args):
            with open(pids, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args)

        monkeypatch.setattr(voicecloak.cli, "protect_utterance", recording)
        before, out = blas(), tmp_path / "out"
        assert self._batch(corpus, weights_file, out) == 0
        seen = set(pids.read_text(encoding="ascii").split())
        if fork:
            assert 1 <= len(seen) <= 2 and str(os.getpid()) not in seen
        else:
            assert seen == {str(os.getpid())}
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{p.stem}{ext}" for p in corpus.iterdir() for ext in (".json", ".wav")]
            + ["manifest.json"])
        self._assert_left_clean(corpus, out, blas, before)

    def test_a_raising_file_escapes_the_batch(self, corpus, weights_file, tmp_path, monkeypatch,
                                              blas):
        original = voicecloak.cli.protect_utterance

        def crashing(*args):
            if self._is_doomed(args[5]):
                raise _Crash()
            return original(*args)

        monkeypatch.setattr(voicecloak.cli, "protect_utterance", crashing)
        before, out = blas(), tmp_path / "out"
        with pytest.raises(_Crash):
            self._batch(corpus, weights_file, out)
        assert not (out / "manifest.json").exists()
        assert not (out / f"{self.DOOMED}.wav").exists()
        self._assert_left_clean(corpus, out, blas, before)

    @pytest.mark.parametrize("stage", ["attack", "write"])
    def test_a_dying_worker_fails_its_unfinished_files(
        self, corpus, weights_file, tmp_path, monkeypatch, capsys, blas, stage
    ):
        attack, write = voicecloak.cli.protect_utterance, voicecloak.cli.write_wav

        def dying_in_attack(*args):
            if self._is_doomed(args[5]):
                self._die()
            return attack(*args)

        def dying_in_write(path, w):
            if self.DOOMED in path.name:
                path.write_bytes(b"RIFF")  # a partial temp file, then the worker is gone
                self._die()
            return write(path, w)

        if stage == "attack":
            monkeypatch.setattr(voicecloak.cli, "protect_utterance", dying_in_attack)
        else:
            monkeypatch.setattr(voicecloak.cli, "write_wav", dying_in_write)
        before, out = blas(), tmp_path / "out"
        failures = self._batch(corpus, weights_file, out)
        errors = capsys.readouterr().err.splitlines()
        inputs = sorted(corpus.iterdir())
        failed = [p for p in inputs if any(e.startswith(f"error: {p}: ") for e in errors)]
        assert failures == len(errors) == len(failed)
        # The pool stops the other worker too. A file it had not finished is
        # lost (no report, perhaps a complete .wav); one it finished but had
        # not yet handed back is counted failed with both outputs in place.
        lost = [p for p in inputs if not (out / f"{p.stem}.json").exists()]
        assert corpus / f"{self.DOOMED}.wav" in lost
        assert not (out / f"{self.DOOMED}.wav").exists()
        assert set(lost) <= set(failed)
        assert (out / "manifest.json").exists()
        self._assert_left_clean(corpus, out, blas, before)


    def test_a_failing_file_leaves_the_rest_of_its_chunk(
        self, weights_file, tmp_path, monkeypatch, capsys, blas
    ):
        # 17 files on 2 workers go in chunks of 3; one bad file fails alone
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for utt in range(17):
            write_wav(src / f"{speaker_key(0, utt)}.wav", speaker_utterance(0, utt, seconds=0.3))
        bad = src / f"{speaker_key(0, 4)}.wav"
        bad.write_bytes(b"RIFF")
        before = blas()
        assert voicecloak.cli.run_protect(str(src), str(weights_file), str(out), "gaussian",
                                          jobs=2) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: {bad}: truncated file, only 4 bytes"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"{p.stem}{ext}" for p in src.iterdir() if p != bad for ext in (".json", ".wav")]
            + ["manifest.json"])
        self._assert_left_clean(src, out, blas, before)


class TestRerunLegacyProtectManifest:
    @pytest.fixture
    def protected(self, runner, corpus, weights_file, tmp_path):
        out = tmp_path / "protected"
        args = ["protect", str(corpus), "--weights", str(weights_file), "--out", str(out),
                "--iterations", "2", "--alpha", "0.01", "--jobs", "1"]
        assert runner.invoke(cli, args).exit_code == 0
        return out

    def _record_flag(self, out, value):
        manifest = out / "manifest.json"
        recorded = json.loads(manifest.read_text())
        assert "dump_spectrograms" not in recorded["params"]
        recorded["params"]["dump_spectrograms"] = value
        manifest.write_text(json.dumps(recorded))
        outputs = sorted(p for p in out.iterdir() if p != manifest)
        digests = [_sha256(p) for p in outputs]
        for p in outputs:
            p.unlink()
        return manifest, outputs, digests

    def test_false_flag_reruns_byte_identically(self, runner, protected):
        manifest, outputs, digests = self._record_flag(protected, False)
        result = runner.invoke(cli, ["rerun", str(manifest)])
        assert result.exit_code == 0, result.output + result.stderr
        assert [_sha256(p) for p in outputs] == digests
        assert "dump_spectrograms" not in json.loads(manifest.read_text())["params"]

    def test_true_flag_fails_and_points_at_dump_spec(self, runner, protected):
        manifest, _, _ = self._record_flag(protected, True)
        before = manifest.read_bytes()
        result = runner.invoke(cli, ["rerun", str(manifest)])
        assert result.exit_code == 1
        assert "dump_spectrograms" in result.stderr
        assert "dump-spec" in result.stderr
        assert list(protected.iterdir()) == [manifest]
        assert manifest.read_bytes() == before


class TestEmbedWorkers:
    """embed runs its files on min(CPUs, files) workers, forked processes when
    more than one. However a run ends, no worker process is left."""

    TEST_PID = os.getpid()

    @pytest.fixture
    def many(self, tmp_path):
        src = tmp_path / "many"
        src.mkdir()
        for spk in range(3):
            for utt in range(3):
                write_wav(src / f"{speaker_key(spk, utt)}.wav",
                          speaker_utterance(spk, utt, seconds=0.3))
        return src

    def _embed(self, monkeypatch, cpus, src, weights_file, out):
        monkeypatch.setattr(voicecloak.cli, "_usable_cpus", lambda: cpus)
        try:
            voicecloak.cli.run_embed((str(src),), str(weights_file), str(out))
        finally:
            assert multiprocessing.active_children() == []

    def test_the_archive_bytes_do_not_depend_on_the_workers(
        self, many, weights_file, tmp_path, monkeypatch
    ):
        pids, original = tmp_path / "pids", voicecloak.cli.embed

        def recording(*args):
            with open(pids, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args)

        monkeypatch.setattr(voicecloak.cli, "embed", recording)
        archives, seen = [], []
        for cpus in (1, 2):
            pids.write_text("", encoding="ascii")
            out = tmp_path / f"cpus-{cpus}.emb"
            self._embed(monkeypatch, cpus, many, weights_file, out)
            archives.append(out.read_bytes())
            seen.append(set(pids.read_text(encoding="ascii").split()))
        assert archives[0] == archives[1]
        assert sorted(tensorfile.load(tmp_path / "cpus-2.emb")[0]) == sorted(
            p.stem for p in many.iterdir())
        assert seen[0] == {str(self.TEST_PID)}
        if hasattr(os, "fork"):
            assert 1 <= len(seen[1]) <= 2 and str(self.TEST_PID) not in seen[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_first_truncated_file_fails_the_run_by_name(
        self, many, weights_file, tmp_path, monkeypatch, cpus
    ):
        first, later = many / f"{speaker_key(1, 1)}.wav", many / f"{speaker_key(2, 2)}.wav"
        for path in (first, later):
            path.write_bytes(b"RIFF")
        out = tmp_path / "e.emb"
        with pytest.raises(WavFormatError) as caught:
            self._embed(monkeypatch, cpus, many, weights_file, out)
        assert str(caught.value) == f"{first}: truncated file, only 4 bytes"
        assert list(tmp_path.glob("e.emb*")) == [] and list(tmp_path.glob(".e.emb*")) == []

    def test_a_dying_worker_fails_the_run_and_writes_nothing(
        self, many, weights_file, tmp_path, monkeypatch
    ):
        if not hasattr(os, "fork"):
            pytest.skip("no forked workers on this platform")

        def dying(*args):
            if os.getpid() == self.TEST_PID:
                raise _Crash("the file ran in the test process, not in a worker")
            os._exit(3)

        monkeypatch.setattr(voicecloak.cli, "embed", dying)
        out = tmp_path / "e.emb"
        with pytest.raises(BrokenProcessPool):
            self._embed(monkeypatch, 2, many, weights_file, out)
        assert list(tmp_path.glob("e.emb*")) == [] and list(tmp_path.glob(".e.emb*")) == []


@pytest.fixture(scope="module")
def archive(runner, corpus, weights_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("embeds") / "clean.bin"
    result = runner.invoke(
        cli, ["embed", str(corpus), "--weights", str(weights_file), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output + result.stderr
    return out


class TestEmbedEvalSimmat:
    def test_embed_archive_contents(self, archive):
        tensors, meta = tensorfile.load(archive)
        assert sorted(tensors) == sorted(
            speaker_key(s, u) for s in range(2) for u in range(2)
        )
        assert meta["kind"] == "embeddings"
        assert meta["embed_dim"] == 16
        assert all(v.shape == (16,) for v in tensors.values())

    def test_embed_has_no_seed_option(self, runner, corpus, weights_file, tmp_path):
        result = runner.invoke(
            cli,
            ["embed", str(corpus), "--weights", str(weights_file),
             "--out", str(tmp_path / "e.bin"), "--seed", "1"],
        )
        assert result.exit_code == 2
        assert "--seed" in result.stderr

    def test_embed_rejects_duplicate_keys(self, runner, corpus, weights_file, tmp_path):
        wav = corpus / f"{speaker_key(1, 1)}.wav"
        result = runner.invoke(
            cli,
            ["embed", str(wav), str(wav), "--weights", str(weights_file),
             "--out", str(tmp_path / "dup.bin")],
        )
        assert result.exit_code == 1
        assert "duplicate key" in result.stderr

    def test_eval_writes_scores_and_eer(self, runner, archive, tmp_path):
        trials = tmp_path / "trials.txt"
        trials.write_text(
            f"{speaker_key(0, 0)} {speaker_key(0, 1)} target\n"
            f"{speaker_key(1, 0)} {speaker_key(1, 1)} target\n"
            f"{speaker_key(0, 0)} {speaker_key(1, 1)} nontarget\n"
            f"{speaker_key(1, 0)} {speaker_key(0, 1)} nontarget\n"
        )
        out = tmp_path / "result"
        result = runner.invoke(
            cli,
            ["eval", "--trials", str(trials), "--enroll", str(archive),
             "--test", str(archive), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output + result.stderr
        lines = (tmp_path / "result.scores.txt").read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 4 for line in lines)
        summary = json.loads((tmp_path / "result.eer.json").read_text())
        assert summary["n_target"] == 2 and summary["n_nontarget"] == 2
        assert 0.0 <= summary["eer"] <= 1.0
        echoed = json.loads(result.output.strip().splitlines()[-1])
        assert echoed["eer"] == summary["eer"]

    def test_eval_scores_file_spells_each_trial_in_file_order(self, runner, archive, tmp_path):
        trials = [
            (speaker_key(0, 0), speaker_key(0, 1), "TARGET", "target"),
            (speaker_key(1, 0), speaker_key(0, 1), "NonTarget", "nontarget"),
            (speaker_key(0, 0), speaker_key(0, 1), "Target", "target"),  # a repeated pair
            (speaker_key(1, 1), speaker_key(1, 0), "target", "target"),
            (speaker_key(0, 0), speaker_key(1, 1), "nonTARGET", "nontarget"),
        ]
        path = tmp_path / "trials.txt"
        path.write_text("".join(f"{e} {t} {label}\n" for e, t, label, _ in trials))
        result = runner.invoke(
            cli,
            ["eval", "--trials", str(path), "--enroll", str(archive),
             "--test", str(archive), "--out", str(tmp_path / "result")],
        )
        assert result.exit_code == 0, result.output + result.stderr
        embeddings, _ = tensorfile.load(archive)
        scores = score_trials([t[0] for t in trials], [t[1] for t in trials], embeddings,
                              embeddings)
        expected = "".join(f"{e} {t} {label} {s:.12g}\n"
                           for (e, t, _, label), s in zip(trials, scores))
        assert (tmp_path / "result.scores.txt").read_text(encoding="utf-8") == expected

    def test_a_failed_eval_leaves_the_previous_outputs(self, runner, archive, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text(f"{speaker_key(0, 0)} {speaker_key(0, 1)} target\n"
                        f"{speaker_key(0, 0)} {speaker_key(1, 1)} nontarget\n")
        targets_only = tmp_path / "targets.txt"
        targets_only.write_text(f"{speaker_key(1, 0)} {speaker_key(1, 1)} target\n")
        args = ["eval", "--enroll", str(archive), "--test", str(archive),
                "--out", str(tmp_path / "result")]
        assert runner.invoke(cli, args + ["--trials", str(good)]).exit_code == 0
        outputs = ["result.eer.json", "result.manifest.json", "result.scores.txt"]
        first = {name: (tmp_path / name).read_bytes() for name in outputs}
        result = runner.invoke(cli, args + ["--trials", str(targets_only)])
        assert result.exit_code == 1
        assert "nontarget" in result.stderr
        assert {name: (tmp_path / name).read_bytes() for name in outputs} == first
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            outputs + ["good.txt", "targets.txt"])

    @pytest.mark.parametrize("command, owner, name, path_arg", [
        ("init-encoder", voicecloak.cli, "save_weights", 1),
        ("embed", tensorfile, "save", 0),
        ("eval", voicecloak.cli, "open", 0),
        ("simmat", voicecloak.cli, "write_similarity_csv", 0),
        ("dump-spec", voicecloak.cli, "write_magnitude_csv", 1),
    ])
    def test_a_failed_write_leaves_neither_the_file_nor_its_temp(
        self, runner, corpus, weights_file, archive, tmp_path, monkeypatch,
        command, owner, name, path_arg,
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        trials = tmp_path / "trials.txt"
        trials.write_text(f"{speaker_key(0, 0)} {speaker_key(0, 1)} target\n"
                          f"{speaker_key(0, 0)} {speaker_key(1, 1)} nontarget\n")
        args = {
            "init-encoder": ["--config", str(config)],
            "embed": [str(corpus), "--weights", str(weights_file)],
            "eval": ["--trials", str(trials), "--enroll", str(archive), "--test", str(archive)],
            "simmat": ["--rows", str(archive)],
            "dump-spec": [str(corpus / f"{speaker_key(0, 0)}.wav")],
        }[command]

        def half_write(*call_args, **call_kwargs):
            Path(call_args[path_arg]).write_bytes(b"partial")
            raise OSError("disk full")

        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(owner, name, half_write, raising=False)  # cli's open is the builtin
        result = runner.invoke(cli, [command, *args, "--out", str(out / "result")])
        assert result.exit_code == 1
        assert "disk full" in result.stderr
        assert list(out.iterdir()) == []

    def test_eval_missing_key_fails(self, runner, archive, tmp_path):
        trials = tmp_path / "trials.txt"
        trials.write_text("ghost spk00-utt00 target\nspk00-utt00 spk00-utt01 nontarget\n")
        result = runner.invoke(
            cli,
            ["eval", "--trials", str(trials), "--enroll", str(archive),
             "--test", str(archive), "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 1
        assert result.stderr == "error: enrollment key 'ghost' missing from embeddings\n"
        assert not (tmp_path / "x.scores.txt").exists()

    def test_simmat_full_and_speaker_level(self, runner, archive, tmp_path):
        full = tmp_path / "full.csv"
        result = runner.invoke(cli, ["simmat", "--rows", str(archive), "--out", str(full)])
        assert result.exit_code == 0, result.output + result.stderr
        matrix, row_keys, col_keys = read_similarity_csv(full)
        assert matrix.shape == (4, 4)
        assert row_keys == col_keys
        np.testing.assert_allclose(np.diag(matrix), np.ones(4), atol=1e-9)

        spk = tmp_path / "spk.csv"
        result = runner.invoke(
            cli, ["simmat", "--rows", str(archive), "--speaker-level", "--out", str(spk)]
        )
        assert result.exit_code == 0
        matrix, row_keys, _ = read_similarity_csv(spk)
        assert matrix.shape == (2, 2)
        assert row_keys == ["spk00", "spk01"]


class TestRuntimeErrors:
    COMMANDS = ["init-encoder", "protect", "embed", "eval", "simmat", "dump-spec", "rerun"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_print_one_error_line_and_exit_1(self, runner, corpus, tmp_path, command):
        garbage = str(tmp_path / "garbage.bin")
        Path(garbage).write_bytes(b"not a voicecloak file")
        wav = str(corpus / f"{speaker_key(0, 0)}.wav")
        out = str(tmp_path / "out")
        args = {
            "init-encoder": ["--config", garbage, "--out", out],
            "protect": [wav, "--weights", garbage, "--out", out],
            "embed": [wav, "--weights", garbage, "--out", out],
            "eval": ["--trials", garbage, "--enroll", garbage, "--test", garbage, "--out", out],
            "simmat": ["--rows", garbage, "--out", out],
            "dump-spec": [garbage, "--out", out],
            "rerun": [garbage],
        }[command]
        result = runner.invoke(cli, [command, *args])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert type(result.exception) is SystemExit

    def test_the_traceback_shows_only_at_debug_level(self, tmp_path):
        garbage = tmp_path / "garbage.wav"
        garbage.write_bytes(b"not audio at all")
        command = [sys.executable, "-m", "voicecloak.cli", "dump-spec", str(garbage),
                   "--out", str(tmp_path / "mag.csv")]
        src = str(Path(voicecloak.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("VOICECLOAK_LOG", None)
        quiet = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        env["VOICECLOAK_LOG"] = "DEBUG"
        debug = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        for done in (quiet, debug):
            assert done.returncode == 1
            assert "error: " in done.stderr
        assert "Traceback" not in quiet.stderr
        assert "Traceback" in debug.stderr


class TestDumpSpecAndRerun:
    def test_dump_spec_shape(self, runner, corpus, tmp_path):
        out = tmp_path / "mag.csv"
        wav = corpus / f"{speaker_key(0, 0)}.wav"
        result = runner.invoke(cli, ["dump-spec", str(wav), "--out", str(out)])
        assert result.exit_code == 0, result.output + result.stderr
        assert np.loadtxt(out, delimiter=",").shape == (41, 257)

    def test_rerun_reproduces_an_embed_archive(self, runner, corpus, weights_file, tmp_path):
        out = tmp_path / "emb.bin"
        args = ["embed", str(corpus), "--weights", str(weights_file), "--out", str(out)]
        assert runner.invoke(cli, args).exit_code == 0
        first = _sha256(out)
        out.unlink()
        result = runner.invoke(cli, ["rerun", str(out) + ".manifest.json"])
        assert result.exit_code == 0, result.output + result.stderr
        assert _sha256(out) == first

    def test_rerun_rejects_unknown_command(self, runner, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"command": "detonate", "params": {}}))
        result = runner.invoke(cli, ["rerun", str(manifest)])
        assert result.exit_code == 1
        assert "unknown command" in result.stderr

    @pytest.mark.parametrize(
        "manifest, field",
        [
            pytest.param([1, 2], "must be a JSON object", id="list-manifest"),
            pytest.param({"command": ["embed"], "params": {}}, "unknown command", id="list-command"),
            pytest.param({"command": "embed"}, "'params'", id="no-params"),
            pytest.param({"command": "embed", "params": []}, "'params'", id="list-params"),
            pytest.param({"command": "dump-spec", "params": {"input": "a.wav", "out": "b", "x": 1}},
                         "'x'", id="unknown-param"),
            pytest.param({"command": "dump-spec", "params": {"input": "a.wav"}}, "'out'",
                         id="missing-param"),
            pytest.param({"command": "protect", "params": {"inputs": "a", "weights": "w",
                                                           "out_dir": "o", "sneed": 3}},
                         "'sneed'", id="unknown-protect-param"),
            pytest.param({"command": "embed", "params": {"inputs": 5, "weights": "w",
                                                         "out": "o"}},
                         "'inputs'", id="int-inputs"),
            pytest.param({"command": "embed", "params": {"inputs": "corpus", "weights": "w",
                                                         "out": "o"}},
                         "'inputs'", id="string-inputs"),
            pytest.param({"command": "embed", "params": {"inputs": ["a", 1], "weights": "w",
                                                         "out": "o"}},
                         "'inputs'", id="int-in-inputs"),
            pytest.param({"command": "protect", "params": {"inputs": "a", "weights": "w",
                                                           "out_dir": "o", "iterations": "50"}},
                         "'iterations'", id="string-iterations"),
            pytest.param({"command": "protect", "params": {"inputs": "a", "weights": "w",
                                                           "out_dir": "o", "epsilon": True}},
                         "'epsilon'", id="bool-epsilon"),
            pytest.param({"command": "simmat", "params": {"rows": "r", "cols": 3, "out": "o"}},
                         "'cols'", id="int-cols"),
        ],
    )
    def test_rerun_checks_the_manifest_before_running(self, runner, tmp_path, manifest, field):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        result = runner.invoke(cli, ["rerun", str(path)])
        assert result.exit_code == 1
        assert field in result.stderr
        assert list(tmp_path.iterdir()) == [path]

    def test_rerun_drops_the_seed_of_older_manifests(
        self, runner, corpus, weights_file, archive, tmp_path
    ):
        trials = tmp_path / "trials.txt"
        trials.write_text(f"{speaker_key(0, 0)} {speaker_key(0, 1)} target\n"
                          f"{speaker_key(0, 0)} {speaker_key(1, 1)} nontarget\n")
        wav = corpus / f"{speaker_key(0, 0)}.wav"
        runs = {
            "emb.bin": ["embed", str(corpus), "--weights", str(weights_file)],
            "ev": ["eval", "--trials", str(trials), "--enroll", str(archive), "--test", str(archive)],
            "sim.csv": ["simmat", "--rows", str(archive)],
            "mag.csv": ["dump-spec", str(wav)],
        }
        for out, args in runs.items():
            result = runner.invoke(cli, args + ["--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output + result.stderr
        outputs = sorted(p for p in tmp_path.iterdir() if not p.name.endswith(".json")
                         and p != trials)
        outputs.append(tmp_path / "ev.eer.json")
        digests = [_sha256(p) for p in outputs]
        for manifest in tmp_path.glob("*.manifest.json"):
            recorded = json.loads(manifest.read_text())
            assert "seed" not in recorded["params"]
            recorded["params"]["seed"] = 7
            manifest.write_text(json.dumps(recorded))
        for p in outputs:
            p.unlink()
        for manifest in tmp_path.glob("*.manifest.json"):
            result = runner.invoke(cli, ["rerun", str(manifest)])
            assert result.exit_code == 0, result.output + result.stderr
        assert [_sha256(p) for p in outputs] == digests

    def test_log_environment_variable_is_honored(self, runner, corpus, tmp_path):
        out = tmp_path / "mag.csv"
        wav = corpus / f"{speaker_key(1, 0)}.wav"
        result = runner.invoke(
            cli, ["dump-spec", str(wav), "--out", str(out)],
            env={"VOICECLOAK_LOG": "DEBUG"},
        )
        assert result.exit_code == 0
