"""Batch command line: protect audio, extract embeddings, score trials.

Every command writes a run manifest next to its outputs: `_recorded`
records each `run_*` call's arguments, defaults applied, and registers the
command for `voicecloak rerun <manifest>`, which re-executes it with them
and reproduces the outputs bit for bit. The `protect` options take their
defaults from `run_protect`, whose attack defaults are `AttackConfig`'s.
Verbosity is controlled by the VOICECLOAK_LOG environment variable
(DEBUG/INFO/WARNING/ERROR).

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import inspect
import json
import logging
import math
import os
import pickle
import sys
import threading
import types
import typing
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import __version__, tensorfile
from .attack import METHODS, AttackConfig, AttackConfigError, embed, protect_utterance
from .audio_io import WavFormatError, read_wav, write_wav
from .encoder import EncoderConfig, init_random, load_weights, save_weights
from .metrics import (
    MissingKeyError, TrialFormatError, compute_eer, parse_trials, score_trials,
    similarity_matrix, write_similarity_csv,
)
from .spectral import stft_magnitude, write_magnitude_csv

logger = logging.getLogger("voicecloak")


def _setup_logging():
    level_name = os.environ.get("VOICECLOAK_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_atomically(path: Path, write) -> None:
    """Run write(temp) on a temp name beside path, then move it into place.

    The temp is named for the process and thread, so writers of one path
    in threads of one process never share it. A failed write removes its
    temp, so no partial file is left behind.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        write(temp)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# the manifest path of the `_recorded` command running in this context
_MANIFEST: contextvars.ContextVar[str | None] = contextvars.ContextVar("manifest", default=None)


def _refuse_overwrite(inputs, outputs) -> None:
    """Raise ValueError naming both paths if an existing output is an input.

    Same file means what `os.path.samefile` means: the same device and
    inode, so a link or another spelling of the path counts. Every command
    that writes through _write_atomically runs this on its outputs before
    it reads any input, so one that fails here writes nothing; the running
    command's manifest, which `_recorded` formats, is checked with them.
    An input that does not exist is left to the code that reads it.
    """
    read = {}
    for path in inputs:
        with contextlib.suppress(FileNotFoundError):
            st = os.stat(path)
            read[st.st_dev, st.st_ino] = path
    manifest = _MANIFEST.get()
    if manifest is not None:
        outputs = [*outputs, manifest]
    for output in outputs:
        with contextlib.suppress(FileNotFoundError):
            st = os.stat(output)
            path = read.get((st.st_dev, st.st_ino))
            if path is not None:
                raise ValueError(f"output {output} would overwrite its input {path}")


_COMMANDS: dict[str, typing.Callable] = {}  # command name -> its recorded run_*, for rerun


def _recorded(command: str, manifest: str):
    """Register a `run_*` for rerun as `command`. Once a call returns, its
    arguments, defaults applied, are the params of the manifest written to
    the path `manifest` formats from them; a call that raises writes none.
    While the call runs, `_refuse_overwrite` checks that path too, and
    OpenBLAS runs on one thread (see _one_blas_thread)."""

    def decorate(run):
        @functools.wraps(run)
        def recorded(*args, **kwargs):
            bound = inspect.signature(run).bind(*args, **kwargs)
            bound.apply_defaults()
            path = manifest.format(**bound.arguments)
            token = _MANIFEST.set(path)
            try:
                with _one_blas_thread():
                    result = run(*args, **kwargs)
            finally:
                _MANIFEST.reset(token)
            record = {"tool": "voicecloak", "version": __version__, "command": command,
                      "params": bound.arguments}
            text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
            _write_atomically(Path(path), lambda temp: temp.write_text(text, encoding="utf-8"))
            return result

        _COMMANDS[command] = recorded
        return recorded

    return decorate


@contextlib.contextmanager
def _naming(path):
    """Prefix a ValueError the block raises with path; read_wav's errors name it already."""
    try:
        yield
    except WavFormatError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _collect_wavs(path_str: str) -> list[Path]:
    path = Path(path_str)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".wav" and p.is_file())
        if not files:
            raise ValueError(f"no .wav files in {path}")
        return files
    if path.is_file():
        return [path]
    raise ValueError(f"input {path} does not exist")


def _by_stem(files: list[Path]) -> dict[str, Path]:
    """Files keyed by stem, which names their outputs; a stem seen twice is an error."""
    by_stem: dict[str, Path] = {}
    for path in files:
        if path.stem in by_stem:
            raise ValueError(f"duplicate key {path.stem!r}: {by_stem[path.stem]} and {path}")
        by_stem[path.stem] = path
    return by_stem


# Set by the user, any of these fixes the BLAS thread count; every command keeps it.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _openblas():
    """The lookup name -> ctypes function or None of the symbols of the
    OpenBLAS NumPy loaded ("get_num_threads" and the like), or None."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if all(hasattr(lib, f"{prefix}_{verb}_num_threads{suffix}")
                       for verb in ("get", "set")):
                    return lambda name: getattr(lib, f"{prefix}_{name}{suffix}", None)
    return None


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS NumPy loaded, or None."""
    symbol = _openblas()
    if symbol is None:
        return None
    get, set_ = symbol("get_num_threads"), symbol("set_num_threads")
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


def _openblas_corename() -> str | None:
    """The kernel the OpenBLAS NumPy loaded picked for this CPU at load time,
    such as "SkylakeX" or "Haswell", or None. The bits of a product can
    depend on it, not only on the library's build."""
    corename = _openblas() and _openblas()("get_corename")
    if not corename:
        return None
    corename.restype, corename.argtypes = ctypes.c_char_p, []
    return corename().decode("ascii", "replace")


# The OpenBLAS count is process-wide, so the record of who changed it is too.
_blas_lock = threading.Lock()
_blas_active = 0  # commands inside _one_blas_thread; guarded by _blas_lock
_blas_saved = 0  # the OpenBLAS count before the first of them


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count.

    Every command runs in this block (see _recorded). A file's attack,
    analysis and embedding, and the Grams of eval and simmat, are long runs
    of small GEMMs that gain no wall time from more threads and pay for
    them in CPU. Set here, before any fork, the count reaches forked
    workers through the fork. Set anew in a fresh fork, it starts an
    OpenBLAS server thread that spins while the worker idles (a probe child
    went from 1 to 2 OS threads, and 1.67 to 1.90 s of user CPU per pass);
    restored in the parent while workers run, it starts one there. So
    blocks that overlap in threads of one process restore the count from
    before the first only when the last one leaves, also when one raises.
    Does nothing when no OpenBLAS is loaded or a BLAS thread variable is set.
    """
    global _blas_active, _blas_saved
    blas = None if any(name in os.environ for name in _BLAS_ENV) else _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_active == 0:
            _blas_saved = get()
            set_(1)
        _blas_active += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_active -= 1
            if _blas_active == 0:
                set_(_blas_saved)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def _keep_freed_memory() -> None:
    """Let malloc keep what this process frees, for its next allocation.

    By default glibc maps a block above its dynamic mmap threshold (the
    largest mapped block freed so far) on its own and unmaps it when it is
    freed, and trims a free heap top above twice that threshold. Each
    file's transient arrays then go back to the kernel, and the next file,
    or the next attack step, faults the same pages in again, zero-filled.
    With these thresholds they stay on the heap from one use to the next.
    The settings are process-wide and stay in force, so only a process
    that runs files calls this (see _map_files): the parent of forked
    workers, which runs none, keeps glibc's defaults and hands back what it
    frees after them, as eval and simmat do after embed. Best-effort: does
    nothing where the C library has no mallopt, or where ctypes cannot
    open the running process (on Windows CDLL(None) raises TypeError).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # the 64-bit ceiling of glibc's dynamic threshold
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)  # twice that, glibc's own ratio


def _outcome(task, path):
    """task(path), or the Exception that ended it."""
    try:
        return task(path)
    except Exception as exc:
        logger.debug("%s failed", path, exc_info=True)
        return exc


def _send(out, outcome, path) -> None:
    """Write outcome up a worker's pipe as one length-prefixed pickle; one
    that cannot be pickled goes as an error naming path and its repr."""
    try:
        data = pickle.dumps(outcome)
    except Exception as exc:
        data = pickle.dumps(ChildProcessError(f"{path}: the worker could not send back"
                                              f" {outcome!r}: {exc}"))
    out.write(len(data).to_bytes(8, "little") + data)
    out.flush()


def _receive(reader) -> bytes | None:
    """The next message on a worker's pipe, or None if the pipe ends before
    a whole one: the worker is gone."""
    size = int.from_bytes(reader.read(8), "little")
    data = reader.read(size)
    return data if 0 < size == len(data) else None


def _run_worker(task, paths, write_end: int, inherited: list[int]) -> typing.NoReturn:
    """A forked worker: close the pipe ends it inherited, then run each path
    in order and send its outcome up write_end. A BaseException that is not
    an Exception is sent too, and ends the worker. It leaves through
    os._exit on every path, so it never returns into its parent's code."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        _keep_freed_memory()
        with open(write_end, "wb") as out:
            for path in paths:
                try:
                    outcome = _outcome(task, path)
                except BaseException as exc:
                    _send(out, exc, path)
                    raise
                _send(out, outcome, path)
        status = 0
    finally:
        os._exit(status)


def _forked(task, paths: list, workers: int):
    """The forked branch of _map_files."""
    running: list = [None] * workers  # per worker: (pid, reader) of its process, None once reaped

    def fork(k: int, first: int) -> None:
        read_end, write_end = os.pipe()
        inherited = [read_end, *(reader.fileno() for _, reader in filter(None, running))]
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            _run_worker(task, paths[first::workers], write_end, inherited)
        os.close(write_end)
        running[k] = pid, open(read_end, "rb")

    try:
        for k in range(workers):
            fork(k, k)
        for i, path in enumerate(paths):
            k = i % workers
            pid, reader = running[k]
            data = _receive(reader)
            if data is not None:
                try:
                    outcome = pickle.loads(data)
                except Exception as exc:
                    outcome = ChildProcessError(f"{path}: the worker's outcome could not be"
                                                f" read back: {exc}")
                if not isinstance(outcome, Exception) and isinstance(outcome, BaseException):
                    raise outcome
                yield outcome
                continue
            reader.close()
            running[k] = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
            yield ChildProcessError(f"{path}: the worker running it {how}")
            if i + workers < len(paths):
                fork(k, i + workers)
    finally:
        for _, reader in filter(None, running):
            reader.close()
        for pid, _ in filter(None, running):
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _map_files(task, paths: list[Path], jobs: int | None):
    """Yield, for each path in input order, task(path) or the Exception that
    ended it, computed on min(jobs or CPUs, files) workers.

    A single worker is the calling thread, so the files reuse the free
    memory of the caller's heap (glibc gives a pool thread an arena of its
    own). With more, each is a process forked from the caller, which runs
    no file: the per-file work is many short NumPy calls that hold the GIL,
    so threads would not overlap them. Threads stand in where there is no fork.
    Only a process that runs files sets its heap to keep what it frees
    (see _keep_freed_memory): this one when it runs them itself, each
    forked worker as it starts, never their parent.

    Worker k of N gets task through the fork, unpickled, runs files k,
    k + N, k + 2N, ... and sends each outcome up a pipe of its own as one
    length-prefixed pickle. The parent reads file i from worker i mod N,
    so the outcomes come in input order. The deal is fixed in advance, so
    it cannot rebalance files of uneven length: a worker dealt the long
    ones finishes last while the others wait. An outcome that cannot be
    sent back comes as a ChildProcessError naming the file and the
    outcome's repr. A worker that dies fails only the file it was running,
    with a ChildProcessError naming the file and the worker's exit status
    or signal, and a fresh worker is forked for the rest of its files.

    A BaseException that is not an Exception, such as KeyboardInterrupt,
    ends the iteration once the files before it are yielded. However the
    iteration ends, also when the caller stops early, the pipes are closed
    and every worker is waited for: one still running stops when it next
    sends an outcome, so it finishes the file it is on.
    """
    workers = min(jobs or _usable_cpus(), len(paths))
    if workers > 1 and hasattr(os, "fork"):
        yield from _forked(task, paths, workers)
        return
    _keep_freed_memory()
    if workers == 1:
        yield from (_outcome(task, path) for path in paths)
    else:
        with ThreadPoolExecutor(workers) as pool:
            yield from pool.map(functools.partial(_outcome, task), paths)


def _file_seed(base_seed: int, stem: str) -> int:
    # stable per-file seed, independent of batch order and of Python's hash salt
    return (base_seed + zlib.crc32(stem.encode("utf-8"))) & 0xFFFFFFFF


@_recorded("init-encoder", "{out}.manifest.json")
def run_init_encoder(config: str, seed: int, out: str) -> None:
    _refuse_overwrite([config], [out])
    with _naming(config):
        overrides = json.loads(Path(config).read_text(encoding="utf-8"))
        if not isinstance(overrides, dict):
            raise ValueError("encoder config must be a JSON object")
        defaults = EncoderConfig().to_dict()
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise ValueError(f"unknown encoder config keys {unknown}")
        cfg = EncoderConfig.from_dict({**defaults, **overrides})
    ws = init_random(cfg, seed)
    _write_atomically(Path(out), lambda temp: save_weights(ws, temp))


@_recorded("protect", "{out_dir}/manifest.json")
def run_protect(
    inputs: str,
    weights: str,
    out_dir: str,
    method: str = "ifgsm",
    epsilon: float = AttackConfig.epsilon,
    alpha: float = AttackConfig.alpha,
    iterations: int = AttackConfig.iterations,
    target_snr: float = 32.0,
    seed: int = 0,
    jobs: int | None = None,
) -> int:
    """Protect every input file; returns the number of failures.

    Only the options the method uses are checked: fgsm runs the schedule
    (epsilon, epsilon, 1), and gaussian uses none of the three. Every
    method records epsilon, alpha and target_snr, so each must be finite.
    A file whose report would hold a non-finite snr_db or delta_cosd fails
    with an error naming it, and nothing is written for that file.

    The batch runs on min(jobs or CPUs, files) workers, forked processes
    when more than one (see _map_files). Each file's error is reported on
    its own and the batch goes on. A worker that dies fails only the file
    it was running, naming the worker's exit status, and a fresh worker
    runs the rest of its files.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {', '.join(METHODS)}, got {method!r}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for name, value in (("epsilon", epsilon), ("alpha", alpha), ("target_snr", target_snr)):
        if not math.isfinite(value):
            raise AttackConfigError(f"{name} must be finite, got {value}")
    if method == "fgsm":
        cfg = AttackConfig(epsilon=epsilon, alpha=epsilon, iterations=1)
    elif method == "ifgsm":
        cfg = AttackConfig(epsilon=epsilon, alpha=alpha, iterations=iterations)
    else:
        cfg = AttackConfig()
    files = _by_stem(_collect_wavs(inputs))
    out_path = Path(out_dir)
    outputs = [os.path.join(out_dir, f"{s}{suffix}") for s in files for suffix in (".wav", ".json")]
    _refuse_overwrite([*files.values(), weights], outputs)
    ws = load_weights(weights)
    out_path.mkdir(parents=True, exist_ok=True)

    def protect_one(path: Path) -> None:
        file_seed = _file_seed(seed, path.stem)
        # no reference to the read waveform here: protect_utterance holds it as PCM16
        protected, report = protect_utterance(read_wav(path), ws, cfg, method, target_snr,
                                              file_seed)
        for name in ("snr_db", "delta_cosd"):
            if not math.isfinite(getattr(report, name)):
                raise ValueError(f"{name} is {getattr(report, name)}, not a finite number")
        wav_path = out_path / f"{path.stem}.wav"
        payload = {
            "key": path.stem,
            "input": str(path),
            "output": str(wav_path),
            "method": method,
            "epsilon": epsilon,
            "alpha": alpha,
            "iterations": iterations,
            "target_snr_db": target_snr,
            "seed": file_seed,
            "snr_db": report.snr_db,
            "delta_cosd": report.delta_cosd,
            "loss_trajectory": report.loss_trajectory,
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        # a report on disk describes the WAV beside it: the old one goes
        # before the new WAV replaces the old WAV, and the new one is last
        report_path = out_path / f"{path.stem}.json"
        report_path.unlink(missing_ok=True)
        _write_atomically(wav_path, lambda temp: write_wav(temp, protected))
        _write_atomically(report_path, lambda temp: temp.write_text(text, encoding="utf-8"))
        logger.info("protected %s: SNR %.2f dB, distance %.3f", path.name, report.snr_db, report.delta_cosd)

    paths = list(files.values())
    failures = 0
    for path, outcome in zip(paths, _map_files(protect_one, paths, jobs)):
        if isinstance(outcome, Exception):
            # name the file once: read_wav's errors and _map_files' own name it already
            named = isinstance(outcome, (WavFormatError, ChildProcessError))
            click.echo(f"error: {outcome if named else f'{path}: {outcome}'}", err=True)
            failures += 1
    return failures


@_recorded("embed", "{out}.manifest.json")
def run_embed(inputs: tuple[str, ...], weights: str, out: str) -> None:
    """Write the embedding of every input file to one archive, keyed by stem.

    The files are embedded on min(CPUs, files) workers, forked processes
    when more than one, set up as for run_protect (see _map_files); the
    CPUs are those of the process's affinity mask. The first file in
    input order that fails raises its error, naming it (a
    ChildProcessError if its worker died), and nothing is written.
    """
    files = _by_stem([path for item in inputs for path in _collect_wavs(item)])
    _refuse_overwrite([*files.values(), weights], [out])
    ws = load_weights(weights)

    def embed_one(path: Path):
        with _naming(path):
            return embed(stft_magnitude(read_wav(path)), ws)

    embeddings = {}
    with contextlib.closing(_map_files(embed_one, list(files.values()), None)) as outcomes:
        for stem, outcome in zip(files, outcomes):
            if isinstance(outcome, Exception):
                raise outcome
            embeddings[stem] = outcome
    meta = {"kind": "embeddings", "embed_dim": ws.config.embed_dim, "weights": str(weights)}
    _write_atomically(Path(out), lambda temp: tensorfile.save(temp, embeddings, meta))


def _load_embedding_pair(first: str, second: str | None):
    """The embeddings of two archives; one read serves both when second is
    None or the same path. Archives of different embed_dim are refused,
    naming both."""
    embeddings, meta = tensorfile.load_embeddings(first)
    if second is None or second == first:
        return embeddings, embeddings
    other, other_meta = tensorfile.load_embeddings(second)
    if other_meta["embed_dim"] != meta["embed_dim"]:
        raise ValueError(f"{first} holds embeddings of dimension {meta['embed_dim']},"
                         f" {second} of dimension {other_meta['embed_dim']}")
    return embeddings, other


@_recorded("eval", "{out}.manifest.json")
def run_eval(trials: str, enroll: str, test: str, out: str) -> dict:
    _refuse_overwrite([trials, enroll, test], [f"{out}.scores.txt", f"{out}.eer.json"])
    enroll_ids, test_ids, is_target = parse_trials(trials)
    enroll_embeddings, test_embeddings = _load_embedding_pair(enroll, test)
    try:
        scores = score_trials(enroll_ids, test_ids, enroll_embeddings, test_embeddings)
    except MissingKeyError as exc:  # name the archive that lacks the key
        raise TrialFormatError(f"{enroll if exc.args[0] == 'enrollment' else test}: {exc}") from None
    with _naming(trials):
        eer, threshold = compute_eer(scores[is_target], scores[~is_target])
    summary = {
        "eer": eer,
        "threshold": threshold,
        "n_target": int(is_target.sum()),
        "n_nontarget": int((~is_target).sum()),
    }

    def write_scores(temp: Path) -> None:
        labels = map(("nontarget", "target").__getitem__, is_target.tolist())
        with open(temp, "w", encoding="utf-8") as fh:
            fh.writelines(map("%s %s %s %.12g\n".__mod__,
                              zip(enroll_ids, test_ids, labels, scores)))

    _write_atomically(Path(f"{out}.scores.txt"), write_scores)
    text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    _write_atomically(Path(f"{out}.eer.json"), lambda temp: temp.write_text(text, encoding="utf-8"))
    return summary


@_recorded("simmat", "{out}.manifest.json")
def run_simmat(rows: str, cols: str | None, out: str, speaker_level: bool = False) -> None:
    _refuse_overwrite([rows] if cols is None else [rows, cols], [out])
    row_embeddings, col_embeddings = _load_embedding_pair(rows, cols)
    matrix, row_keys, col_keys = similarity_matrix(row_embeddings, col_embeddings, speaker_level)
    _write_atomically(Path(out),
                      lambda temp: write_similarity_csv(temp, matrix, row_keys, col_keys))


@_recorded("dump-spec", "{out}.manifest.json")
def run_dump_spec(input: str, out: str) -> None:
    _refuse_overwrite([input], [out])
    with _naming(input):
        magnitude = stft_magnitude(read_wav(input))
    _write_atomically(Path(out), lambda temp: write_magnitude_csv(magnitude, temp))


def run_rerun(manifest_path: str):
    """Check a manifest against the recorded command's signature, then run it.

    A param that does not bind to the command's `run_*` as it is today, or
    does not fit its annotation, fails naming it before any input is read."""
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{manifest_path}: not a JSON manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest must be a JSON object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"{manifest_path}: unknown command {command!r}")
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"{manifest_path}: 'params' must be a JSON object")
    run = _COMMANDS[command]
    try:
        inspect.signature(run).bind(**params)
    except TypeError as exc:
        raise ValueError(f"{manifest_path}: params of {command}: {exc}") from None
    hints = typing.get_type_hints(run)
    for name, value in params.items():
        if not _json_matches(value, hints[name]):
            raise ValueError(
                f"{manifest_path}: param {name!r} of {command} must be"
                f" {inspect.formatannotation(hints[name])}, got {value!r}"
            )
        if isinstance(value, list):
            params[name] = tuple(value)
    return run(**params)


def _json_matches(value, hint) -> bool:
    """Whether a decoded JSON value fits a `run_*` annotation.

    JSON has no tuples, so tuple[X, ...] takes a list; an int fits float,
    and a bool fits neither int nor float.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_json_matches(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_json_matches(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


class _Commands(click.Group):
    """Ends a command that raises with `error: <message>` and exit 1; click's own pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            logger.debug("command failed", exc_info=True)
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)


@click.group(cls=_Commands)
@click.version_option(__version__)
def cli():
    """White-box speaker protection and evaluation toolkit."""
    _setup_logging()


@cli.command("init-encoder")
@click.option("--config", required=True, type=click.Path(exists=True), help="Encoder config JSON.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path(), help="Weight file to write.")
def cmd_init_encoder(**options):
    """Initialize random encoder weights and save them."""
    run_init_encoder(**options)


# run_protect's defaults: the protect options show and pass exactly these
_DEFAULTS = {name: p.default for name, p in inspect.signature(run_protect).parameters.items()}


@cli.command("protect", context_settings={"show_default": True})
@click.argument("inputs", type=click.Path(exists=True))
@click.option("--weights", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--method", default=_DEFAULTS["method"], type=click.Choice(METHODS))
@click.option("--epsilon", default=_DEFAULTS["epsilon"], type=float,
              help="Max per-entry magnitude change.")
@click.option("--alpha", default=_DEFAULTS["alpha"], type=float, help="Per-iteration step size.")
@click.option("--iterations", default=_DEFAULTS["iterations"], type=int)
@click.option("--target-snr", default=_DEFAULTS["target_snr"], type=float,
              help="SNR in dB for the gaussian method.")
@click.option("--seed", default=_DEFAULTS["seed"], type=int)
@click.option("--jobs", default=_DEFAULTS["jobs"], type=click.IntRange(min=1),
              help="Parallel workers, forked processes when more than one; default = CPU count."
                   " With a BLAS thread variable set, each worker runs that many BLAS threads.")
def cmd_protect(**options):
    """Perturb a WAV file or a directory of WAV files.

    Writes one protected 16 kHz WAV plus a JSON report per input, and a
    manifest for the batch. Per-file errors are logged and the batch
    continues; the exit status is nonzero if any file failed.
    """
    try:
        failures = run_protect(**options)
    except AttackConfigError as exc:
        raise click.UsageError(str(exc))
    if failures:
        raise SystemExit(1)


@cli.command("embed")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--weights", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def cmd_embed(**options):
    """Extract an embedding per WAV file into an archive (key = file stem)."""
    run_embed(**options)


@cli.command("eval")
@click.option("--trials", required=True, type=click.Path(exists=True))
@click.option("--enroll", required=True, type=click.Path(exists=True),
              help="Embedding archive for enrollment keys.")
@click.option("--test", required=True, type=click.Path(exists=True),
              help="Embedding archive for test keys.")
@click.option("--out", required=True, type=click.Path(),
              help="Output prefix: <out>.scores.txt and <out>.eer.json.")
def cmd_eval(**options):
    """Score trials with cosine similarity and report the EER."""
    summary = run_eval(**options)
    click.echo(json.dumps(summary))


@cli.command("simmat")
@click.option("--rows", required=True, type=click.Path(exists=True),
              help="Embedding archive for matrix rows.")
@click.option("--cols", default=None, type=click.Path(exists=True),
              help="Embedding archive for columns; defaults to --rows.")
@click.option("--speaker-level", is_flag=True,
              help="Average embeddings per speaker prefix (before the first '-') first.")
@click.option("--out", required=True, type=click.Path())
def cmd_simmat(**options):
    """Write a cosine similarity matrix as CSV."""
    run_simmat(**options)


@cli.command("dump-spec")
@click.argument("input", type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def cmd_dump_spec(**options):
    """Dump a WAV file's magnitude spectrogram as CSV (frames as rows)."""
    run_dump_spec(**options)


@cli.command("rerun")
@click.argument("manifest", type=click.Path(exists=True))
def cmd_rerun(manifest):
    """Re-execute a recorded run; outputs are reproduced bit-exactly."""
    result = run_rerun(manifest)
    if isinstance(result, int) and result:
        raise SystemExit(1)


def main():
    cli(prog_name="voicecloak")


if __name__ == "__main__":
    main()
