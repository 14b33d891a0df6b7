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
import ctypes
import functools
import inspect
import json
import logging
import math
import os
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
from .audio_io import CANONICAL_RATE, Waveform, read_wav, resample_linear, write_wav
from .encoder import EncoderConfig, init_random, load_weights, save_weights
from .metrics import (
    compute_eer,
    parse_trials,
    score_trials,
    similarity_matrix,
    write_similarity_csv,
)
from .spectral import stft, write_magnitude_csv

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


_COMMANDS: dict[str, typing.Callable] = {}  # command name -> its recorded run_*, for rerun


def _recorded(command: str, manifest: str):
    """Register a `run_*` for rerun as `command`. Once a call returns, its
    arguments, defaults applied, are the params of the manifest written to
    the path `manifest` formats from them; a call that raises writes none."""

    def decorate(run):
        @functools.wraps(run)
        def recorded(*args, **kwargs):
            bound = inspect.signature(run).bind(*args, **kwargs)
            bound.apply_defaults()
            result = run(*args, **kwargs)
            record = {"tool": "voicecloak", "version": __version__, "command": command,
                      "params": bound.arguments}
            text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
            _write_atomically(Path(manifest.format(**bound.arguments)),
                              lambda temp: temp.write_text(text, encoding="utf-8"))
            return result

        _COMMANDS[command] = recorded
        return recorded

    return decorate


def _load_waveform_16k(path) -> Waveform:
    w = read_wav(path)
    if w.sample_rate != CANONICAL_RATE:
        logger.info("resampling %s from %d Hz to %d Hz", path, w.sample_rate, CANONICAL_RATE)
        w = resample_linear(w, CANONICAL_RATE)
    return w


def _collect_wavs(path_str: str) -> list[Path]:
    path = Path(path_str)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".wav")
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


# Set by the user, any of these fixes the BLAS thread count and protect keeps it.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS NumPy loaded, or None."""
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
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get and set_:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    return None


# The OpenBLAS count is process-wide, so the record of who changed it is too.
_blas_lock = threading.Lock()
_blas_active = 0  # blocks inside _blas_threads; guarded by _blas_lock
_blas_saved = 0  # the OpenBLAS count before the first of them


@contextlib.contextmanager
def _blas_threads(n: int):
    """Give OpenBLAS n threads for the block, then restore its count.

    Blocks may overlap in threads of one process: the count in force
    before the first active block is restored when the last one leaves.
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
        _blas_active += 1
        set_(n)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_active -= 1
            if _blas_active == 0:
                set_(_blas_saved)


def _usable_cpus() -> int:
    """CPUs this process may run on; OpenBLAS sizes its own pool the same way."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_file_task = None  # a forked worker's per-file callable, set by the pool's initializer


def _set_file_task(task) -> None:
    global _file_task
    _file_task = task


def _call_file_task(path: Path):
    return _file_task(path)


def _map_files(task, paths: list[Path], jobs: int | None):
    """Yield task(path) for each path, in input order, computed on
    min(jobs or CPUs, files) workers.

    One worker runs in this process. More are processes forked from it,
    because the per-file work is many short NumPy calls that hold the GIL,
    so threads would not overlap them (threads stand in where there is no
    fork). The fork hands task to each worker unpickled; the pool sends
    only paths, in chunks of about a quarter of a worker's share. A task
    that raises ends the iteration with its exception once the files
    before it are yielded; so does a worker that dies. OpenBLAS gets
    CPUs // workers threads meanwhile (see _blas_threads); the workers are
    forked inside that block and inherit the count.
    """
    n_cpus = _usable_cpus()
    workers = min(jobs or n_cpus, len(paths))
    with _blas_threads(max(1, n_cpus // workers)):
        if workers == 1 or not hasattr(os, "fork"):
            pool, call, chunksize = ThreadPoolExecutor(workers), task, 1
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                       initializer=_set_file_task, initargs=(task,))
            call, chunksize = _call_file_task, -(-len(paths) // (4 * workers))
        with pool:
            yield from pool.map(call, paths, chunksize=chunksize)


def _file_seed(base_seed: int, stem: str) -> int:
    # stable per-file seed, independent of batch order and of Python's hash salt
    return (base_seed + zlib.crc32(stem.encode("utf-8"))) & 0xFFFFFFFF


@_recorded("init-encoder", "{out}.manifest.json")
def run_init_encoder(config: str, seed: int, out: str) -> None:
    overrides = json.loads(Path(config).read_text(encoding="utf-8"))
    if not isinstance(overrides, dict):
        raise ValueError(f"{config}: encoder config must be a JSON object")
    defaults = EncoderConfig().to_dict()
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(f"{config}: unknown encoder config keys {unknown}")
    ws = init_random(EncoderConfig.from_dict({**defaults, **overrides}), seed)
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
    its own and the batch goes on. A worker that dies fails every file
    not yet handed back, naming each.

    While the batch runs, OpenBLAS gets CPUs // workers threads, so the
    two pools do not oversubscribe the cores. It is set only when no BLAS
    thread variable is in the environment, and the previous count is
    restored on return, also when this raises. Two batches run at once
    from threads of one process share that count, and the one that
    returns last restores it.
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
    ws = load_weights(weights)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    def protect_one(path: Path) -> None:
        w = _load_waveform_16k(path)
        file_seed = _file_seed(seed, path.stem)
        protected, report = protect_utterance(w, ws, cfg, method, target_snr, file_seed)
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
        _write_atomically(wav_path, lambda temp: write_wav(temp, protected))
        _write_atomically(out_path / f"{path.stem}.json",
                          lambda temp: temp.write_text(text, encoding="utf-8"))
        logger.info("protected %s: SNR %.2f dB, distance %.3f", path.name, report.snr_db, report.delta_cosd)

    def protect_file(path: Path) -> str | None:
        # each file's error comes back on its own, not as the end of its chunk
        try:
            protect_one(path)
        except Exception as exc:
            logger.debug("protecting %s failed", path, exc_info=True)
            return str(exc)
        return None

    def report(path: Path, error: str | None) -> bool:
        if error is not None:
            click.echo(f"error: {path}: {error}", err=True)
        return error is not None

    paths = list(files.values())
    failures = done = 0
    try:
        for done, error in enumerate(_map_files(protect_file, paths, jobs), 1):
            failures += report(paths[done - 1], error)
    except Exception as exc:  # the pool failed (a worker died): so does every file left
        failures += sum(report(path, str(exc)) for path in paths[done:])
    return failures


@_recorded("embed", "{out}.manifest.json")
def run_embed(inputs: tuple[str, ...], weights: str, out: str) -> None:
    """Write the embedding of every input file to one archive, keyed by stem.

    The files are embedded on min(CPUs, files) workers, forked processes
    when more than one (see _map_files); the CPUs are those of the
    process's affinity mask. The first file in input order that fails
    raises its error, and nothing is written.
    """
    files = _by_stem([path for item in inputs for path in _collect_wavs(item)])
    ws = load_weights(weights)

    def embed_one(path: Path):
        return embed(stft(_load_waveform_16k(path)).magnitude, ws)

    embeddings = dict(zip(files, _map_files(embed_one, list(files.values()), None)))
    meta = {"kind": "embeddings", "embed_dim": ws.config.embed_dim, "weights": str(weights)}
    _write_atomically(Path(out), lambda temp: tensorfile.save(temp, embeddings, meta))


@_recorded("eval", "{out}.manifest.json")
def run_eval(trials: str, enroll: str, test: str, out: str) -> dict:
    enroll_ids, test_ids, is_target = parse_trials(trials)
    enroll_embeddings, _ = tensorfile.load(enroll)
    test_embeddings, _ = tensorfile.load(test)
    scores = score_trials(enroll_ids, test_ids, enroll_embeddings, test_embeddings)
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
    row_embeddings, _ = tensorfile.load(rows)
    col_embeddings = row_embeddings if cols is None else tensorfile.load(cols)[0]
    matrix, row_keys, col_keys = similarity_matrix(row_embeddings, col_embeddings, speaker_level)
    _write_atomically(Path(out),
                      lambda temp: write_similarity_csv(temp, matrix, row_keys, col_keys))


@_recorded("dump-spec", "{out}.manifest.json")
def run_dump_spec(input: str, out: str) -> None:
    magnitude = stft(_load_waveform_16k(Path(input))).magnitude
    _write_atomically(Path(out), lambda temp: write_magnitude_csv(magnitude, temp))


def run_rerun(manifest_path: str):
    """Check a manifest against the recorded command's signature, then run it."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest must be a JSON object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"{manifest_path}: unknown command {command!r}")
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"{manifest_path}: 'params' must be a JSON object")
    run = _COMMANDS[command]
    signature = inspect.signature(run)
    if "seed" not in signature.parameters:
        # embed, eval, simmat and dump-spec manifests written before their
        # --seed option was removed record a seed that never affected an output
        params.pop("seed", None)
    if command == "protect" and params.pop("dump_spectrograms", False) is not False:
        # protect manifests from before the spectrogram-dump flag was removed
        # record it; false changed no output, true asked for CSVs protect no longer writes
        raise ValueError(
            f"{manifest_path}: param 'dump_spectrograms' of protect is no longer"
            " supported; run dump-spec on each protected WAV instead"
        )
    try:
        signature.bind(**params)
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
              help="Parallel workers, forked processes when more than one; default = CPU count.")
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
