"""Whole-job benchmark for voicecloak: protection and ASV evaluation.

Usage, from the root of a checkout:

  python3 bench/run.py --workload {protect-ifgsm,protect-batch,evaluate}
                       --seed N --seconds S --trace {0,1}

Makes the workload's inputs from the seed, runs its whole job through
`voicecloak.cli`, one fresh worker process per pass, for S seconds,
checks the outputs apart from the program, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (setup_s, audio_s_per_s, peak_rss_mib); with
--trace 1 they are the per-layer ones of tracing.PER_LAYER, from traced
passes that alternate with untraced ones so the tracing overhead shows.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PIN_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
SETUP_PROBES = 2  # set-up-only worker starts after every untraced pass


def run_worker(name: str, work: Path, env: dict, mode: str) -> dict:
    """A fresh worker process in `mode` (pass, trace or setup); returns its report."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), name, str(work), str(SRC), mode],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "voicecloak" / "__init__.py").is_file():
        print(f"error: no voicecloak sources at {SRC}", file=sys.stderr)
        return 2
    # The job gets the caller's environment; this process pins its own BLAS
    # to one thread before NumPy loads, so the inputs it makes do not depend
    # on the core count.
    caller_env = dict(os.environ)
    os.environ.update(PIN_BLAS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    name, traced = args.workload, bool(args.trace)
    job_env = dict(caller_env, **(PIN_BLAS if name in workloads.ONE_BLAS_THREAD else {}))
    work = BENCH / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    audio_seconds = workloads.make_inputs(name, work, args.seed)
    ops = workloads.operations_per_pass(name)
    outputs = workloads.output_dirs(name, work)

    # warm-up pass: fully checked, and the reference for byte identity
    first = run_worker(name, work, job_env, "pass")
    attempted, failed = ops, first["failed"]
    faults = workloads.check_outputs(name, work)
    reference = checks.digests(*outputs)

    plain, traced_passes, setups = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not faults and (time.perf_counter() < deadline or len(plain) < MIN_PASSES):
        for mode in ("pass", "trace") if traced else ("pass",):
            reply = run_worker(name, work, job_env, mode)
            attempted += ops
            failed += reply["failed"]
            faults += checks.check_identical(reference, checks.digests(*outputs))
            (traced_passes if mode == "trace" else plain).append(reply)
        if not traced:
            setups += [run_worker(name, work, job_env, "setup") for _ in range(SETUP_PROBES)]

    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)
    if faults:
        metrics = {}
    elif traced:
        layers = {m: statistics.median(p["layers"][m] for p in traced_passes)
                  for m in traced_passes[0]["layers"]}
        layers["trace.overhead_ratio"] = median(traced_passes, "wall") / median(plain, "wall")
        metrics = {m: {"value": layers[m], "unit": unit} for m, unit, _ in tracing.PER_LAYER}
        events = [e for i, p in enumerate(traced_passes) for e in tracing.chrome_events(p["spans"], i)]
        (work / "trace.json").write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": median(plain + setups, "setup_s"), "unit": "s"},
            "audio_s_per_s": {"value": audio_seconds / median(plain, "wall"), "unit": "audio-s/s"},
            "peak_rss_mib": {"value": median(plain, "peak_rss_mib"), "unit": "MiB"},
        }
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
