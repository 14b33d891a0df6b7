"""Interleaved A/B of whole benchmark passes between two voicecloak sources.

Usage, from the root of a checkout:

  python3 tools/ab_passes.py WORKLOAD SEED PAIRS SRC_A SRC_B

SRC_A and SRC_B are directories holding a `voicecloak` package, such as the
`src/` of two checkouts. The script makes the workload's inputs from SEED
once, in a temporary directory, with SRC_A's package (bench/workloads.py
protects the evaluate corpus with the program itself). It then runs PAIRS
pairs of passes, each a fresh `bench/worker.py` process of this checkout:
A then B in even pairs, B then A in odd ones, so a host that drifts or
warms up weighs on both sides alike. BLAS is pinned as bench/run.py pins
it: one thread in this process, and one in the passes of the workloads
that bench/run.py pins. It prints one JSON line: per side, the median and
quartiles of `audio_s_per_s` and of `peak_rss_mib` (the worker's own
`VmHWM`, not its children's) over the passes, and the number of pairs in
which B had the higher `audio_s_per_s`. Nothing is written under bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summary(pairs: list[tuple[dict, dict]], audio_seconds: float) -> dict:
    """Medians and quartiles per side, and the pairs B won on audio_s_per_s.

    Each pair holds the A and the B report of one `worker.py` pass, which
    carry "wall" (seconds) and "peak_rss_mib".
    """
    out: dict = {}
    for side, i in (("a", 0), ("b", 1)):
        out[side] = {
            "audio_s_per_s": _quartiles([audio_seconds / pair[i]["wall"] for pair in pairs]),
            "peak_rss_mib": _quartiles([pair[i]["peak_rss_mib"] for pair in pairs]),
        }
    out["b_wins"] = f"{sum(b['wall'] < a['wall'] for a, b in pairs)}/{len(pairs)}"
    return out


def _pass(name: str, work: Path, src: Path, env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), name, str(work), str(src), "pass"],
        env=env, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{src}: worker exited with code {done.returncode}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["failed"]:
        raise RuntimeError(f"{src}: {report['failed']} operations failed")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int, help="seed of the workload inputs")
    parser.add_argument("pairs", type=int, help="pairs of passes, at least 2")
    parser.add_argument("src_a", type=Path, help="directory holding the A voicecloak package")
    parser.add_argument("src_b", type=Path, help="directory holding the B voicecloak package")
    args = parser.parse_args(argv)
    sources = [args.src_a.resolve(), args.src_b.resolve()]
    for src in sources:
        if not (src / "voicecloak" / "__init__.py").is_file():
            print(f"error: no voicecloak package in {src}", file=sys.stderr)
            return 2
    if args.pairs < 2:
        print(f"error: need at least 2 pairs, got {args.pairs}", file=sys.stderr)
        return 2
    caller_env = dict(os.environ)
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(sources[0]), str(BENCH)]
    import run

    os.environ.update(run.PIN_BLAS)  # before NumPy loads
    import workloads

    name = args.workload
    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}", file=sys.stderr)
        return 2
    env = dict(caller_env, PYTHONDONTWRITEBYTECODE="1",
               **(run.PIN_BLAS if name in workloads.ONE_BLAS_THREAD else {}))
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / name
        work.mkdir()
        audio_seconds = workloads.make_inputs(name, work, args.seed)
        for i in range(args.pairs):
            reports = {}
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                reports[side] = _pass(name, work, sources[side], env)
            pairs.append((reports[0], reports[1]))
    print(json.dumps(summary(pairs, audio_seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
