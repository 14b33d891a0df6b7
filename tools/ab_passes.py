"""Interleaved A/B of whole benchmark passes between two voicecloak sources.

Usage, from the root of a checkout:

  python3 tools/ab_passes.py WORKLOAD SEED PAIRS SRC_A SRC_B

SRC_A and SRC_B are directories holding a `voicecloak` package, such as the
`src/` of two checkouts, at resolved paths of equal length: the length of
a source's path alone moves `peak_rss_mib`, so other lengths are refused
(exit 2). The script makes the workload's inputs from SEED once, in a
temporary directory, with SRC_A's package (bench/workloads.py
protects the evaluate corpus with the program itself). It then runs PAIRS
pairs of passes, each a fresh `bench/worker.py` process of this checkout:
A then B in even pairs, B then A in odd ones, so a host that drifts or
warms up weighs on both sides alike. BLAS is pinned as bench/run.py pins
it: one thread in this process, and one in the passes of the workloads
that bench/run.py pins. It prints one JSON line: per side, the median and
quartiles over the passes of `audio_s_per_s`, of `peak_rss_mib` (the
worker's own `VmHWM`, not its children's), and of the pass's CPU time and
minor page faults (`user_s`, `sys_s`, `minor_faults`), the number of pairs
in which B had the higher `audio_s_per_s` (`b_wins`), and the number in
which B had the lower `peak_rss_mib` (`b_peak_wins`). For those two metrics
`gap_over_a_spread` gives B's median minus A's, divided by A's quartile
spread (q3 - q1): a claimed gain needs it beyond 1 in the better direction
as well as 9 of 10 pairs won. It is null where A's spread is 0. The CPU time and faults
are `getrusage(RUSAGE_CHILDREN)` deltas around the pass's process, so they
include the pool workers it reaped. Nothing is written under bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
RUSAGE = ("user_s", "sys_s", "minor_faults")  # a pass's own and its reaped workers'


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summary(pairs: list[tuple[dict, dict]], audio_seconds: float) -> dict:
    """Medians and quartiles per side, the pairs B won ("b_wins" on
    audio_s_per_s, "b_peak_wins" on a lower peak_rss_mib), and for both
    metrics the median gap B - A over A's quartile spread ("gap_over_a_spread").

    Each pair holds the A and the B report of one pass, which carry "wall"
    (seconds), "peak_rss_mib" and the RUSAGE fields.
    """
    out: dict = {}
    for side, i in (("a", 0), ("b", 1)):
        out[side] = {
            "audio_s_per_s": _quartiles([audio_seconds / pair[i]["wall"] for pair in pairs]),
            **{field: _quartiles([pair[i][field] for pair in pairs])
               for field in ("peak_rss_mib", *RUSAGE)},
        }
    for key, field in (("b_wins", "wall"), ("b_peak_wins", "peak_rss_mib")):  # B lower wins
        out[key] = f"{sum(b[field] < a[field] for a, b in pairs)}/{len(pairs)}"
    out["gap_over_a_spread"] = {}
    for field in ("audio_s_per_s", "peak_rss_mib"):
        a, b = out["a"][field], out["b"][field]
        spread = a["q3"] - a["q1"]
        out["gap_over_a_spread"][field] = (
            round((b["median"] - a["median"]) / spread, 2) if spread > 0 else None)
    return out


def _children() -> tuple[float, float, int]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime, usage.ru_minflt


def _pass(name: str, work: Path, src: Path, env: dict) -> dict:
    """The `worker.py` report of one pass, with its RUSAGE fields added."""
    before = _children()
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), name, str(work), str(src), "pass"],
        env=env, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    usage = dict(zip(RUSAGE, (b - a for a, b in zip(before, _children()))))
    if done.returncode != 0:
        raise RuntimeError(f"{src}: worker exited with code {done.returncode}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["failed"]:
        raise RuntimeError(f"{src}: {report['failed']} operations failed")
    return {**report, **usage}


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
    if len(str(sources[0])) != len(str(sources[1])):
        print(f"error: SRC_A {sources[0]} and SRC_B {sources[1]} have paths of different"
              " lengths; copy them to paths of equal length", file=sys.stderr)
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
