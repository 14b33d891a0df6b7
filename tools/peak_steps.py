"""Where a benchmark pass's peak resident memory is set, function by function.

Usage, from the root of a checkout:

  python3 tools/peak_steps.py WORKLOAD SRC SEED

WORKLOAD names one of `bench/workloads.py`'s workloads, and SRC is a
directory holding a `voicecloak` package, such as the `src/` of a
checkout. The script writes the workload's inputs from SEED in a temporary
directory, then runs `bench/worker.py`'s pass of the job in a fresh
process, with BLAS pinned as `bench/run.py` pins it. From the call of
`workloads.run_job` on, a `sys.setprofile` hook reads the process's
`VmHWM` at every call and return. Each rise is charged to the code that ran since the previous
event: the body of the Python function being called from or returning, or
the C function returning. The kernel folds RSS counts in batches, so a
charge can land a few events late. It prints the TOP functions that raised
`VmHWM` most, with their share in MiB and the number of rises, and the
call, with its stack, whose rise set the pass's final peak.

The peak depends on where glibc places each array, so anything that
allocates in the process moves it. The child imports no more than the
worker does, and the hook reads `/proc` into one buffer, allocating
nothing from malloc. Even so, a hooked pass peaked up to 0.7 MiB away
from an unhooked one: take the ranking as where memory goes, and
`tools/ab_passes.py` for the figure. Nothing is written under bench/.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
STACK_DEPTH = 8  # frames named for the call that set the final peak
TOP = 12  # functions listed


def vmhwm_kib(status) -> int:
    """The VmHWM field of a /proc/<pid>/status text, in KiB."""
    start = status.index(b"VmHWM:") + len(b"VmHWM:")
    return int(status[start:status.index(b"kB", start)])


def _frame_name(frame) -> str:
    code = frame.f_code  # co_qualname is new in Python 3.11
    return f"{frame.f_globals.get('__name__', '?')}.{getattr(code, 'co_qualname', code.co_name)}"


def _c_name(func) -> str:
    module = getattr(func, "__module__", None) or type(getattr(func, "__self__", None)).__module__
    return f"{module}.{getattr(func, '__qualname__', repr(func))}"


class PeakWatch:
    """A profile hook that charges every rise of a counter to the code that caused it.

    `read` returns the current high-water mark; `rises` maps a function
    name to [KiB, count], and `last` holds the stack of the latest rise.
    """

    def __init__(self, read):
        self.read = read
        self.peak = read()
        self.start = self.peak
        self.rises: dict[str, list[int]] = {}
        self.last: list[str] = []

    def __call__(self, frame, event, arg) -> None:
        now = self.read()
        if now <= self.peak:
            return
        if event == "call":  # the caller's body ran up to this call
            frame = frame.f_back
        name = _c_name(arg) if event in ("c_return", "c_exception") else _frame_name(frame)
        entry = self.rises.setdefault(name, [0, 0])
        entry[0] += now - self.peak
        entry[1] += 1
        self.peak = now
        self.last = [name]
        while frame is not None and len(self.last) < STACK_DEPTH:
            code = frame.f_code
            self.last.append(f"{_frame_name(frame)} ({Path(code.co_filename).name}:{frame.f_lineno})")
            frame = frame.f_back

    def report(self, top: int) -> dict:
        ranked = sorted(self.rises.items(), key=lambda item: -item[1][0])[:top]
        return {
            "start_mib": round(self.start / 1024, 2),
            "peak_mib": round(self.peak / 1024, 2),
            "rises": [[name, round(kib / 1024, 2), count] for name, (kib, count) in ranked],
            "final_peak_stack": self.last,
        }


def _child(workload: str, work: str, src: str) -> None:
    """`bench/worker.py`'s pass, hooked from `run_job` on; prints the worker's
    reply and then this report, each as one JSON line on stdout."""
    replies = sys.stdout
    sys.path.insert(0, str(BENCH))
    sys.argv = [str(BENCH / "worker.py"), workload, work, src, "pass"]
    import worker

    fd = os.open("/proc/self/status", os.O_RDONLY)
    status = bytearray(8192)  # one buffer: a new bytes object per read would come from malloc
    watches = []

    def read() -> int:
        os.preadv(fd, [status], 0)
        return vmhwm_kib(status)

    def start_at_run_job(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_name == "run_job" \
                and frame.f_globals.get("__name__") == "workloads":
            watches.append(PeakWatch(read))
            sys.setprofile(watches[0])

    sys.setprofile(start_at_run_job)
    try:
        worker.main()
    finally:
        sys.setprofile(None)
        os.close(fd)
    print(json.dumps(watches[0].report(TOP)), file=replies)


def print_report(report: dict) -> None:
    print(f"VmHWM {report['start_mib']} MiB before the pass, {report['peak_mib']} MiB after")
    print("largest rises by function (MiB, rises):")
    width = max((len(name) for name, _, _ in report["rises"]), default=0)
    for name, mib, count in report["rises"]:
        print(f"  {name:<{width}}  {mib:6.2f}  {count}")
    print("final peak set by:", report["final_peak_stack"][0] if report["final_peak_stack"] else "-")
    for line in report["final_peak_stack"][1:]:
        print(f"  in {line}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:  # the fresh process of the pass
        _child(argv[1], argv[2], argv[3])
        return 0
    import argparse
    import subprocess
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a workload of bench/workloads.py")
    parser.add_argument("src", type=Path, help="directory holding the voicecloak package")
    parser.add_argument("seed", type=int, help="seed of the workload inputs")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "voicecloak" / "__init__.py").is_file():
        print(f"error: no voicecloak package in {src}", file=sys.stderr)
        return 2
    caller_env = dict(os.environ)
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(src), str(BENCH)]
    import run

    os.environ.update(run.PIN_BLAS)  # before NumPy loads
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(caller_env, PYTHONDONTWRITEBYTECODE="1",
               **(run.PIN_BLAS if args.workload in workloads.ONE_BLAS_THREAD else {}))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / args.workload
        work.mkdir()
        workloads.make_inputs(args.workload, work, args.seed)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", args.workload, str(work),
             str(src)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=1200,
        )
    if done.returncode != 0:
        print(f"error: the pass exited with code {done.returncode}", file=sys.stderr)
        return 1
    reply, report = map(json.loads, done.stdout.splitlines()[-2:])
    if reply["failed"]:
        print(f"error: {reply['failed']} files failed", file=sys.stderr)
        return 1
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
