"""One pass of a workload's job in a fresh process, as one CLI invocation runs.

Usage: python3 worker.py <workload> <work dir> <src dir> {pass,trace,setup}

Times `import voicecloak` plus `load_weights` (the set-up every invocation
pays), then, unless the mode is `setup`, one pass of the job, and prints one
JSON line: {"setup_s", "wall", "failed", "peak_rss_mib"}, plus "layers" and
"spans" in `trace` mode. The program's own output goes to stderr. BLAS
threading is whatever the environment this process starts with says.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_mib() -> float:
    """VmHWM of this process. Unlike ru_maxrss, which on Linux keeps the
    resident size of the process that forked this one, it counts only the
    memory this program touched since exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    name, work, src, mode = sys.argv[1], Path(sys.argv[2]), sys.argv[3], sys.argv[4]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import voicecloak

    voicecloak.load_weights(work / "weights.bin")
    setup = time.perf_counter() - start
    if mode == "setup":
        print(json.dumps({"setup_s": setup}))
        return

    import voicecloak.cli  # noqa: F401  (every module is loaded before tracing wraps them)
    import workloads
    from tracing import Tracer

    replies, sys.stdout = sys.stdout, sys.stderr
    workloads.clear_outputs(name, work)
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    start = time.perf_counter()
    failed = workloads.run_job(name, work)
    wall = time.perf_counter() - start
    tracer.uninstall()

    reply = {"setup_s": setup, "wall": wall, "failed": failed,
             "peak_rss_mib": peak_rss_mib()}
    if mode == "trace":
        reply["layers"] = tracer.layer_metrics()
        reply["spans"] = tracer.spans
    print(json.dumps(reply), file=replies)


if __name__ == "__main__":
    main()
