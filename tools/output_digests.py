"""SHA-256 per directory and file suffix of every file the benchmark workloads write.

Usage, from the root of a checkout:

  python3 tools/output_digests.py SRC SEED

SRC is a directory holding the `voicecloak` package to run, such as the
`src/` of this or of another checkout. For each workload of
bench/workloads.py, the script writes the inputs from SEED and runs one
pass of the job (`make_inputs`, then `run_job`) in a fresh temporary
directory, with BLAS on one thread. It then prints one line per directory
and file suffix: the directory, the suffix (`-` for none), the file count,
and a SHA-256 over the names and contents of those files, with the
temporary directory's path replaced by `<work>`. That covers inputs, the
weight file, every output and every manifest. Two runs that print the same
lines wrote the same bytes, so diffing the output of two checkouts shows
whether a change moved any output byte; a directory that mixes WAVs and
JSON reports gets one line for each, so a change that moves only report
bytes leaves the WAV lines as they were. The bench/ modules are imported
and nothing is written there.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
PIN_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def directory_digests(root: Path) -> list[tuple[str, str, int, str]]:
    """(directory relative to root, suffix, file count, SHA-256) per directory and suffix."""
    placeholder = b"<work>"
    needle = str(root).encode("utf-8")
    groups: dict[tuple[str, str], list[Path]] = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        directory = path.parent.relative_to(root).as_posix()
        groups.setdefault((directory, path.suffix), []).append(path)
    rows = []
    for (directory, suffix), files in sorted(groups.items()):
        digest = hashlib.sha256()
        for path in files:
            data = path.read_bytes().replace(needle, placeholder)
            digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
        rows.append((directory, suffix, len(files), digest.hexdigest()))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the voicecloak package")
    parser.add_argument("seed", type=int, help="seed of the workload inputs")
    args = parser.parse_args(argv)
    src, seed = args.src.resolve(), args.seed
    if not (src / "voicecloak" / "__init__.py").is_file():
        print(f"error: no voicecloak package in {src}", file=sys.stderr)
        return 2
    os.environ.update(PIN_BLAS)  # before NumPy loads
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads

    total = 0
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / name
            work.mkdir()
            workloads.make_inputs(name, work, seed)
            failed = workloads.run_job(name, work)
            if failed:
                print(f"error: {name}: {failed} operations failed", file=sys.stderr)
                return 1
            for directory, suffix, count, digest in directory_digests(work):
                print(f"{name}/{directory} {suffix or '-'} {count} {digest}")
                total += count
    print(f"total {total} files, seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
