"""Line count and settable-value count of the voicecloak package.

Usage, from the root of a checkout:

  python3 tools/surface_count.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/voicecloak. The script reads every `*.py`
directly in it and prints two lines: the total line count, and the number
of settable values. A settable value is one of

* a parameter with a default, in any function or method;
* a field with a default in a class decorated with `dataclass`;
* a click option (`@click.option(...)`); `click.version_option` is not
  counted.

Nothing is written.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "voicecloak"


def _decorator_name(node: ast.expr) -> str:
    """Dotted name of a decorator, with any call stripped: `click.option`, `dataclass`."""
    if isinstance(node, ast.Call):
        node = node.func
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def settable_values(tree: ast.AST) -> int:
    """Defaulted parameters, defaulted dataclass fields and click options in a module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            count += sum(_decorator_name(d) == "click.option" for d in node.decorator_list)
        elif isinstance(node, ast.ClassDef) and any(
            _decorator_name(d) in ("dataclass", "dataclasses.dataclass")
            for d in node.decorator_list
        ):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def surface(package: Path) -> tuple[int, int]:
    """(lines, settable values) over the `*.py` files directly in package."""
    lines = values = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        values += settable_values(ast.parse(text, filename=str(path)))
    return lines, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="directory of the package's modules")
    args = parser.parse_args(argv)
    if not args.package.is_dir():
        print(f"error: {args.package} is not a directory", file=sys.stderr)
        return 2
    lines, values = surface(args.package)
    print(f"lines {lines}")
    print(f"settable values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
