"""tools/surface_count.py: line and settable-value counts of a package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "surface_count.py"
_spec = importlib.util.spec_from_file_location("surface_count", TOOL)
surface_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface_count)

MODULE = '''import click
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Config:
    required: int
    counted: int = 1
    also_counted: list = field(default_factory=list)


class Plain:
    not_a_field: int = 3


def run(a, b=1, *, c=2, d):
    def inner(e=3):
        return e


@click.command()
@click.version_option("1.0")
@click.option("--x", default=1)
@click.option("--y", is_flag=True)
@click.argument("z")
def cmd(x, y, z):
    pass
'''


def test_counts_lines_and_settable_values(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("def f(x=None):\n    return x\n")
    (tmp_path / "notes.txt").write_text("def g(y=1): pass\n")
    # Config: 2 fields; run: b, c; inner: e; cmd: --x, --y; b.py: x
    assert surface_count.surface(tmp_path) == (len(MODULE.splitlines()) + 2, 8)
    assert surface_count.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"lines {len(MODULE.splitlines()) + 2}\nsettable values 8\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.py", "b.py", "notes.txt"]
