"""The benchmark's tracer wraps functions by name; every name must still exist.

`bench/tracing.py` is parsed, not imported, so the check runs without the
benchmark's own dependencies and writes nothing under `bench/`.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no LAYERS")


def test_every_traced_layer_is_a_voicecloak_callable():
    layers = _layers()
    assert layers
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"voicecloak.{module}"), name, None))
    ]
    assert missing == []
