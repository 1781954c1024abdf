"""Names that code outside the package looks up by string still exist."""

import ast
import importlib
from pathlib import Path

import ctalign

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> tuple[str, ...]:
    """perfbench's TRACED tuple, read from the source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for qualified in names:
        module, _, func = qualified.rpartition(".")
        assert callable(getattr(importlib.import_module(module), func, None)), qualified


def test_every_export_resolves():
    for name in ctalign.__all__:
        assert hasattr(ctalign, name), name
