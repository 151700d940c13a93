"""The traced bench run wraps functions by name: each must still exist."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced() -> tuple:
    """``TRACED`` of bench/spans.py, read from its source without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED")


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module, function, _metric in traced:
        mod = importlib.import_module(f"contract_forge.{module}")
        assert callable(getattr(mod, function, None)), f"contract_forge.{module}.{function}"
