"""The benchmark traces package functions by name (``SPANNED`` in
perfbench/layers.py); a rename or a removal there would leave a span that
never fires, so every spanned name must stay a function of its module.
Its ``nn.gflop`` metric reads the fields of the layer descriptors, so those
must stay too."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from sonarprep.nn import DEFAULT_ARCHITECTURE

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def spanned() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED table in {LAYERS}")


def test_spanned_names_are_module_functions():
    missing = []
    for module_name, names in spanned().items():
        module = importlib.import_module(f"sonarprep.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"{module_name}.{name}")
    assert not missing, missing


def test_forward_flops_reads_layer_fields(monkeypatch):
    """``nn.gflop`` counts FLOPs from the layer descriptors' fields."""
    monkeypatch.syspath_prepend(str(LAYERS.parent))  # layers.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.forward_flops(DEFAULT_ARCHITECTURE, 4, (1, 1, 501, 64)) == 82_962_688
