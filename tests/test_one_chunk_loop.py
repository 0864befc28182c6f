"""Only ``sonarprep/nn.py`` calls ``forward`` and ``backward``. Every other
module runs the network through ``nn.infer``, ``nn.gradients`` or
``nn.grad_cam``, so every pass over a batch is split by the one cell budget
``nn.CHUNK_CELLS`` and no caller picks its own batch size."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sonarprep"
NETWORK = "nn.py"


def network_calls(source: str) -> list[str]:
    """``line: call`` for every call of ``forward`` or ``backward``, bare or
    through a module, in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("forward", "backward"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source", [
    "forward(model, x)", "forward(model, x, cache)", "nn.forward(m, x)",
    "backward(model, cache, g)", "sonarprep.nn.backward(m, c, g, stop=2)"])
def test_guard_sees_each_kind_of_call(source):
    assert network_calls(source)


@pytest.mark.parametrize("source", [
    "infer(model, x)", "gradients(model, x, y)", "grad_cam(model, x[None])",
    "nn.infer(m, x)", "f = forward_hook", "x.forward_fill()"])
def test_guard_passes_the_chunked_entry_points(source):
    assert not network_calls(source)


def test_only_the_network_module_calls_forward_and_backward():
    assert (PACKAGE / NETWORK).is_file()
    found = {path.name: network_calls(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != NETWORK}
    found = {name: calls for name, calls in found.items() if calls}
    assert not found, found
