"""The benchmark traces package functions by name (``SPANNED`` in
perfbench/layers.py); a rename or a removal there would leave a span that
never fires, so every spanned name must stay a function of its module.
Its ``nn.gflop`` metric reads the fields of the layer descriptors, so those
must stay too, and so must the Waveform fields its resample metrics read."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from sonarprep.nn import DEFAULT_ARCHITECTURE
from sonarprep.wavio import Waveform

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


@pytest.fixture
def layers(monkeypatch):
    """perfbench/layers.py, loaded from its file."""
    monkeypatch.syspath_prepend(str(LAYERS.parent))  # layers.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forward_flops_reads_layer_fields(layers):
    """``nn.gflop`` counts FLOPs from the layer descriptors' fields."""
    assert layers.forward_flops(DEFAULT_ARCHITECTURE, 4, (1, 1, 501, 64)) == 82_962_688


def test_resample_probe_reads_waveform_fields(layers):
    """The ``dsp.resample`` metrics read the rate, samples and source ID of
    its Waveform argument and take the target rate second."""
    probe = layers.Probes().resample
    assert probe((Waveform(np.ones(441), 22050, "r"), 8000), {}, None) == {
        "converted": 1, "audio_s": 0.02, "key": ("r", 22050, 8000)}
    assert probe((Waveform(np.ones(441), 22050, "r"), 22050), {}, None) == {"converted": 0}
