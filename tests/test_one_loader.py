"""Only ``_load_features`` in ``sonarprep/cli.py`` reads a features
directory: it alone reads ``classes.json`` or calls ``read_feature_archive``.
So every command that reads features compares their record with what it
wants before any archive is read, and no command adds an unchecked path.
``featurize`` may still name ``classes.json`` as the path it writes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sonarprep"
LOADER = ("cli.py", "_load_features")


def _name(func: ast.expr) -> str:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def feature_reads(source: str, loader: str | None = None) -> list[str]:
    """``line: code`` for every call of ``read_feature_archive`` and every
    ``"classes.json"`` outside the function named ``loader``, but for the
    path that a ``write_json`` call writes."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == loader:
            allowed.update(id(inner) for inner in ast.walk(node))
        elif isinstance(node, ast.Call) and _name(node.func) == "write_json" and node.args:
            allowed.update(id(inner) for inner in ast.walk(node.args[0]))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if id(node) not in allowed
            and ((isinstance(node, ast.Call) and _name(node.func) == "read_feature_archive")
                 or (isinstance(node, ast.Constant) and node.value == "classes.json"))]


@pytest.mark.parametrize("source", [
    'read_feature_archive(d / "test.sprf")', 'dsp.read_feature_archive(path)',
    'json.loads((d / "classes.json").read_text())', 'path = d / "classes.json"',
    'def _load_other(d):\n    return read_feature_archive(d / "train.sprf")'])
def test_guard_sees_each_kind_of_read(source):
    assert feature_reads(source, LOADER[1])


@pytest.mark.parametrize("source", [
    'write_json(out / "classes.json", record)', 'write_feature_archive(p, x, y)',
    'raise ArchiveFormatError(f"{path}: labels outside 0..1 of classes.json")',
    '"""Reads ``classes.json``."""',
    'def _load_features(d):\n    return read_feature_archive(d / "classes.json")'])
def test_guard_passes_the_loader_and_the_writer(source):
    assert not feature_reads(source, LOADER[1])


def test_only_the_loader_reads_features():
    module, loader = LOADER
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert feature_reads(source), f"{module} has no read for {loader} to hold"
    found = {path.name: feature_reads(path.read_text(encoding="utf-8"),
                                      loader if path.name == module else None)
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: reads for name, reads in found.items() if reads}
    assert not found, found
