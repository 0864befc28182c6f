"""Every output file reaches disk through ``sonarprep/files.py``. No other
module renames a file into place, writes through ``Path.write_text`` or
``write_bytes``, opens a file for writing, or lays out JSON itself, so
every output is atomic and every text file is UTF-8 with ``\\n`` endings."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sonarprep"
WRITER = "files.py"


def _open_mode(call: ast.Call):
    """The mode of ``open(file, mode)`` or ``path.open(mode)``; None when
    it is not a string literal."""
    index = 1 if isinstance(call.func, ast.Name) else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[index] if len(call.args) > index else ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def writes(source: str) -> list[str]:
    """``line: call`` for every file write in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        owner = getattr(func, "value", None)
        if ((isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"))
                or (name in ("replace", "rename") and getattr(owner, "id", "") == "os")
                or (name == "dump" and getattr(owner, "id", "") == "json")
                or (name == "dumps" and any(k.arg == "indent" for k in node.keywords))
                or (name == "open" and not set(_open_mode(node) or "w") <= set("rbt"))):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source", [
    'Path("x").write_text("y")', 'p.write_bytes(b"")', 'os.replace(a, b)',
    'open(p, "w")', 'open(p, mode="ab")', 'open(p, mode)', 'p.open("x")',
    'json.dump(r, f)', 'json.dumps(r, indent=2, sort_keys=True)'])
def test_guard_sees_each_kind_of_write(source):
    assert writes(source)


@pytest.mark.parametrize("source", [
    'open(p)', 'open(p, "rb")', 'p.open()', 'p.read_text(encoding="utf-8")',
    'json.dumps(v, sort_keys=True)', 'text.replace("a", "b")',
    'write_text(p, "y")', 'write_json(p, r)'])
def test_guard_passes_reads_and_the_writer_functions(source):
    assert not writes(source)


def test_only_the_writer_module_writes_files():
    assert (PACKAGE / WRITER).is_file()
    found = {path.name: writes(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != WRITER}
    found = {name: calls for name, calls in found.items() if calls}
    assert not found, found
