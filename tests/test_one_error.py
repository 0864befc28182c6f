"""``sonarprep`` has one exception type, ``errors.SonarprepError``: every
refusal raises it with a message that says what went wrong and in which
file, and the CLI prints that message as its one ``Error:`` line. So no
module adds a class that derives from an exception, builtin or ours."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sonarprep"
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def _base_name(base: ast.expr) -> str:
    return base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")


def exception_classes(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(file, class)`` for every class in ``sources`` (file name -> source)
    that derives from a builtin exception or from such a class in any of them."""
    classes = [(name, node) for name, source in sources.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    known, found = set(BUILTIN_EXCEPTIONS), []
    grew = True
    while grew:
        grew = False
        for name, node in classes:
            if (name, node.name) not in found and any(
                    _base_name(base) in known for base in node.bases):
                known.add(node.name)
                found.append((name, node.name))
                grew = True
    return sorted(found)


ERRORS = (PACKAGE / "errors.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("source", [
    "class X(SonarprepError):\n    pass", "class X(Exception):\n    pass",
    "class X(errors.SonarprepError):\n    pass", "class X(ValueError):\n    pass",
    "class A(Exception):\n    pass\n\nclass X(A):\n    pass",
    "def f():\n    class X(KeyError):\n        pass"])
def test_guard_sees_each_kind_of_exception_class(source):
    found = exception_classes({"errors.py": ERRORS, "snippet.py": source})
    assert ("snippet.py", "X") in found


@pytest.mark.parametrize("source", [
    "class X:\n    pass", "class X(object):\n    pass", "class X(NamedTuple):\n    a: int",
    "@dataclass(frozen=True)\nclass X:\n    a: int = 0",
    "raise SonarprepError('x.wav: data chunk holds no samples')"])
def test_guard_passes_ordinary_classes(source):
    found = exception_classes({"errors.py": ERRORS, "snippet.py": source})
    assert not [entry for entry in found if entry[0] == "snippet.py"]


def test_one_exception_class():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert exception_classes(sources) == [("errors.py", "SonarprepError")]
