"""The one writer of output files: the exact bytes of text and JSON, and a
write that raises leaves the earlier file as it was and no ``.tmp``."""

import pytest

from sonarprep.files import atomic_open, write_json, write_text


def test_json_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": [1, 2.5], "a": {"y": None, "x": "±"}})
    assert path.read_bytes() == (b'{\n  "a": {\n    "x": "\\u00b1",\n    "y": null\n  },\n'
                                 b'  "b": [\n    1,\n    2.5\n  ]\n}\n')


def test_text_is_utf8_with_newline_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_text(path, "±")
    assert path.read_bytes() == b"\xc2\xb1"
    write_text(path, "a\nb\n")
    assert path.read_bytes() == b"a\nb\n"


def test_writer_makes_the_directory(tmp_path):
    write_text(tmp_path / "new" / "t.txt", "x")
    assert (tmp_path / "new" / "t.txt").read_text() == "x"


def test_failed_write_removes_the_directories_it_made(tmp_path):
    (tmp_path / "kept").mkdir()
    for path in (tmp_path / "a" / "b" / "out", tmp_path / "kept" / "c" / "out"):
        with pytest.raises(RuntimeError):
            _raise_inside_block(path)
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert not list((tmp_path / "kept").iterdir())


def _raise_inside_block(path):
    with atomic_open(path) as f:
        f.write(b"partial")
        raise RuntimeError("stop")


@pytest.mark.parametrize("write, error", [
    (_raise_inside_block, RuntimeError),
    (lambda path: write_text(path, "ok\ud800"), UnicodeEncodeError),
    (lambda path: write_json(path, {"x": object()}), TypeError),
], ids=["bytes", "text", "json"])
def test_failed_write_keeps_the_earlier_file_and_leaves_no_tmp(tmp_path, write, error):
    path = tmp_path / "out"
    write_text(path, "before\n")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"before\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
