"""The only writer of output files. Each is written whole to ``path.tmp``
and renamed onto ``path``, so no command leaves a partial file or a stray
``.tmp``. Text is UTF-8 with ``\\n`` line endings; JSON is sorted and
indented by 2."""

import json
import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open ``path.tmp`` for writing, making its directory, and rename it onto ``path``
    when the block completes; if it raises, remove it and the directories made for it."""
    tmp = f"{path}.tmp"
    made, parent = [], os.path.dirname(os.path.abspath(tmp))  # made: innermost first
    while not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    if made:
        os.makedirs(made[0])
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        for directory in made:  # one that holds a file stays
            with suppress(OSError):
                os.rmdir(directory)


def write_text(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_json(path, record) -> None:
    write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
