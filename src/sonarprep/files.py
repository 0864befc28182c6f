"""The only writer of output files. Each is written whole to ``path.tmp``
and renamed onto ``path``, so no command leaves a partial file or a stray
``.tmp``. Text is UTF-8 with ``\\n`` line endings; JSON is sorted and
indented by 2."""

import json
import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open ``path.tmp`` for writing, making its directory; rename it onto
    ``path`` when the block completes, and remove it if the block raises."""
    tmp = f"{path}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def write_text(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_json(path, record) -> None:
    write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")
