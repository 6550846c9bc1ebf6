"""Output files that are either written whole or not at all."""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


@contextmanager
def atomic_file(path: Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path`` for writing.

    When the block ends normally the file replaces ``path`` in one rename;
    when it raises, the file is removed and ``path`` keeps its previous
    content. A reader of the directory never sees a half-written output.
    The file is not synced to disk: this guards against errors in the
    program, not against a crash of the machine.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
