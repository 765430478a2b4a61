"""CSV writing with lossless float round-trip, and atomic file replace.

Conventions: comma separators, one header row, LF endings, UTF-8, numbers
at 17 significant digits (bit-exact for IEEE doubles).  Missing values
(NaN in memory) are empty fields, never NaN/inf tokens: format_value takes
a float (numpy floats included).  The package only writes CSV; the tests
read it back (tests/helpers.py).
"""

from __future__ import annotations

import contextlib
import math
import os


def format_value(x: float) -> str:
    return "" if math.isnan(x) else format(x, ".17g")


@contextlib.contextmanager
def atomic_write(path: str):
    """UTF-8, LF text handle on a temp file that replaces ``path`` on success;
    any exception removes the temp file and leaves ``path`` as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
