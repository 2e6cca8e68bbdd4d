"""Deterministic text encoding for CSV and JSON output.

All floats are written with 17 significant digits so values round-trip
exactly and repeated runs produce byte-identical files.  A complex number
is written as the pair [re, im] and a tuple as an array.  The stdlib json
module cannot control float formatting, hence the small writer here.
"""

from __future__ import annotations

import json
import math
import os
import stat


def fmt_float(v: float) -> str:
    """17-significant-digit representation; non-finite values keep their
    standard spellings (nan, inf, -inf)."""
    return format(float(v), ".17g")


class Raw(str):
    """Text that is already JSON; json_dumps writes it as it stands."""


def float_template(shape: tuple) -> str:
    """Nested JSON arrays of `shape` with one '%.17g' slot per entry: filled
    with finite floats, it spells them as json_dumps spells the nested lists,
    as '%.17g' % v equals fmt_float(v).  A nan or inf entry is the caller's
    to refuse; it would be spelled nan or inf, which is not JSON."""
    if not shape:
        return "%.17g"
    return "[" + ",".join([float_template(shape[1:])] * shape[0]) + "]"


def json_dumps(obj) -> str:
    """Compact JSON with 17-digit floats; non-finite floats become null,
    a complex number (numpy's included) is written as [re, im] and a tuple
    as an array."""
    if isinstance(obj, Raw):
        return obj
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, complex):
        return f"[{json_dumps(obj.real)},{json_dumps(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{json_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 over the old bytes of `path` and cut a regular file
    at the written length, also when a write raises: inode and mode stay, no
    fsync.  Opening with O_TRUNC instead makes ext4 start writeback on close."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_IFMT(os.fstat(fd).st_mode) == stat.S_IFREG  # /dev/null, a pipe: no cut
        done = 0
        try:
            while done < len(data):  # a pipe may take part of the data per call
                done += os.write(fd, data[done:])
        finally:
            if regular:
                os.ftruncate(fd, done)
    finally:
        os.close(fd)
