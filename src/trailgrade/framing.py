"""Bounds-checked streaming of the TGSS, TGDS and TGM1 binary files, and ``naming``.

A ``Reader`` reads each field from the open file after checking it against
the file's size, so a corrupt count fails before anything is allocated for
it. Running short, undecodable text and trailing bytes raise the format's
error. Writers stream through a buffer of ``CHUNK_BYTES``
(``open(path, "wb", buffering=CHUNK_BYTES)``), so no file is built whole in
memory.
"""

import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import TrailgradeError

#: Buffer size of the binary readers and writers.
CHUNK_BYTES = 1 << 18


@contextmanager
def naming(path):
    """Put ``path`` at the front of a TrailgradeError raised inside, which keeps its type and fields."""
    try:
        yield
    except TrailgradeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


class Reader:
    """An open file, its size and a read position; ``kind`` names the format.

    Its errors name no file: run it inside ``naming(path)``. As a context manager it closes the file on every path.
    """

    def __init__(self, path, error, kind: str):
        self._file = open(path, "rb", buffering=CHUNK_BYTES)
        self.size = os.fstat(self._file.fileno()).st_size
        self.pos = 0
        self._error = error
        self._kind = kind

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def require(self, n: int):
        """Raise the truncation error unless ``n`` more bytes remain."""
        if self.pos + n > self.size:
            raise self._error(f"truncated {self._kind}")

    def take(self, n: int) -> bytes:
        self.require(n)
        chunk = self._file.read(n)
        self._advance(len(chunk), n)
        return chunk

    def readinto(self, array):
        """Fill the C-contiguous ``array`` with the next ``array.nbytes`` bytes."""
        self.require(array.nbytes)
        self._advance(self._file.readinto(array), array.nbytes)

    def _advance(self, got: int, n: int):
        self.pos += got
        if got != n:  # the file shrank after it was opened
            raise self._error(f"truncated {self._kind}")

    def require_finite(self, array, reason: str):
        """Raise the format's error for ``reason`` unless all of ``array`` is finite.

        The check runs a CHUNK_BYTES span at a time, so its mask stays small.
        """
        flat = array.reshape(-1)
        step = CHUNK_BYTES // flat.itemsize
        for lo in range(0, flat.size, step):
            if not np.isfinite(flat[lo : lo + step]).all():
                raise self._error(reason)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def utf8(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise self._error(f"{what} is not UTF-8") from None

    def finish(self):
        """Reject anything after the last field."""
        if self.pos != self.size:
            raise self._error("trailing bytes")
