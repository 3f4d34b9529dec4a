"""Bounds-checked reading of the TGSS, TGDS and TGM1 binary files.

Running short, undecodable text and trailing bytes raise the format's error.
"""

import struct
from pathlib import Path


class Reader:
    """A whole file's bytes and a read position; ``kind`` names the format."""

    def __init__(self, path, error, kind: str):
        self.path = path
        self.data = Path(path).read_bytes()
        self.pos = 0
        self._error = error
        self._kind = kind

    def error(self, reason: str):
        """The format's exception for ``reason``, naming the file; raise it."""
        return self._error(f"{self.path}: {reason}")

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise self.error(f"truncated {self._kind}")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def utf8(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} is not UTF-8") from None

    def finish(self):
        """Reject anything after the last field."""
        if self.pos != len(self.data):
            raise self.error("trailing bytes")
