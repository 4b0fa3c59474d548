"""Reads the binary PGM frames that voxpick writes, for the tests."""

import numpy as np


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) < 4:
        raise ValueError(f"{path}: not a binary 8-bit PGM")
    w, h = (int(v) for v in parts[1].split())
    return np.frombuffer(parts[3][: w * h], dtype=np.uint8).reshape(h, w)
