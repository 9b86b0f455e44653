"""Plain-text artifact formats shared across the pipeline.

Matrices (snapshots, bases, model payloads) are stored as one header line
"rows cols" (a model block prefixes it with "@name ") followed by one line
per column of %.17g doubles, so files round-trip float64 exactly. A block
is read one column line at a time into a preallocated array, so a read
holds the array plus one line of text, and each column line must carry
exactly "rows" values. It reads back Fortran-ordered; a loaded model holds
C-ordered arrays, as the fitted model does, and so predicts bit for bit
like it. Small key-value metadata uses "key = value" lines. Tables go to
CSV with a header row.
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np


def format_double(v: float) -> str:
    return format(float(v), ".17g")


def write_block(fh, arr: np.ndarray, head: str = "") -> None:
    """A "<head>rows cols" line, then one line of %.17g doubles per column."""
    fh.write(f"{head}{arr.shape[0]} {arr.shape[1]}\n")
    for col in arr.T:
        fh.write(" ".join(format_double(v) for v in col) + "\n")


def read_block(fh, rows: int, cols: int, where) -> np.ndarray:
    """The `cols` column lines that follow a block header, as rows x cols."""
    out = np.empty((cols, rows))
    for j in range(cols):
        values = fh.readline().split()
        if len(values) != rows:
            raise ValueError(f"{where}: column {j} has {len(values)} values, expected {rows}")
        out[j] = values
    return out.T


def write_matrix(path, arr) -> None:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("matrix format holds 2d arrays only")
    with open(path, "w") as fh:
        write_block(fh, arr)


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad matrix header {header!r}")
        arr = read_block(fh, int(header[0]), int(header[1]), path)
        if fh.read().strip():
            raise ValueError(f"{path}: data after the last column")
    return arr


def write_keyvalues(path, mapping: dict) -> None:
    with open(path, "w") as fh:
        for key, val in mapping.items():
            fh.write(f"{key} = {val}\n")


def read_keyvalues(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def read_csv(path):
    """Return (header, rows-as-strings)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)
