"""Field serialization: a one-line JSON header followed by raw coefficients.

Layout of a .fld file:

    {"d": ..., "theta": [...], "M": ...}\n
    little-endian complex128 ("<c16": re then im, each a float64), row-major k
    order, k = -M first

The payload is numpy's "<c16" layout on both sides, so a field reads back bit
for bit, signed zeros included.
"""

from __future__ import annotations

import json

import numpy as np

from .core import FrequencyField, TorusGeometry


def write_field(f: FrequencyField, path) -> None:
    header = {"d": f.geometry.d, "theta": list(f.geometry.theta), "M": f.box_radius}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(f.coeffs.astype("<c16").tobytes())


def read_field(path) -> FrequencyField:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    g = TorusGeometry(d=int(header["d"]), theta=tuple(header["theta"]))
    M = int(header["M"])
    coeffs = np.frombuffer(raw, dtype="<c16", count=(2 * M + 1) ** g.d)
    return FrequencyField(g, M, coeffs.astype(np.complex128).reshape((2 * M + 1,) * g.d))
