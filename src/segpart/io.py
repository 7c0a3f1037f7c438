"""File formats: SPF1 fields, P2 PGM masks, atomic writes.

SPF1 is one ASCII header line ``SPF1 <nx> <ny> <h>`` followed by nx*ny
IEEE-754 little-endian float64 values, row-major (row = first index), with
off-mask nodes stored as 0.  Masks travel separately as plain-text PGM (P2),
0 = off, 255 = on.

All writers go through a temp-file + rename so concurrent producers never
interleave partial output.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .grid import GridDomain, Mask, ScalarField


def atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def field_to_bytes(f: ScalarField) -> bytes:
    header = f"SPF1 {f.domain.nx} {f.domain.ny} {f.domain.h!r}\n".encode("ascii")
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    return header + payload


def write_field(path: str, f: ScalarField) -> None:
    atomic_write_bytes(path, field_to_bytes(f))


def read_field(path: str, domain: GridDomain | None = None) -> ScalarField:
    """Read an SPF1 file.

    Without a domain, the field is attached to a free lattice whose mask is
    the set of nonzero values (the header does not carry the mask); pass the
    original domain (or read the PGM sidecar) to recover exact geometry.  A
    domain whose (nx, ny) or spacing h differs from the header's raises
    ``ValueError``; the header holds ``repr(h)``, so h compares exactly.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 4 or header[0] != "SPF1":
            raise ValueError(f"not an SPF1 file: {path}")
        nx, ny, h = int(header[1]), int(header[2]), float(header[3])
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"SPF1 spacing must be finite and positive, got {h} in {path}")
        raw = fh.read(8 * nx * ny)
    if len(raw) != 8 * nx * ny:
        raise ValueError(f"truncated SPF1 payload in {path}")
    values = np.frombuffer(raw, dtype="<f8").reshape(nx, ny).astype(float)
    if domain is None:
        domain = GridDomain.raw(nx, ny, h)
    elif (domain.nx, domain.ny) != (nx, ny):
        raise ValueError(
            f"domain ({domain.nx}, {domain.ny}) does not match file ({nx}, {ny})"
        )
    elif domain.h != h:
        raise ValueError(f"domain spacing {domain.h!r} does not match file spacing {h!r}")
    return ScalarField.from_values(domain, values)


def mask_to_pgm(nodes: np.ndarray) -> str:
    nx, ny = nodes.shape
    lines = [f"P2\n{ny} {nx}\n255"]
    for i in range(nx):
        lines.append(" ".join("255" if on else "0" for on in nodes[i]))
    return "\n".join(lines) + "\n"


def write_mask(path: str, m: Mask) -> None:
    atomic_write_text(path, mask_to_pgm(m.nodes))


def read_mask_array(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        tokens: list[str] = []
        for line in fh:
            hash_at = line.find("#")
            if hash_at >= 0:
                line = line[:hash_at]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"not a P2 PGM file: {path}")
    if len(tokens) < 4:
        raise ValueError(f"truncated PGM header in {path}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(t) for t in tokens[4:]])
    if pixels.size != width * height:
        raise ValueError(
            f"PGM payload has {pixels.size} values, not {width}x{height}, in {path}"
        )
    if maxval <= 0:
        raise ValueError(f"bad PGM maxval in {path}")
    if pixels.size and (pixels.min() < 0 or pixels.max() > maxval):
        raise ValueError(f"PGM pixel value outside [0, {maxval}] in {path}")
    return (pixels.reshape(height, width) > 0)
