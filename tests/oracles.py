"""Independent references shared by the test modules."""

import numpy as np
import scipy.sparse

from segpart.grid import GridDomain, Mask, _distance_to


def coo_laplacian(domain: GridDomain, allowed: np.ndarray):
    """-lap_h on the allowed nodes, zero Dirichlet off them, assembled from
    one COO entry per node and per allowed neighbour pair, direction by
    direction: (A, flat_indices) with rows in raster order, as the solver's
    ``_lattice_block`` under the trivial group numbers them."""
    idx_flat = np.flatnonzero(allowed.ravel())
    n = idx_flat.size
    lut = -np.ones(allowed.size, dtype=np.intp)
    lut[idx_flat] = np.arange(n)
    h2 = domain.h * domain.h
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0 / h2)]
    nx, ny = allowed.shape
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.zeros_like(allowed)
        src = allowed[max(0, -di) : nx - max(0, di), max(0, -dj) : ny - max(0, dj)]
        shifted[max(0, di) : nx + min(0, di), max(0, dj) : ny + min(0, dj)] = src
        pi, pj = np.nonzero(allowed & shifted)
        rows.append(lut[pi * ny + pj])
        cols.append(lut[(pi - di) * ny + (pj - dj)])
        vals.append(np.full(pi.size, -1.0 / h2))
    A = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return A, idx_flat


def edt_dilate(m: Mask, r: float) -> np.ndarray:
    """Nodes of the domain mask within ``r`` of ``m``, read off the exact
    Euclidean distance transform: ``grid.dilate`` before it became an
    offset union."""
    if r == 0:
        return m.nodes.copy()
    d = _distance_to(m.nodes, m.domain.h)
    return (d <= r * (1 + 1e-12)) & m.domain.mask


def edt_erode(m: Mask, r: float) -> np.ndarray:
    """Nodes of ``m`` farther than ``r`` from its lattice-wide complement,
    read off the exact Euclidean distance transform: ``grid.erode`` before
    it became an offset union."""
    comp = ~m.nodes
    if r == 0 or not comp.any():
        return m.nodes.copy()
    d = _distance_to(comp, m.domain.h)
    return m.nodes & (d > r * (1 + 1e-12))
