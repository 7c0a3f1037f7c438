"""Independent references shared by the test modules."""

import numpy as np
import scipy.sparse

from segpart.grid import GridDomain


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
