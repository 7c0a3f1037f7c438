"""Independent references shared by the test modules."""

import math

import numpy as np
import scipy.sparse

from segpart.grid import GridDomain, Mask, ScalarField, _distance_to


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


def half_plane_holder(f: ScalarField, alpha: float, floor: float = 0.0, visit=None) -> float:
    """``grid._holder_seminorm`` before it knew mirrors: the bounded scan
    over every offset (a, b) of the half-plane a > 0 or a = 0 < b, whatever
    the field's symmetry.  ``visit(a, b)``, if given, is called for each
    offset the scan evaluates, in scan order."""
    if not (math.isfinite(floor) and floor >= 0.0):
        raise ValueError(f"holder floor must be finite and nonnegative, got {floor}")
    nz = np.nonzero(f.values)
    if nz[0].size == 0:
        return floor
    v = f.values[tuple(slice(max(i.min() - 1, 0), i.max() + 2) for i in nz)]
    mx, my = v.shape

    def steepest(diff: np.ndarray) -> float:
        return float(np.abs(diff).max(initial=0.0))

    gx, gy = steepest(v[1:] - v[:-1]), steepest(v[:, 1:] - v[:, :-1])
    g_diag = steepest(v[1:, 1:] - v[:-1, :-1])  # steps (1, 1), for b >= 0
    g_anti = steepest(v[1:, :-1] - v[:-1, 1:])  # steps (1, -1), for b < 0
    a, b = np.meshgrid(np.arange(mx), np.arange(1 - my, my), indexing="ij")
    half = (a > 0) | (b > 0)
    a, b = a[half], b[half]
    lo, hi = np.minimum(a, abs(b)), np.maximum(a, abs(b))
    diag_path = np.where(b >= 0, g_diag, g_anti) * lo
    diag_path += np.where(a == hi, gx, gy) * (hi - lo)
    path = np.minimum(gx * a + gy * abs(b), diag_path)
    dist_alpha = (f.domain.h * np.hypot(a, b)) ** alpha
    bound = np.minimum(path, float(np.ptp(v))) / dist_alpha
    best = floor
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] <= best:
            break
        if visit is not None:
            visit(int(a[k]), int(b[k]))
        ak, p, q = int(a[k]), max(int(b[k]), 0), max(-int(b[k]), 0)
        diff = v[ak:, p : my - q] - v[: mx - ak, q : my - p]
        best = max(best, steepest(diff) / float(dist_alpha[k]))
    return best


def jaccard_match(state, ref) -> list[int]:
    """Greedy maximal-Jaccard assignment of ``state``'s components onto
    ``ref``'s, ties broken by the lower index pair: entry j is the
    component of ``state`` that overlaps ``ref``'s component j best.  The
    sweep once matched its levels to the r = 0 state this way."""
    k = state.k
    scores = np.zeros((k, k))
    for i in range(k):
        a = state.supports[i].nodes
        for j in range(k):
            b = ref.supports[j].nodes
            union = float(np.logical_or(a, b).sum())
            scores[i, j] = float(np.logical_and(a, b).sum()) / union if union > 0 else 0.0
    perm = [-1] * k
    used_i: set[int] = set()
    used_j: set[int] = set()
    for _, i, j in sorted((-scores[i, j], i, j) for i in range(k) for j in range(k)):
        if i not in used_i and j not in used_j:
            perm[j] = i
            used_i.add(i)
            used_j.add(j)
    return perm
