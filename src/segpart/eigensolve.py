"""First Dirichlet eigenpairs of the masked Laplacian and 1-D reference solvers.

The 2-D solver works per 4-connected component of the allowed node set,
each on its bounding lattice box.  The set is one component if its rows are
contiguous runs that each share a column with the next; else
scipy.ndimage labels its components.  The Laplacian is
block-diagonal over components, so each component's ground state is an
eigenpair of the whole set.  Each component starts from the discrete ground
state of its box, sin x sin in closed form, taken on the component's nodes:
it is positive, so it is never orthogonal to the component's positive
ground state.  When the component fills its box it is that ground state:
the 5-point stencil on the zero-padded box gives its residual, and the solve
ends with no matrix built (``iterations == 0``), or raises ConvergenceError
at once if that residual misses ``tol``.  Otherwise the component is
folded onto the orbits of the group its lattice mirror symmetries generate
(the two axis mirrors of its box and, on a square box, the diagonal): its
ground state is simple, so every symmetry of the block fixes it, and the
solve runs on P^T A P for the orthonormal orbit basis P, which has up to 8
times fewer rows (Bossavit, Symmetry, groups, and boundary value problems,
CMAME 1986).  A component without a mirror has the trivial group, every
node its own orbit, and P = I.  One routine assembles every block straight
from the box's neighbour table, one row per orbit, each row's columns
sorted; neither A nor P is formed.  The solver factors that block,
shifted by sigma = 0.99 * floor, and runs shifted inverse iteration.
The orbits are numbered in raster order, where a node's neighbours lie at
most one box row away, so the block is banded, its lower half-bandwidth kd
about the box's width.  Under the diagonal they are numbered along
anti-diagonals of the fold's wedge, shorter than its rows, and kd narrows
(46 to 33 on the n = 128 disk, 126 to 64 on the n = 128 L-shape).
Up to kd = 64 the factor is banded Cholesky (LAPACK's dpbtrf and dpbtrs):
no ordering and no CSC copy, and faster than SuperLU there (George and Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981, on
envelope against nested-dissection orderings).  A wider block is factored
by SuperLU (a symmetric minimum-degree ordering, no pivoting).  The floor is
the larger of two lower bounds on the component's lambda_1: lambda_1 of
its bounding box (Cauchy interlacing) and Gershgorin's smallest
(4 - neighbours) / h^2 over its nodes, so the shifted block stays SPD.
Within a connected component the ground state is simple and the error
contracts by (lambda_1 - sigma) / (lambda_2' - sigma) per solve,
lambda_2' >= lambda_2 the second eigenvalue among mirror-invariant vectors,
always below the zero-shift ratio lambda_1 / lambda_2, which
near-degenerate clusters on different components would push towards 1 on
the whole set.  Within one component a near-degenerate pair (two lobes
joined by a narrow bridge) still pushes that ratio towards 1, so a block
that has not met ``tol`` after 100 solves is factored again at the shift
lam - residual, which a factor that exists certifies below lambda_1, and
the pair separates in a few more solves (Parlett, The Symmetric Eigenvalue
Problem, SIAM 1998, on inverse iteration and residual bounds).  No step is
random, so a result depends only on the domain, the allowed set and
``tol``.  The loop's dot products and norms are plain numpy reductions that
never call BLAS, and the banded factor gives the same bits on one BLAS
thread as on the default count (tests hold the n=128 disk, a whole n=48
sweep and a refined bridged pair to that), so the results do not depend on
the BLAS thread count.  SuperLU is imported from scipy.sparse.linalg only
when a block needs it.

The 1-D references: first zeros of Bessel J_nu (bisection on the sign of
scipy's jv in a classical bracket, down to adjacent floats), the
radial ground state of a ball in dimension N in closed form (scipy's
0F1), and the first Laplace-Beltrami eigenvalue of a
spherical cap through the weighted Sturm-Liouville problem with weight
sin(theta)^(N-2).  Its finite differences give a tridiagonal pencil
K w = lam B w, K symmetric positive definite and B diagonal.  K is factored
once as L D L^T (LAPACK's dpttrf) and inverse iteration runs on the pencil
itself, from the continuous hemisphere profile cos(pi theta / (2 theta_r)),
until two successive quotients (w^T B w) / (y^T B w) agree to 1e-13
relative.  The pencil is never symmetrized by B^-1/2: that matrix's norm
grows like 1.5^(N-2) / dtheta^2, and bisection on it is accurate only to
ulp times that norm.  The iteration's quotient has positive terms only, so
lam stays within 1.1e-6 of the hemisphere's N - 1 up to N = 88 at 4096
nodes; beyond that the weights underflow, K is no longer positive
definite and the solve raises ValueError.  ``poincare_check`` only
forwards to the Poincare quotient in ``monotonicity``, with the ball estimates.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .errors import ConvergenceError, EmptyRegionError
from .grid import GridDomain, Mask, ScalarField, _ball_box, _checked, _stencil_laplacian

# inverse-iteration shift as a fraction of the component's eigenvalue floor:
# the shifted block's smallest eigenvalue stays at or above 0.01 * lambda_1
_SHIFT = 0.99
# solves before a block first refines its shift, and again at twice, four
# times ... as many: no benchmark block takes more than 17, while a
# near-degenerate pair (two lobes joined by a bridge) contracts by 0.998 per
# solve or slower at the floor's shift; sooner, a factor costs more than the
# few solves it saves
_REFINE_AFTER = 100
# widest lower half-bandwidth factored by banded Cholesky rather than
# SuperLU.  Factor plus 6 solves on an unmirrored m x m box (kd = m), 2-core
# Xeon: banded 1.5 / 3.1 / 4.8 / 7.8 ms against SuperLU 2.8 / 5.2 / 8.2 /
# 12.4 ms at m = 48 / 64 / 80 / 96 on one BLAS thread; from kd = 72 the
# blocked dpbtrf splits its level-3 calls over both threads, its CPU time
# doubles and its wall-time lead shrinks to 0-15% (5.7 ms wall and 9.9 ms
# CPU against SuperLU's 6.8 ms at 72)
_BAND_MAX = 64
# solves of one block, across all its shifts, before ConvergenceError
_MAX_SOLVES = 10_000


@dataclass(frozen=True, eq=False)
class EigenResult:
    """First eigenpair of the masked Dirichlet Laplacian.

    ``field`` is L2-normalized (h-weighted) and nonnegative.  ``residual``
    is the l2 norm of ``A x - lam x`` for the solver's unit-l2 coefficient
    vector x = h * field on the carrying component, A the 5-point Laplacian
    -lap_h on that component's nodes with zero Dirichlet values off them,
    as the solve ended, before the sign fix; the same norm of ``field`` is
    1/h times larger.
    """

    lam: float
    field: ScalarField
    residual: float
    iterations: int

    def to_sidecar(self) -> dict:
        return {
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _lattice_block(box: np.ndarray, h: float, orbits) -> sparse.csr_matrix:
    """CSR matrix P^T A P of -lap_h on the nodes of the boolean array
    ``box``, zero Dirichlet off them, folded onto the orbits
    ``orbits = (orbit, reps, size)`` from ``_mirror_orbits``.

    P is the orthonormal orbit basis (entries 1/sqrt|o| on orbit o's nodes)
    and A the block of the nodes in raster order; neither is formed.  The
    neighbour table is the box padded by one excluded ring, so every node
    has four neighbours, with offsets -W, -1, 0, +1, +W.  Row o is sqrt|o|
    times the row of A P at o's representative: each neighbour adds -1/h^2,
    the node itself 4/h^2, times 1/sqrt|orbit|, and a neighbour in an orbit
    already seen in table order adds onto that orbit's first entry, in table
    order.  A representative is its orbit's first node in raster order, and
    the orbits are numbered in the raster order of their representatives or,
    under the diagonal, along anti-diagonals by (a + b, a): either way the
    orbits a row reaches through -W, -1, 0, +1, +W, repeats merged, come in
    that order, so each row's columns come out sorted and unique: the block
    is canonical CSR, with the bits of scipy's product ``A[reps] @ P`` with
    sorted indices.  Under the trivial group it is A itself, each entry
    -1/h^2 or 4/h^2.  No entry sums to zero (a node has at most two
    neighbours in its own orbit), so none is dropped.
    """
    orbit, reps, size = orbits
    mi, mj = box.shape
    w = mj + 2
    pad = np.zeros((mi + 2, w), dtype=bool)
    pad[1:-1, 1:-1] = box
    centre = np.flatnonzero(pad)
    # the lookup holds orbit numbers in the index dtype scipy picks, so the
    # table's kept entries are the block's column indices.  The (5, rows)
    # table is gathered offset-major, so each offset's comparisons and sums
    # run on contiguous rows; its node-major copies give the CSR arrays row
    # by row
    itype = np.int32 if 5 * centre.size <= np.iinfo(np.int32).max else np.intp
    lut = np.full(pad.size, -1, dtype=itype)
    lut[pad.ravel()] = orbit
    table = lut[np.array([-w, -1, 0, 1, w])[:, None] + centre[reps]]
    keep = table >= 0
    terms = (np.array([-1.0, -1.0, 4.0, -1.0, -1.0]) / (h * h))[:, None] * (
        1.0 / np.sqrt(size))[table]
    # a neighbour in an orbit seen earlier in the row adds onto that orbit's
    # first entry, in table order
    for t in range(1, 5):
        for first in range(t):
            rows = np.flatnonzero(keep[t] & (table[t] == table[first]))
            if rows.size:
                terms[first, rows] += terms[t, rows]
                keep[t, rows] = False
    terms *= np.sqrt(size)
    indptr = np.zeros(reps.size + 1, dtype=itype)
    k = keep.view(np.int8)  # int8 adds: a bool sum over the short axis is slow
    np.cumsum(k[0] + k[1] + k[2] + k[3] + k[4], out=indptr[1:])
    keep = keep.T.copy()
    return sparse.csr_matrix(
        (terms.T.copy()[keep], table.T.copy()[keep], indptr), shape=(reps.size, reps.size))


def masked_laplacian(domain: GridDomain, allowed: np.ndarray):
    """Sparse SPD matrix of -lap_h on the allowed nodes (zero Dirichlet off).

    Returns (A, flat_indices) where flat_indices maps matrix rows to
    positions in the raveled (nx, ny) lattice.  Rows are numbered in raster
    order and each row's columns are sorted: ``_lattice_block`` under the
    trivial group, with the whole lattice as the box.  The solver itself
    never builds it: it works on each component's box.
    """
    flat = np.flatnonzero(allowed.ravel())
    nodes = np.arange(flat.size)
    return _lattice_block(allowed, domain.h, (nodes, nodes, np.ones_like(nodes))), flat


def _stencil(x: np.ndarray, box: np.ndarray, h: float) -> np.ndarray:
    """-lap_h x on the nodes of ``box`` (raster order) for ``x`` on them, zero
    off them, with the bits of the product with ``_lattice_block`` of ``box``
    under the trivial group up to the sign of an exact zero, which no dot
    product or norm of it sees."""
    pad = np.zeros((box.shape[0] + 2, box.shape[1] + 2))
    pad[1:-1, 1:-1][box] = x
    return _stencil_laplacian(pad, h)[box]


class _BandedCholesky:
    """L L^T of a shifted block in LAPACK's (kd + 1, n) lower band storage,
    from ``dpbtrf``; ``solve`` runs ``dpbtrs``, as SuperLU's ``solve`` does."""

    def __init__(self, factor: np.ndarray):
        self.factor = factor

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dpbtrs(self.factor, b, lower=1)[0]


def _factor(block: sparse.csr_matrix, shift: float = 0.0):
    """Factor of ``block - shift * I`` for one SPD block from
    ``_lattice_block``.  Raises ``ConvergenceError`` if the shift is at or
    above the block's lambda_1, where the shifted block is not positive
    definite; no solve has run, so the error's residual is nan.

    A block whose lower half-bandwidth kd (the largest row minus column of
    an entry) is at most ``_BAND_MAX`` is factored by banded Cholesky
    (LAPACK's ``dpbtrf``): its lower triangle is scattered from the CSR
    arrays into the band, row 0 of which is the diagonal, and the shift is
    subtracted there.  In orbit order the blocks hold each neighbour at most
    one box row away, or under the diagonal one anti-diagonal of the fold's
    wedge, so kd is about the box's width or the length of such an
    anti-diagonal.  Their columns are sorted, so each
    row's first column gives its distance below the diagonal and kd is read
    from the rows' first entries alone; the banded factor's error names the
    leading minor that failed.  A wider block keeps SuperLU, the
    shift subtracted in place from the CSC copy's diagonal entries.  With
    equal row and column permutations its factor is P (A - shift I) P^T =
    L U, L unit lower triangular, so U's diagonal has the shifted block's
    inertia (Sylvester's law) and must be positive.
    Minimum degree on A^T + A without supernode relaxation gives about half
    the fill of the default COLAMD ordering (L + U about 6.5e5 nonzeros on
    the full n=128 square, against 1.2e6), and the fill sets the factor's
    memory.
    """
    n = block.shape[0]
    r = np.arange(n)
    kd = int((r - block.indices[block.indptr[:-1]]).max())
    if kd <= _BAND_MAX:
        rows = np.repeat(r, np.diff(block.indptr))
        cols = block.indices.astype(np.intp)
        # band column c holds A[c + d, c] at band row d.  It is built
        # transposed, entry (r, c) at r + kd c of the raveled array, so that
        # its transpose is the Fortran-ordered array dpbtrf factors in place
        band = np.zeros((n, kd + 1))
        lower = rows >= cols
        band.ravel()[np.compress(lower, rows + kd * cols)] = np.compress(lower, block.data)
        band[:, 0] -= shift
        factor, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
        if info > 0:
            raise ConvergenceError(
                f"the shifted block is not positive definite: its leading minor of "
                f"order {info} of {n} failed (shift {shift!r} at or above lambda_1)",
                math.nan)
        return _BandedCholesky(factor)
    # imported at first use: no benchmark block is this wide, and
    # scipy.sparse.linalg costs about 2 MiB of every command that solves
    from scipy.sparse.linalg import splu

    csc = block.tocsc(copy=True)
    column = np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))
    csc.data[csc.indices == column] -= shift
    lu = splu(
        csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        relax=1,
        panel_size=1,
        options={"SymmetricMode": True},
    )
    if not (np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0).all()):
        raise ConvergenceError(f"the shifted block is not positive definite: a SuperLU pivot "
                               f"is off the diagonal or not positive (shift {shift!r})", math.nan)
    return lu


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b without BLAS: numpy's bundled OpenBLAS runs ``ddot`` on two
    threads above about 10k elements, which keeps its worker spinning and
    makes the last bits depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    """l2 norm of ``a`` without BLAS (see ``_dot``)."""
    return math.sqrt(_dot(a, a))


def _block_ground_state(block: sparse.csr_matrix, floor: float, tol: float, x: np.ndarray):
    """(lam, x, residual, solves) on one connected block, ``x`` unit l2.

    Inverse iteration from the start vector ``x`` with ``block - sigma I``,
    sigma = ``_SHIFT * floor`` at first, ``floor`` a lower bound on the
    block's smallest eigenvalue; the Rayleigh quotient lam and the residual
    are taken on the unshifted block.  A start vector that already meets
    ``tol`` is returned without a factor or a solve.  After ``_REFINE_AFTER``
    solves, and twice and four times as many, a block short of ``tol`` is
    factored again at lam - residual if that is above sigma: some eigenvalue
    lies within the residual of lam (Weinstein), and ``_factor`` succeeds
    exactly below lambda_1 (Sylvester), so its factor is certified; if it
    raises, the old factor stays.  Every solve counts towards ``_MAX_SOLVES``.
    """
    x = x / _norm(x)
    ax = block @ x
    lam = _dot(x, ax)
    res = _norm(ax - lam * x)
    shift = _SHIFT * floor
    solves = 0
    refine = _REFINE_AFTER
    while res > tol:
        if solves >= _MAX_SOLVES:
            raise ConvergenceError("eigensolver did not converge", res)
        if solves == 0:
            lu = _factor(block, shift)
        elif solves == refine:
            refine *= 2
            if lam - res > shift:
                with suppress(ConvergenceError):  # at or above lambda_1: keep lu
                    lu, shift = _factor(block, lam - res), lam - res
        y = lu.solve(x)
        solves += 1
        ny_ = _norm(y)
        if not np.isfinite(ny_) or ny_ == 0.0:
            raise ConvergenceError("inverse iteration produced a null vector", res)
        x = y / ny_
        ax = block @ x
        lam = _dot(x, ax)
        res = _norm(ax - lam * x)
    return lam, x, res, solves


def _mirror_orbits(box: np.ndarray):
    """(orbit, reps, size) for the nodes of ``box`` under its lattice mirror
    symmetries.

    The mirrors tried are a -> m_i - 1 - a, b -> m_j - 1 - b and, on a
    square box, the diagonal (a, b) -> (b, a).  ``orbit`` numbers each node's
    orbit under the group the mirrors that map ``box`` onto itself generate
    (1, 2, 4 or 8 nodes), ``reps`` holds the orbits' first nodes in raster
    order (their representatives) and ``size`` the orbits' sizes.  The
    orbits are numbered in the raster order of their representatives, or,
    when the diagonal is in the group, by (a + b, a) of each representative's
    0-based row a and column b in the box: along anti-diagonals, which
    across the fold's wedge are shorter than its rows, so the block's band
    is narrower.  A box without a mirror has the
    trivial group: every node is its own orbit, ``orbit`` and ``reps`` both
    count the nodes and every size is 1.  The orthonormal basis P with
    entries 1/sqrt|o| on orbit o's nodes spans the mirror-invariant vectors,
    which hold the simple, positive ground state.  A block maps that span into itself, so
    A P z = P (P^T A P) z, and the folded residual of z is the block's
    residual of P z.
    """
    mi, mj = box.shape
    flip_i = np.array_equal(box, box[::-1])
    flip_j = np.array_equal(box, box[:, ::-1])
    diagonal = mi == mj and np.array_equal(box, box.T)
    # name each node's orbit by its first image in box raster order.  The
    # diagonal goes last: it conjugates one axis mirror into the other, so
    # with it either both axis mirrors are present or neither is
    first = np.arange(mi * mj).reshape(mi, mj)
    if flip_i:
        first = np.minimum(first, first[::-1])
    if flip_j:
        first = np.minimum(first, first[:, ::-1])
    if diagonal:
        first = np.minimum(first, first.T)
    flat = np.flatnonzero(box)
    key = first.ravel()[flat]
    reps = np.flatnonzero(key == flat)  # one node per orbit, in raster order
    if diagonal:  # along anti-diagonals instead
        a, b = np.divmod(flat[reps], mj)
        reps = reps[np.argsort((a + b) * mi + a, kind="stable")]
    lut = np.empty(mi * mj, dtype=np.intp)
    lut[key[reps]] = np.arange(reps.size)
    orbit = lut[key]  # every key is the key of its orbit's representative
    return orbit, reps, np.bincount(orbit)


def _box_start(box: np.ndarray) -> np.ndarray:
    """Ground state of the mi x mj lattice box on the nodes of ``box`` (raster
    order), sin(pi (a + 1) / (mi + 1)) sin(pi (b + 1) / (mj + 1)) at 0-based
    (a, b), from two sine tables."""
    mi, mj = box.shape
    return (np.sin(math.pi / (mi + 1) * np.arange(1, mi + 1))[:, None]
            * np.sin(math.pi / (mj + 1) * np.arange(1, mj + 1)))[box]


def _component_ground_state(box: np.ndarray, floor: float, tol: float, h: float):
    """(lam, x, residual, solves) on one connected component, the nodes of
    its bounding ``box``, with ``x`` unit l2 on them in raster order.

    The start is the box's ground state.  A component that fills its box
    is that ground state, which no iteration improves on: it is returned
    with no matrix built, or raises ``ConvergenceError`` if its ``_stencil``
    residual misses ``tol``.  Otherwise the block from ``_lattice_block`` on
    the orbits of ``_mirror_orbits`` (the trivial group if the box has no
    mirror) goes to ``_block_ground_state``; the folded start P^T x0 and the
    unfolded P z are taken from the orbit numbering, without P, summed in
    the order of P's products, which under the trivial group leave every
    bit of x0 and z.
    """
    x0 = _box_start(box)
    if x0.size == box.size:
        x = x0 / _norm(x0)
        ax = _stencil(x, box, h)
        lam = _dot(x, ax)
        res = _norm(ax - lam * x)
        if res > tol:
            raise ConvergenceError("the box's exact ground state misses tol", res)
        return lam, x, res, 0
    orbits = _mirror_orbits(box)
    orbit = orbits[0]
    inv = (1.0 / np.sqrt(orbits[2]))[orbit]
    lam, z, res, solves = _block_ground_state(
        _lattice_block(box, h, orbits), floor, tol, np.bincount(orbit, x0 * inv))
    return lam, z[orbit] * inv, res, solves


def _rows_connected(nodes: np.ndarray) -> bool:
    """True if the nodes of the boolean lattice ``nodes`` are certainly
    4-connected: their rows are contiguous, each one run of columns that
    shares a column with the next row's run.  False proves nothing."""
    rows = np.flatnonzero(nodes.any(axis=1))
    band = nodes[rows[0] : rows[-1] + 1]
    # every row of the band holds a node, so as many run starts as rows
    # means one run per row
    starts = np.count_nonzero(band[:, 1:] > band[:, :-1]) + np.count_nonzero(band[:, 0])
    if band.shape[0] != rows.size or starts != rows.size:
        return False
    lo = band.argmax(axis=1)
    hi = band.shape[1] - 1 - band[:, ::-1].argmax(axis=1)
    return bool((lo[1:] <= hi[:-1]).all() and (lo[:-1] <= hi[1:]).all())


def _components(nodes: np.ndarray) -> list:
    """(i0, j0, box) for each 4-connected component of ``nodes``: the lattice
    row and column where its bounding box starts and its nodes on that box,
    components in raster order of their first nodes.

    A set ``_rows_connected`` certifies is its own component.  Any other is
    labelled by scipy.ndimage, whose labels follow that order, and each
    component's box is read from its label's bounding slices."""
    if _rows_connected(nodes):
        rows, cols = np.flatnonzero(nodes.any(axis=1)), np.flatnonzero(nodes.any(axis=0))
        return [(rows[0], cols[0], nodes[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1])]
    # imported at first use, as in grid._distance_to: eig on a domain that
    # the certificate accepts never labels a set
    from scipy import ndimage

    label, _ = ndimage.label(nodes)
    return [(i.start, j.start, label[i, j] == k)
            for k, (i, j) in enumerate(ndimage.find_objects(label), 1)]


def first_dirichlet_eig(
    domain: GridDomain,
    allowed: Mask | None = None,
    tol: float = 1e-8,
    seed: int = 0,
) -> EigenResult:
    """Smallest eigenpair of the 5-point Laplacian on the allowed nodes.

    Each 4-connected component of the allowed set is solved on its own, on
    its bounding lattice box of m_i x m_j nodes, from the box's ground state
    on its nodes, sin(pi a / (m_i + 1)) sin(pi b / (m_j + 1)) for 1-based
    box indices (a, b).  A component that fills its box starts at its
    ground state: the 5-point stencil on the zero-padded box gives the
    start's residual, and the start is returned with ``iterations == 0``
    and no matrix built.  Otherwise the component is folded onto the orbits
    of the mirrors that map it onto itself in its box (a -> m_i + 1 - a,
    b -> m_j + 1 - b, or (a, b) -> (b, a) when m_i == m_j), every node its
    own orbit when it has none, and its block is assembled from the box's
    neighbour table with one row per orbit.  One factor of that block,
    shifted by 0.99 times the component's eigenvalue floor (banded
    Cholesky, or sparse LU on a block of half-bandwidth above 64), drives
    shifted inverse iteration until ``residual <= tol`` (a start that
    already meets it needs no factor); each solve contracts the error by
    (lambda_1 - sigma) / (lambda_2 - sigma) for the shift sigma, and a
    block still short of ``tol`` after 100, 200, 400, ... solves raises
    sigma to lam - residual when a factor there certifies it below
    lambda_1.  The folded
    residual equals the block's residual of the unfolded vector.  The floor
    is the larger of the bounding box's lambda_1 and the Gershgorin bound,
    the smallest (4 - neighbours) / h^2 over the component's nodes.  The
    result is the component with the lowest eigenvalue (the lowest label on
    an exact tie); the field is zero on every other component,
    sign-normalized nonnegative and L2-normalized (h-weighted), and exactly
    invariant under the mirrors it was folded by.  ``iterations`` counts the
    solves on the returned component's folded block.  ``seed`` has no
    effect on the result: no step is random.  A component whose floor
    already exceeds the best lambda found is not solved, so a component
    that cannot win, such as a long one-node wire, does not stall the
    solve.  Raises ``ConvergenceError`` with the last residual if a solved
    component takes ``_MAX_SOLVES`` (10,000) solves without
    ``residual <= tol``, or if a component that fills its box misses
    ``tol`` at its start, and ``ValueError`` if ``allowed`` lies on another
    lattice (its domain's nx, ny, h or bbox differ from ``domain``'s).
    """
    _checked("tol", tol, "()", 0)
    if allowed is not None:
        ours, theirs = ((d.nx, d.ny, d.h, tuple(d.bbox)) for d in (domain, allowed.domain))
        if theirs != ours:
            raise ValueError(f"the allowed mask lies on another lattice: (nx, ny, h, bbox) "
                             f"{theirs}, not {ours}")
    nodes = domain.mask if allowed is None else allowed.nodes
    if not nodes.any():
        raise EmptyRegionError("empty region")
    comps = _components(nodes)

    # two lower bounds on each component's lambda_1: that of its bounding
    # lattice box (its block is a principal submatrix of the box's: Cauchy
    # interlacing), where a box of m nodes along an axis adds
    # (4/h^2) sin^2(pi / (2 (m + 1))), and Gershgorin's, the smallest
    # (4 - neighbours)/h^2 over its nodes, which lifts a thin component
    # that spans a large box (2/h^2 on a wire).  Components are solved in
    # ascending floor, those whose floor exceeds the best lambda by more
    # than rounding are never solved, and the floor sets each solve's shift
    box_floors = np.array([
        math.sin(math.pi / (2 * (box.shape[0] + 1))) ** 2
        + math.sin(math.pi / (2 * (box.shape[1] + 1))) ** 2
        for _, _, box in comps
    ]) * (4.0 / domain.h**2)
    pad = np.zeros((nodes.shape[0] + 2, nodes.shape[1] + 2), dtype=np.int8)
    pad[1:-1, 1:-1] = nodes
    degree = pad[:-2, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:] + pad[2:, 1:-1]
    most = np.array([degree[i0 : i0 + box.shape[0], j0 : j0 + box.shape[1]][box].max()
                     for i0, j0, box in comps])
    floors = np.maximum(box_floors, (4 - most) / domain.h**2)
    best = None
    for c in np.argsort(floors, kind="stable"):
        if best is not None and floors[c] > best[0] * (1 + 1e-9):
            break  # this component and all later ones cannot win
        lam, x, res, solves = _component_ground_state(
            comps[c][2], floors[c], tol, domain.h)
        if best is None or (lam, c) < best[:2]:
            best = (lam, c, x, res, solves)
    _, c, x, res, iterations = best
    i0, j0, box = comps[c]

    if x.sum() < 0:
        x = -x
    x = np.clip(x, 0.0, None)
    nrm = _norm(x)
    if nrm == 0.0:
        raise ConvergenceError("eigenvector collapsed after sign fix", res)
    x /= nrm
    lam = _dot(x, _stencil(x, box, domain.h))

    values = np.zeros(domain.mask.shape)
    values[i0 : i0 + box.shape[0], j0 : j0 + box.shape[1]][box] = x / domain.h
    return EigenResult(lam, ScalarField(domain, values), res, iterations)


# ---------------------------------------------------------------------------
# Bessel zeros and the radial ground state in closed form


def _first_zero(nu: float) -> float:
    """First positive zero j_{nu,1} of J_nu to the last bit, any nu >= 0.

    Bisection on the sign of J_nu inside the classical bracket
    sqrt(nu (nu + 2)) < j_{nu,1} < sqrt(nu + 1) (sqrt(nu + 2) + 1),
    which holds no other zero of J_nu, so J_nu > 0 below j_{nu,1}.  It
    stops when the bracket's ends are adjacent floats and returns the first
    float where J_nu <= 0.  ``ValueError`` unless J_nu < 0 at the upper
    end, as for a NaN order.
    """
    # imported here, not at module top: scipy.special adds about 0.1 s to
    # every command's start-up, and only verify calls the 1-D references
    from scipy.special import jv

    lo = math.sqrt(nu * (nu + 2.0))
    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    if not jv(nu, hi) < 0:
        raise ValueError(f"J_nu is not negative at the bracket's end {hi} for nu = {nu}")
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if jv(nu, mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def bessel_first_zero(nu: float) -> float:
    """First positive zero of J_nu for nu in [0, 5], to the last bit."""
    return _first_zero(_checked("nu", nu, "[]", 0, 5))


def _radial_phi(dim: int, lambda_bar: float, s: np.ndarray | float) -> np.ndarray:
    """phi(s) = 0F1(; N/2; -lambda s^2 / 4) = Gamma(nu+1) (2/ks)^nu J_nu(ks),
    nu = N/2 - 1, k = sqrt(lambda): the regular radial solution, phi(0) = 1."""
    from scipy.special import hyp0f1  # at first use, as in _first_zero

    s = np.asarray(s, dtype=float)
    return hyp0f1(dim / 2.0, -0.25 * lambda_bar * s * s)


def _ball_lambda(dim: int, radius: float) -> float:
    """First Dirichlet eigenvalue of the ball of radius 2R in dimension N."""
    return (_first_zero(dim / 2.0 - 1.0) / (2.0 * radius)) ** 2


@dataclass(frozen=True, eq=False)
class RadialGroundState:
    """phi'' + (N-1)/s phi' + lambda phi = 0 with phi(0)=1, phi'(0)=0,
    first zero placed at s = 2R."""

    dim: int
    radius: float
    lambda_bar: float
    s: np.ndarray
    phi: np.ndarray


def radial_ground_state(dim: int, radius: float, samples: int = 1024) -> RadialGroundState:
    """Ground state of the ball of radius 2R in dimension N, phi(0) = 1.

    lambda = (j_{nu,1} / 2R)^2 puts the first zero of phi exactly at s = 2R;
    phi is sampled on ``samples`` equispaced points of [0, 2R] and is
    positive and strictly decreasing on [0, 2R).
    """
    _checked("dim", dim, "int", 2)
    _checked("radius", radius, "()", 0)
    _checked("samples", samples, "int", 64)
    lam = _ball_lambda(dim, radius)
    s = np.linspace(0.0, 2.0 * radius, samples)
    return RadialGroundState(dim, radius, lam, s, _radial_phi(dim, lam, s))


# ---------------------------------------------------------------------------
# Spherical cap spectrum


@dataclass(frozen=True, eq=False)
class CapSpectrum:
    """First Laplace-Beltrami eigenpair of the cap {y in S^(N-1): y_1 > -r/2}."""

    dim: int
    r: float
    theta_r: float
    lambda1: float
    theta: np.ndarray
    profile: np.ndarray


# solves of the cap's inverse iteration before ConvergenceError; the solve
# converges in at most 14 for N up to 200 at 16-16384 nodes, r up to 0.99
_CAP_MAX_SOLVES = 50


def _cap_pencil(dim: int, r: float, nodes: int):
    """theta_r, the unknowns' theta nodes and the tridiagonal pencil
    K w = lam B w of the cap's finite-difference Sturm-Liouville problem:
    K's diagonal and off-diagonal and B's diagonal."""
    theta_r = math.acos(-r / 2.0)
    m = nodes
    dt = theta_r / m
    theta = dt * np.arange(m)          # unknowns at i = 0..m-1; w(theta_r) = 0
    a_half = np.sin(dt * (np.arange(m) + 0.5)) ** (dim - 2)   # a at i+1/2
    weight = np.sin(theta) ** (dim - 2)

    diag = np.empty(m)
    off = np.empty(m - 1)
    bdiag = np.empty(m)
    # axis row via the symmetry ghost node: -(N-1) * 2 (w1 - w0)/dt^2 = lam w0,
    # scaled so the off-diagonal matches row 1 and the pencil stays symmetric
    scale0 = a_half[0] / (2.0 * (dim - 1))
    diag[0] = 2.0 * (dim - 1) / dt**2 * scale0
    off[0] = -2.0 * (dim - 1) / dt**2 * scale0
    bdiag[0] = scale0
    diag[1:] = (a_half[:-1] + a_half[1:]) / dt**2
    off[1:] = -a_half[1:-1] / dt**2
    bdiag[1:] = weight[1:]
    # last unknown couples to w(theta_r) = 0 through a_half[m-1]
    return theta_r, theta, diag, off, bdiag


def cap_eigenvalue(dim: int, r: float, nodes: int = 4096) -> CapSpectrum:
    """Weighted Sturm-Liouville solve for the cap's first eigenvalue.

    -( (sin t)^(N-2) w' )' = lam (sin t)^(N-2) w on (0, theta_r) with
    w'(0) = 0 (ghost node at the axis) and w(theta_r) = 0.  Second-order
    finite differences on a uniform theta grid give the pencil K w = lam B w,
    K symmetric positive definite tridiagonal and B diagonal and positive.
    K is factored once as L D L^T (LAPACK's dpttrf), and inverse iteration
    y = K^-1 B w starts from the continuous hemisphere profile
    cos(pi theta / (2 theta_r)).  Each solve gives lam = (w^T B w) / (y^T B w),
    a quotient of positive sums, and w = y / y[0]; the loop stops once two
    successive lam agree to 1e-13 relative (2-14 solves) and raises
    ConvergenceError after 50.  Returns w with w(0) = 1.

    The weights near the axis are about (theta_r / nodes)^(N-2); once they
    underflow K is no longer positive definite and ValueError is raised
    (from N = 89 at 4096 nodes).  Up to there lam lies within 1.1e-6 of the
    hemisphere's N - 1 at 4096 nodes.
    """
    _checked("dim", dim, "int", 2)
    _checked("r", r, "[)", 0, 1)
    _checked("nodes", nodes, "int", 16)
    theta_r, theta, diag, off, bdiag = _cap_pencil(dim, r, nodes)
    d, e, info = dpttrf(diag, off)
    if info != 0:
        raise ValueError(
            f"cap stiffness matrix is not positive definite at dim={dim}, "
            f"nodes={nodes}: the weights sin(theta)^(dim-2) underflow near the axis"
        )
    w = np.cos(0.5 * math.pi / theta_r * theta)
    lam, change = math.inf, math.inf
    for _ in range(_CAP_MAX_SOLVES):
        bw = bdiag * w
        y, _ = dpttrs(d, e, bw)
        new = _dot(w, bw) / _dot(y, bw)
        w = y / y[0]
        change, lam = abs(new - lam) / new, new
        if change <= 1e-13:
            break
    else:
        raise ConvergenceError("cap inverse iteration did not converge", change)

    theta_full = np.append(theta, theta_r)
    profile = np.append(w, 0.0)
    return CapSpectrum(dim, float(r), theta_r, lam, theta_full, profile)


def poincare_check(
    f: ScalarField,
    r: float,
    center: tuple[float, float] = (0.0, 0.0),
    excluded: np.ndarray | None = None,
) -> float:
    """Quotient ((1/r) * boundary L2 + (1/r^2) * interior L2) / Dirichlet term
    over the ball B_r(center), for fields vanishing on the excluded ball.

    The boundary integral is the outermost node ring scaled by h.  The
    radius must be finite and positive and the ball must hold a lattice
    node at which the field is nonzero (ValueError otherwise).
    """
    # kept for the benchmark's eigensolve.poincare span (ROADMAP item 8 deletes
    # both); imported here because monotonicity imports this module
    from .monotonicity import _poincare_quotients, exterior_ball_nodes
    dom = f.domain
    if excluded is None:
        excluded = exterior_ball_nodes(dom)
    box, rho = _ball_box(dom, r, center)
    return float(_poincare_quotients(dom, f.values[box][None], r, box, rho, excluded)[0])
