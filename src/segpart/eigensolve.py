"""First Dirichlet eigenpairs of the masked Laplacian and 1-D reference solvers.

The 2-D solver works per 4-connected component of the allowed node set,
found by scipy's csgraph from the 5-point Laplacian's own sparsity pattern.
The Laplacian is block-diagonal over components, so each component's
ground state is an eigenpair of the whole set.  Each component starts from
the discrete ground state of its bounding lattice box, sin x sin in closed
form, taken on the component's nodes: it is positive, so it is never
orthogonal to the component's positive ground state, and when the component
fills its box it is that ground state and the solve ends before any factor
(``iterations == 0``).  Otherwise the component is folded onto the orbits
of its lattice mirror symmetries (the two axis mirrors of its bounding box
and, on a square box, the diagonal), if it has any: its ground state is
simple, so every symmetry of the block fixes it, and the solve runs on
P^T A P for the orthonormal orbit basis P, which has up to 8 times fewer
rows (Bossavit, Symmetry, groups, and boundary value problems, CMAME 1986).
The solver factors that block, or the whole block of a component without a
mirror, shifted by sigma = 0.99 * floor once (SuperLU, a symmetric
minimum-degree ordering, no pivoting) and runs shifted inverse iteration.
The floor is the larger of two lower bounds on the component's lambda_1:
lambda_1 of its bounding box (Cauchy interlacing) and Gershgorin's
smallest (4 - neighbours) / h^2 over its nodes, so the shifted block stays
SPD.  Within a connected component the ground state is simple and the
error contracts by (lambda_1 - sigma) / (lambda_2' - sigma) per solve,
lambda_2' >= lambda_2 the second eigenvalue among mirror-invariant vectors,
always below the zero-shift ratio lambda_1 / lambda_2, which
near-degenerate clusters on different components would push towards 1 on
the whole set.  Within one component a near-degenerate pair (two lobes
joined by a narrow bridge) still pushes that ratio towards 1, so a block
that has not met ``tol`` after 100 solves restarts from its iterate in
ARPACK's shift-invert Lanczos on the same factor, which separates the pair
in a few dozen solves.  No step is random, so a result depends only on the
domain, the allowed set and ``tol``.  The loop's dot products and norms are
plain numpy reductions that never call BLAS, so the results do not depend
on the BLAS thread count; ARPACK's own reductions do call BLAS, but no
benchmark block reaches the hand-over.

The 1-D references: first zeros of Bessel J_nu (scipy's jv and brentq in
a classical bracket), the radial ground state of a ball in dimension N in
closed form (scipy's 0F1), and the first Laplace-Beltrami eigenvalue of a
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
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ConvergenceError, EmptyRegionError
from .grid import GridDomain, Mask, ScalarField, _ball_box

# inverse-iteration shift as a fraction of the component's eigenvalue floor:
# the shifted block's smallest eigenvalue stays at or above 0.01 * lambda_1
_SHIFT = 0.99
# solves of plain inverse iteration before a block hands its factor to
# shift-invert Lanczos: no benchmark workload's block takes more than 17,
# while a near-degenerate pair (two lobes joined by a bridge) contracts by
# 0.998 per solve or slower and can take thousands
_LANCZOS_AFTER = 100


@dataclass(frozen=True, eq=False)
class EigenResult:
    """First eigenpair of the masked Dirichlet Laplacian.

    ``field`` is L2-normalized (h-weighted) and nonnegative.  ``residual``
    is the l2 norm of ``A x - lam x`` for the solver's unit-l2 coefficient
    vector x = h * field on the carrying component (A the matrix of
    ``masked_laplacian``), as the solve ended, before the sign fix; the
    same norm of ``field`` is 1/h times larger.
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


def masked_laplacian(domain: GridDomain, allowed: np.ndarray):
    """Sparse SPD matrix of -lap_h on the allowed nodes (zero Dirichlet off).

    Returns (A, flat_indices) where flat_indices maps matrix rows to
    positions in the raveled (nx, ny) lattice.  Rows are numbered in raster
    order and each row's columns are sorted.
    """
    idx_flat = np.flatnonzero(allowed.ravel())
    n = idx_flat.size
    nx, ny = allowed.shape
    # row numbers on the lattice padded by one excluded ring, so every node
    # has four neighbours in the table; raster offsets -W, -1, 0, +1, +W
    # visit a row's columns in ascending order (gathered offset-major, which
    # numpy broadcasts far faster than node-major)
    w = ny + 2
    lut = np.full((nx + 2, w), -1, dtype=np.intp)
    lut[1:-1, 1:-1][allowed] = np.arange(n)
    centre = idx_flat + 2 * (idx_flat // ny) + w + 1
    table = lut.ravel()[np.array([-w, -1, 0, 1, w])[:, None] + centre].T
    keep = table >= 0
    h2 = domain.h * domain.h
    data = np.broadcast_to(np.array([-1.0, -1.0, 4.0, -1.0, -1.0]) / h2, table.shape)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    A = sparse.csr_matrix((data[keep], table[keep], indptr), shape=(n, n))
    return A, idx_flat


def _factor(block: sparse.spmatrix, shift: float = 0.0):
    """SuperLU factor of ``block - shift * I`` for one SPD diagonal block of
    ``masked_laplacian`` and a shift below its smallest eigenvalue.

    The shifted block is SPD, so diagonal pivots are safe.  The shift goes
    onto the diagonal of the CSC copy, whose pattern already holds every
    diagonal entry, so no second matrix is built.  Minimum degree on
    A^T + A without supernode relaxation gives about half the fill of the
    default COLAMD ordering (L + U about 6.5e5 nonzeros on the full n=128
    square, against 1.2e6), and the fill sets the factor's memory.
    """
    csc = block.tocsc(copy=True)
    csc.setdiag(csc.diagonal() - shift)
    return splu(
        csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        relax=1,
        panel_size=1,
        options={"SymmetricMode": True},
    )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b without BLAS: numpy's bundled OpenBLAS runs ``ddot`` on two
    threads above about 10k elements, which keeps its worker spinning and
    makes the last bits depend on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    """l2 norm of ``a`` without BLAS (see ``_dot``)."""
    return math.sqrt(_dot(a, a))


def _block_ground_state(
    block: sparse.csr_matrix, floor: float, tol: float, max_iter: int, x: np.ndarray
):
    """(lam, x, residual, solves) on one connected block, ``x`` unit l2.

    Inverse iteration from the start vector ``x`` with
    ``block - _SHIFT * floor * I``, where ``floor`` is a lower bound on the
    block's smallest eigenvalue; the Rayleigh quotient and the residual are
    taken on the unshifted block.  A start vector that already meets ``tol``
    is returned without a factor or a solve.  A block still short of ``tol``
    after ``_LANCZOS_AFTER`` solves restarts from its iterate in ARPACK's
    shift-invert Lanczos (``eigsh``) on the same factor, which separates
    lambda_1 from a close lambda_2 in a few dozen solves; every solve counts
    towards ``max_iter``.
    """
    x = x / _norm(x)
    ax = block @ x
    lam = _dot(x, ax)
    res = _norm(ax - lam * x)
    lu = None
    solves = 0

    def solve(v):
        nonlocal solves
        if solves >= max_iter:
            raise ConvergenceError("eigensolver did not converge", res)
        solves += 1
        return lu.solve(v)

    while res > tol:
        if lu is None:
            lu = _factor(block, _SHIFT * floor)
        if solves == _LANCZOS_AFTER:
            op = LinearOperator(block.shape, matvec=solve, dtype=float)
            try:
                _, v = eigsh(block, k=1, sigma=_SHIFT * floor, OPinv=op, v0=x, tol=0)
            except ArpackNoConvergence:
                raise ConvergenceError("Lanczos did not converge", res) from None
            x = v[:, 0]
        else:
            y = solve(x)
            ny_ = _norm(y)
            if not np.isfinite(ny_) or ny_ == 0.0:
                raise ConvergenceError("inverse iteration produced a null vector", res)
            x = y / ny_
        ax = block @ x
        lam = _dot(x, ax)
        res = _norm(ax - lam * x)
    return lam, x, res, solves


def _mirror_fold(block: sparse.csr_matrix, a: np.ndarray, b: np.ndarray):
    """(P^T block P, P) for a component with a lattice mirror symmetry, or
    None if it has none.

    ``a`` and ``b`` are the nodes' 0-based indices in the component's
    bounding box.  The mirrors tried are a -> m_i - 1 - a, b -> m_j - 1 - b
    and, on a square box, the diagonal (a, b) -> (b, a).  P has one column
    per orbit of the group they generate (1, 2, 4 or 8 nodes), with entries
    1/sqrt(|orbit|) on the orbit's nodes, so its columns are orthonormal and
    span the mirror-invariant vectors, which hold the simple, positive
    ground state.  ``block`` maps that span into itself, so block P z =
    P (P^T block P) z, and the folded residual of z is the block's residual
    of P z.
    """
    mi, mj = int(a.max()) + 1, int(b.max()) + 1
    box = np.zeros((mi, mj), dtype=bool)
    box[a, b] = True
    flip_i = np.array_equal(box, box[::-1])
    flip_j = np.array_equal(box, box[:, ::-1])
    diagonal = mi == mj and np.array_equal(box, box.T)
    if not (flip_i or flip_j or diagonal):
        return None
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
    key = first[a, b]
    reps = np.flatnonzero(key == a * mj + b)  # one node per orbit, in orbit order
    orbit = np.searchsorted(key[reps], key)
    size = np.bincount(orbit)
    P = sparse.csr_matrix(
        (1.0 / np.sqrt(size)[orbit], orbit, np.arange(a.size + 1)), shape=(a.size, reps.size)
    )
    # every node of an orbit has its representative's row up to a mirror,
    # so row o of P^T block P is sqrt|o| times the representative's row of
    # block P
    folded = block[reps] @ P
    folded.data *= np.repeat(np.sqrt(size), np.diff(folded.indptr))
    return folded, P


def first_dirichlet_eig(
    domain: GridDomain,
    allowed: Mask | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 0,
) -> EigenResult:
    """Smallest eigenpair of the 5-point Laplacian on the allowed nodes.

    Each 4-connected component of the allowed set is solved on its own,
    from the ground state of its bounding lattice box on its nodes,
    sin(pi a / (m_i + 1)) sin(pi b / (m_j + 1)) for 1-based box indices
    (a, b) and box sides of m_i x m_j nodes.  If that start already meets
    ``residual <= tol`` (it does when the component fills its box) it is
    returned with ``iterations == 0``.  Otherwise a component that is
    mirror-symmetric in its box (a -> m_i + 1 - a, b -> m_j + 1 - b, or
    (a, b) -> (b, a) when m_i == m_j) is folded onto the orbits of its
    mirrors, and one sparse LU factor of the folded block, or of the whole
    block when there is no mirror, shifted by 0.99 times the component's
    eigenvalue floor, drives shifted inverse iteration until
    ``residual <= tol``; each solve contracts the error by
    (lambda_1 - sigma) / (lambda_2 - sigma) for the shift sigma, and a
    block still short of ``tol`` after 100 solves finishes in ARPACK's
    shift-invert Lanczos on the same factor.  The folded
    residual equals the block's residual of the unfolded vector.  The floor
    is the larger of the bounding box's lambda_1 and the Gershgorin bound,
    the smallest (4 - neighbours) / h^2 over the component's nodes.  The
    result is the component with the lowest eigenvalue (the lowest label on
    an exact tie); the field is zero on every other component,
    sign-normalized nonnegative and L2-normalized (h-weighted), and exactly
    invariant under the mirrors it was folded by.  ``iterations`` counts the
    solves on the returned component, on its folded block if it was folded.
    ``seed`` has no effect on the result: no step is random.  A component
    whose floor already exceeds the best lambda found is not solved, so a
    component that cannot win, such as a long one-node wire, does not stall
    the solve.  Raises ``ConvergenceError`` with the last residual if a
    solved component hits ``max_iter`` solves before ``residual <= tol``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    nodes = domain.mask if allowed is None else allowed.nodes
    if not nodes.any():
        raise EmptyRegionError("empty region")
    A, idx_flat = masked_laplacian(domain, nodes)
    # the off-diagonal pattern is the 4-connectivity, symmetric, so its
    # strong components are the connected ones and no transpose is built;
    # components are numbered by their lowest row, i.e. in raster order
    nlab, row_label = connected_components(A, directed=True, connection="strong")
    # group rows by component, keeping flat-index order within each
    order = np.argsort(row_label, kind="stable")
    bounds = np.searchsorted(row_label[order], np.arange(nlab + 1))
    A = A[order][:, order]

    # two lower bounds on each component's lambda_1: that of its bounding
    # lattice box (its block is a principal submatrix of the box's: Cauchy
    # interlacing), where a box of m nodes along an axis adds
    # (4/h^2) sin^2(pi / (2 (m + 1))), and Gershgorin's, the smallest
    # (4 - neighbours)/h^2 over its nodes, which lifts a thin component
    # that spans a large box (2/h^2 on a wire).  Components are solved in
    # ascending floor, those whose floor exceeds the best lambda by more
    # than rounding are never solved, and the floor sets each solve's shift
    starts = bounds[:-1]
    ii, jj = np.divmod(idx_flat[order], nodes.shape[1])
    lo_i, lo_j = np.minimum.reduceat(ii, starts), np.minimum.reduceat(jj, starts)
    mi = (np.maximum.reduceat(ii, starts) - lo_i + 1).tolist()
    mj = (np.maximum.reduceat(jj, starts) - lo_j + 1).tolist()
    box_floors = np.array([
        math.sin(math.pi / (2 * (a + 1))) ** 2 + math.sin(math.pi / (2 * (b + 1))) ** 2
        for a, b in zip(mi, mj)
    ]) * (4.0 / domain.h**2)
    degree = np.diff(A.indptr) - 1
    floors = np.maximum(box_floors, np.minimum.reduceat(4 - degree, starts) / domain.h**2)
    best = None
    for c in np.argsort(floors, kind="stable"):
        if best is not None and floors[c] > best[0] * (1 + 1e-9):
            break  # this component and all later ones cannot win
        start, stop = bounds[c], bounds[c + 1]
        block = A[start:stop, start:stop]
        a, b = ii[start:stop] - lo_i[c], jj[start:stop] - lo_j[c]
        # start: the box's ground state on the component's nodes, 1-based
        # box indices
        x0 = np.sin(math.pi / (mi[c] + 1) * (a + 1)) * np.sin(math.pi / (mj[c] + 1) * (b + 1))
        # a component that fills its box starts at its ground state, so
        # only the others are worth folding
        fold = None if stop - start == mi[c] * mj[c] else _mirror_fold(block, a, b)
        if fold is None:
            lam, x, res, solves = _block_ground_state(block, floors[c], tol, max_iter, x0)
        else:
            folded, P = fold
            lam, z, res, solves = _block_ground_state(folded, floors[c], tol, max_iter, P.T @ x0)
            x = P @ z
        if best is None or (lam, c) < best[:2]:
            best = (lam, c, x, res, solves, block, order[start:stop])
    _, _, x, res, iterations, block, rows = best

    if x.sum() < 0:
        x = -x
    x = np.clip(x, 0.0, None)
    nrm = _norm(x)
    if nrm == 0.0:
        raise ConvergenceError("eigenvector collapsed after sign fix", res)
    x /= nrm
    lam = _dot(x, block @ x)

    values = np.zeros(domain.mask.shape)
    values.ravel()[idx_flat[rows]] = x / domain.h  # h-weighted L2 normalization
    return EigenResult(lam, ScalarField(domain, values), res, iterations)


# ---------------------------------------------------------------------------
# Bessel zeros and the radial ground state in closed form


def _first_zero(nu: float, tol: float = 1e-12) -> float:
    """First positive zero j_{nu,1} of J_nu to absolute ``tol``, any nu >= 0.

    brentq runs inside the classical bracket
    sqrt(nu (nu + 2)) < j_{nu,1} < sqrt(nu + 1) (sqrt(nu + 2) + 1),
    which holds no other zero of J_nu.
    """
    # imported here, not at module top: scipy.optimize and scipy.special
    # would add about 0.2 s to every command's start-up, and only verify
    # calls the 1-D references
    from scipy.optimize import brentq
    from scipy.special import jv

    lo = math.sqrt(nu * (nu + 2.0))
    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    return brentq(lambda x: jv(nu, x), lo, hi, xtol=tol)


def bessel_first_zero(nu: float, tol: float = 1e-12) -> float:
    """First positive zero of J_nu for nu in [0, 5]."""
    if not (0.0 <= nu <= 5.0):
        raise ValueError(f"order must lie in [0, 5], got {nu}")
    return _first_zero(nu, tol)


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
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
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
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if not (0.0 <= r < 1.0):
        raise ValueError(f"cap parameter must lie in [0, 1), got {r}")
    if nodes < 16:
        raise ValueError(f"need at least 16 theta nodes, got {nodes}")
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
