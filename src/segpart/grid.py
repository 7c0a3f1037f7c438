"""Masked lattice domains and discrete field operations.

A domain is a uniform node lattice covering the bounding box of a planar
shape; the boolean mask marks nodes strictly inside the shape.  Dirichlet
conditions are imposed by node exclusion: off-mask nodes carry the value 0,
so a field in the discrete H^1_0 space is just an array that vanishes off
the mask.

The module provides the geometry layer everything else stands on: exact
Euclidean distance transforms, dilation/erosion by a Euclidean radius,
centered/one-sided gradients, and the norm bundle (L2, Linf, H1, Lipschitz,
exact Holder) used by the separation sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, EmptyDomainError, EmptyRegionError

SHAPE_PARAM_COUNT = {
    "disk": 1,
    "rectangle": 2,
    "square": 1,
    "l_shape": 1,
    "disk_minus_ball": 2,
}


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Uniform lattice with a boolean interior mask.

    ``mask[i, j]`` refers to the node at physical coordinates
    ``(bbox[0] + i*h, bbox[1] + j*h)``.  Node (0, 0) sits at ``bbox``.
    Instances are treated as immutable after construction.
    """

    nx: int
    ny: int
    h: float
    mask: np.ndarray
    bbox: tuple[float, float]
    shape: str = "raw"
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.mask.shape != (self.nx, self.ny):
            raise ValueError(
                f"mask shape {self.mask.shape} does not match ({self.nx}, {self.ny})"
            )
        if self.mask.dtype != np.bool_:
            raise ValueError("mask must be boolean")
        if not self.mask.any():
            raise EmptyDomainError("empty domain")

    @classmethod
    def raw(cls, nx: int, ny: int, h: float, bbox: tuple[float, float] = (0.0, 0.0)):
        """Free lattice with every node in the mask (no excluded boundary)."""
        return cls(nx, ny, float(h), np.ones((nx, ny), dtype=bool), bbox)

    def xs(self) -> np.ndarray:
        return self.bbox[0] + self.h * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.bbox[1] + self.h * np.arange(self.ny)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of physical node coordinates, shape (nx, ny) each."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def nearest_node(self, point: tuple[float, float]) -> tuple[int, int]:
        i = int(round((point[0] - self.bbox[0]) / self.h))
        j = int(round((point[1] - self.bbox[1]) / self.h))
        return min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1)

    def diameter(self) -> float:
        """Diagonal of the bounding box of mask nodes (diameter upper bound)."""
        ii, jj = np.nonzero(self.mask)
        return float(self.h * np.hypot(ii.max() - ii.min(), jj.max() - jj.min()))


@dataclass(frozen=True, eq=False)
class Mask:
    """Boolean node subset of a domain's interior mask."""

    domain: GridDomain
    nodes: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.domain.mask.shape:
            raise ValueError("mask array shape does not match domain")
        if self.nodes.dtype != np.bool_:
            raise ValueError("mask must be boolean")
        if np.any(self.nodes & ~self.domain.mask):
            raise ConstraintViolationError("mask is not a subset of the domain mask")

    def is_empty(self) -> bool:
        return not self.nodes.any()


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per node, exactly zero off the domain mask."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.domain.mask.shape:
            raise ValueError("values shape does not match domain")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        if np.any(self.values[~self.domain.mask] != 0.0):
            raise ConstraintViolationError("field is nonzero off the domain mask")

    @classmethod
    def from_values(cls, domain: GridDomain, values: np.ndarray) -> "ScalarField":
        """Build a field, zeroing whatever falls off the mask."""
        v = np.asarray(values, dtype=float).copy()
        v[~domain.mask] = 0.0
        return cls(domain, v)

    @classmethod
    def zeros(cls, domain: GridDomain) -> "ScalarField":
        return cls(domain, np.zeros_like(domain.mask, dtype=float))


def _in_excluded_ball(x: np.ndarray, y: np.ndarray, r0: float) -> np.ndarray:
    """Nodes in the closed excluded ball of a disk_minus_ball domain.

    The ball has radius r0 and is centered at (-r0, 0), so its boundary
    passes through the origin, the contact point of the exterior sphere.
    The relative slack counts nodes on the circle up to rounding as inside,
    so the domain mask and ``monotonicity.exterior_ball_nodes`` never share a
    node.
    """
    return (x + r0) ** 2 + y**2 <= r0 * r0 * (1 + 1e-12)


def build_domain(shape: str, n: int, *params: float) -> GridDomain:
    """Lattice domain for one of the supported shapes.

    ``n`` cells span the shape's characteristic extent (side for squares and
    L-shapes, shorter side for rectangles, diameter for disks), so the
    spacing is ``extent / n``.  Boundary nodes are excluded from the mask.
    """
    if shape not in SHAPE_PARAM_COUNT:
        raise ValueError(f"unknown shape {shape!r}")
    if len(params) != SHAPE_PARAM_COUNT[shape]:
        raise ValueError(
            f"shape {shape!r} takes {SHAPE_PARAM_COUNT[shape]} parameter(s), got {len(params)}"
        )
    if n < 2:
        raise ValueError(f"resolution n must be at least 2, got {n}")
    p = tuple(float(v) for v in params)
    if any(v <= 0 for v in p):
        raise ValueError(f"shape parameters must be positive, got {p}")

    if shape == "disk":
        (radius,) = p
        h = 2.0 * radius / n
        ax = -radius + h * np.arange(n + 1)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        mask = x * x + y * y < radius * radius
        dom = GridDomain(n + 1, n + 1, h, mask, (-radius, -radius), shape, p)
    elif shape in ("rectangle", "square"):
        a, b = p if shape == "rectangle" else (p[0], p[0])
        h = min(a, b) / n
        ncx = int(np.ceil(a / h - 1e-12))
        ncy = int(np.ceil(b / h - 1e-12))
        xg = h * np.arange(ncx + 1)
        yg = h * np.arange(ncy + 1)
        x, y = np.meshgrid(xg, yg, indexing="ij")
        mask = (x > 0) & (x < a) & (y > 0) & (y < b)
        dom = GridDomain(ncx + 1, ncy + 1, h, mask, (0.0, 0.0), shape, p)
    elif shape == "l_shape":
        (a,) = p
        h = a / n
        ax = h * np.arange(n + 1)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        mask = (x > 0) & (x < a) & (y > 0) & (y < a) & ((x < a / 2) | (y < a / 2))
        dom = GridDomain(n + 1, n + 1, h, mask, (0.0, 0.0), shape, p)
    else:  # disk_minus_ball
        radius, r0 = p
        if r0 >= radius:
            raise ValueError(f"excluded ball radius {r0} must be smaller than {radius}")
        h = 2.0 * radius / n
        ax = -radius + h * np.arange(n + 1)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        mask = (x * x + y * y < radius * radius) & ~_in_excluded_ball(x, y, r0)
        dom = GridDomain(n + 1, n + 1, h, mask, (-radius, -radius), shape, p)
    return dom


def _distance_to(true_nodes: np.ndarray, h: float) -> np.ndarray:
    """Lattice-wide physical distance to ``true_nodes`` (no mask clipping).

    Exact Euclidean transform of Maurer et al. (scipy's
    ``distance_transform_edt``): the root of an exact integer squared index
    distance, scaled by ``h``.
    """
    # imported at first use: scipy.ndimage (and the scipy.special it loads)
    # costs about 0.1 s of start-up, and eig never computes a distance
    from scipy.ndimage import distance_transform_edt

    if not true_nodes.any():
        raise EmptyRegionError("distance transform of an empty node set")
    return distance_transform_edt(~true_nodes) * h


def distance_transform(m: Mask) -> ScalarField:
    """Exact Euclidean distance (physical units) to the nearest node of ``m``.

    Zero on ``m`` itself.  Values are reported on the domain mask; off-mask
    nodes carry 0 by the field convention.
    """
    return ScalarField.from_values(m.domain, _distance_to(m.nodes, m.domain.h))


def dilate(m: Mask, r: float) -> Mask:
    """Nodes of the domain mask within Euclidean distance ``r`` of ``m``."""
    if r < 0:
        raise ValueError(f"dilation radius must be nonnegative, got {r}")
    if m.is_empty():
        raise EmptyRegionError("dilate of an empty mask")
    if r == 0:
        return Mask(m.domain, m.nodes.copy())
    d = _distance_to(m.nodes, m.domain.h)
    return Mask(m.domain, (d <= r * (1 + 1e-12)) & m.domain.mask)


def erode(m: Mask, r: float) -> Mask:
    """Nodes of ``m`` farther than ``r`` from its complement (lattice-wide)."""
    if r < 0:
        raise ValueError(f"erosion radius must be nonnegative, got {r}")
    comp = ~m.nodes
    if r == 0 or not comp.any():
        return Mask(m.domain, m.nodes.copy())
    d = _distance_to(comp, m.domain.h)
    return Mask(m.domain, m.nodes & (d > r * (1 + 1e-12)))


def _padded(a: np.ndarray) -> np.ndarray:
    """``a`` inside one ring of zeros (``False`` for a mask) on its last two
    axes, so every node has all four 5-point neighbours."""
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)])


# (minus, plus) neighbours of every node along the lattice's first and
# second axis, as slices of a padded array's last two axes
_NEIGHBOURS = (
    ((..., slice(None, -2), slice(1, -1)), (..., slice(2, None), slice(1, -1))),
    ((..., slice(1, -1), slice(None, -2)), (..., slice(1, -1), slice(2, None))),
)


def _stencil_gradient(
    values: np.ndarray, mask: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """The two gradient components of a ``(..., nx, ny)`` stack of fields
    that vanish off the ``(nx, ny)`` mask, as arrays of the stack's shape."""
    vpad, mpad = _padded(values), _padded(mask)
    comps = []
    for lo, hi in _NEIGHBOURS:
        minus, plus = mask & mpad[lo], mask & mpad[hi]
        diff = np.where(plus, vpad[hi], values) - np.where(minus, vpad[lo], values)
        comps.append(diff / np.where(plus & minus, 2 * h, h))
    return comps[0], comps[1]


def _ball_box(
    domain: GridDomain, r: float, center: tuple[float, float]
) -> tuple[tuple[slice, slice], np.ndarray]:
    """The bounding box of the lattice nodes of the closed ball B_r(center),
    grown by one node and clamped to the lattice, and |x - center| on it:
    the ball's window, which holds every ball node's 5-point neighbours."""
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"radius must be finite and positive, got {r}")
    x, y = domain.coords()
    rho = np.hypot(x - center[0], y - center[1])
    ball = rho <= r
    if not ball.any():
        raise ValueError(f"the ball of radius {r} holds no lattice node")
    box = tuple(
        slice(max(int(i[0]) - 1, 0), min(int(i[-1]) + 2, n))
        for i, n in zip(map(np.flatnonzero, (ball.any(1), ball.any(0))), ball.shape)
    )
    return box, rho[box]


def discrete_gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Centered differences inside the mask, one-sided at the mask edge.

    A neighbour off the mask is replaced by the node itself, so a node with
    one mask neighbour along an axis takes the one-sided quotient over h.
    Components are zero at off-mask nodes and at mask nodes isolated along
    an axis.
    """
    gx, gy = _stencil_gradient(f.values, f.domain.mask, f.domain.h)
    return ScalarField(f.domain, gx), ScalarField(f.domain, gy)


def gradient_magnitude(f: ScalarField) -> ScalarField:
    gx, gy = discrete_gradient(f)
    return ScalarField(f.domain, np.hypot(gx.values, gy.values))


def dirichlet_energy(f: ScalarField) -> float:
    """Quadratic form of the masked 5-point Laplacian: sum over lattice edges
    of the squared difference quotient, times the cell area.

    Off-mask values are 0, so on the zero-padded lattice an edge from a mask
    node to an off-mask node, or past the lattice edge, contributes the full
    drop to zero and an edge between off-mask nodes contributes nothing.
    That is what makes this the H^1_0 energy consistent with the eigensolver
    (the centered-difference seminorm from :func:`norms` is a reporting
    quantity and differs at O(h^2))."""
    v = _padded(f.values)
    # units: (field)^2, since (diff/h)^2 * h^2 = diff^2
    return float((np.diff(v, axis=0) ** 2).sum() + (np.diff(v, axis=1) ** 2).sum())


def rayleigh_quotient(f: ScalarField) -> float:
    """Dirichlet energy over squared L2 norm (operator-consistent form)."""
    nrm2 = float((f.values**2).sum()) * f.domain.h**2
    if nrm2 == 0:
        raise ValueError("Rayleigh quotient of the zero field")
    return dirichlet_energy(f) / nrm2


def _holder_seminorm(f: ScalarField, alpha: float) -> float:
    """max |f(x)-f(y)| / |x-y|^alpha over node pairs, exactly.

    Scans lattice offsets (a, b) of a half-plane, one slice difference each,
    by decreasing bound min(path, osc) / d^alpha on their ratio, and stops at
    the first bound no larger than the best ratio.  osc is the oscillation,
    path the cheaper staircase (axis steps only, or diagonal steps first)
    priced at the steepest neighbour step per direction.  Cropping to the
    nonzero nodes' bounding box padded by one node is exact: a node beyond
    it, clamped onto the zero padding ring, nears every node in the box.
    """
    nz = np.nonzero(f.values)
    if nz[0].size == 0:
        return 0.0
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
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] <= best:
            break
        ak, p, q = int(a[k]), max(int(b[k]), 0), max(-int(b[k]), 0)
        diff = v[ak:, p : my - q] - v[: mx - ak, q : my - p]
        best = max(best, steepest(diff) / float(dist_alpha[k]))
    return best


def norms(f: ScalarField, alpha: float = 0.5) -> dict:
    """Norm bundle: l2, linf, h1_seminorm, lip (max |grad|), and holder,
    the exact Holder(alpha) seminorm over node pairs."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"holder exponent must lie in (0, 1), got {alpha}")
    h = f.domain.h
    g = gradient_magnitude(f)
    return {
        "l2": float(np.sqrt((f.values**2).sum()) * h),
        "linf": float(np.abs(f.values).max()),
        "h1_seminorm": float(np.sqrt((g.values**2).sum()) * h),
        "lip": float(g.values.max()),
        "holder": _holder_seminorm(f, alpha),
    }
