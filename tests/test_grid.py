import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coo_laplacian, edt_dilate, edt_erode, half_plane_holder

from segpart.errors import ConstraintViolationError, EmptyDomainError, EmptyRegionError
from segpart.grid import (
    SHAPE_PARAM_COUNT,
    GridDomain,
    Mask,
    ScalarField,
    _distance_to,
    _holder_seminorm,
    _in_excluded_ball,
    _offset_steepest,
    _padded,
    _stencil_gradient,
    build_domain,
    dilate,
    dirichlet_energy,
    discrete_gradient,
    distance_transform,
    erode,
    gradient_magnitude,
    norms,
)
from segpart.monotonicity import exterior_ball_nodes


def brute_force_edt(true_nodes: np.ndarray) -> np.ndarray:
    """Independent quadratic-scan oracle for the exact distance transform."""
    nx, ny = true_nodes.shape
    ti, tj = np.nonzero(true_nodes)
    out = np.empty((nx, ny))
    for i in range(nx):
        for j in range(ny):
            out[i, j] = np.sqrt(((ti - i) ** 2 + (tj - j) ** 2).min())
    return out


def random_nodes(nx: int, ny: int, density: float, seed: int) -> np.ndarray:
    """Random node set: noise of the given density plus one solid block,
    whose straight edges put many nodes at whole-cell distances from the
    complement.  At least one node is true and at least one is false."""
    rng = np.random.default_rng(seed)
    nodes = rng.random((nx, ny)) < density
    i0, i1 = np.sort(rng.integers(0, nx, 2))
    j0, j1 = np.sort(rng.integers(0, ny, 2))
    nodes[i0 : i1 + 1, j0 : j1 + 1] = True
    if nodes.all():
        nodes[0, 0] = nodes[-1, -1] = False
        nodes[nx // 2, ny // 2] = True
    return nodes


def brute_force_holder(v: np.ndarray, h: float, alpha: float) -> float:
    """Independent all-pairs oracle for the Holder seminorm, in row chunks."""
    ii, jj = np.indices(v.shape)
    px, py, w = ii.ravel() * h, jj.ravel() * h, v.ravel()
    best = 0.0
    for s in range(0, w.size, 512):
        dist = np.hypot(px[s : s + 512, None] - px, py[s : s + 512, None] - py)
        diff = np.abs(w[s : s + 512, None] - w)
        ratio = np.divide(diff, dist**alpha, out=np.zeros_like(diff), where=dist > 0)
        best = max(best, float(ratio.max()))
    return best


def random_values(nx: int, ny: int, kind: str, seed: int) -> np.ndarray:
    """Test field of the given kind: zero, sparse (a few nonnegative spikes),
    dense (positive everywhere), mixed (signed noise) or smooth (signed
    double cumulative sum, whose small steps make the offset bounds tight)."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((nx, ny))
    if kind == "sparse":
        return rng.random((nx, ny)) * (rng.random((nx, ny)) < 0.1)
    if kind == "dense":
        return 0.1 + rng.random((nx, ny))
    noise = rng.standard_normal((nx, ny))
    return noise if kind == "mixed" else np.cumsum(np.cumsum(noise, 0), 1)


def mirrored_values(nx: int, ny: int, kind: str, seed: int, mirrors: str) -> np.ndarray:
    """A ``random_values`` field made equal to its column mirror (``col``),
    its row mirror (``row``) or both, by copying one half onto the other."""
    v = random_values(nx, ny, kind, seed)
    if mirrors in ("col", "both"):
        v[:, ny - ny // 2 :] = v[:, : ny // 2][:, ::-1]
    if mirrors in ("row", "both"):
        v[nx - nx // 2 :] = v[: nx // 2][::-1]
    return v


def scan_with_offsets(f: ScalarField, alpha: float, floor: float) -> tuple[float, list]:
    """``_holder_seminorm(f, alpha, floor)`` and the offsets (a, b) it
    evaluated, in scan order."""
    visited = []

    def spy(v, a, b):
        visited.append((a, b))
        return _offset_steepest(v, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("segpart.grid._offset_steepest", spy)
        return _holder_seminorm(f, alpha, floor), visited


def reference_with_offsets(f: ScalarField, alpha: float, floor: float) -> tuple[float, list]:
    """The half-plane reference scan and the offsets it evaluated."""
    visited = []
    value = half_plane_holder(f, alpha, floor, visit=lambda a, b: visited.append((a, b)))
    return value, visited


def holder_crop(v: np.ndarray) -> np.ndarray:
    """The nonzero nodes' bounding box padded by one node, cut to the
    lattice: the part of a field the Holder scan reads."""
    ii, jj = np.nonzero(v)
    return v[max(ii.min() - 1, 0) : ii.max() + 2, max(jj.min() - 1, 0) : jj.max() + 2]


def shifted_copy_gradient(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Reference gradient from explicitly shifted copies of values and mask:
    centered where both axis neighbours are in the mask, one-sided where one
    is, zero elsewhere."""
    h, v, m = f.domain.h, f.values, f.domain.mask

    def axis_grad(axis: int) -> np.ndarray:
        g = np.zeros_like(v)
        plus = np.zeros_like(m)
        minus = np.zeros_like(m)
        vp = np.zeros_like(v)
        vm = np.zeros_like(v)
        if axis == 0:
            plus[:-1, :] = m[1:, :]
            minus[1:, :] = m[:-1, :]
            vp[:-1, :] = v[1:, :]
            vm[1:, :] = v[:-1, :]
        else:
            plus[:, :-1] = m[:, 1:]
            minus[:, 1:] = m[:, :-1]
            vp[:, :-1] = v[:, 1:]
            vm[:, 1:] = v[:, :-1]
        both = m & plus & minus
        only_p = m & plus & ~minus
        only_m = m & ~plus & minus
        g[both] = (vp[both] - vm[both]) / (2 * h)
        g[only_p] = (vp[only_p] - v[only_p]) / h
        g[only_m] = (v[only_m] - vm[only_m]) / h
        return g

    return axis_grad(0), axis_grad(1)


def random_field(nx: int, ny: int, density: float, seed: int, h: float = 0.1) -> ScalarField:
    """Signed noise on a random mask of an nx x ny lattice: mask nodes on
    the lattice edge and isolated mask nodes both occur."""
    dom = GridDomain(nx, ny, h, random_nodes(nx, ny, density, seed), (0.0, 0.0))
    values = np.random.default_rng(seed + 1).standard_normal((nx, ny))
    return ScalarField.from_values(dom, values)


SHAPES = [
    ("disk", (1.0,)),
    ("square", (1.0,)),
    ("rectangle", (2.0, 1.0)),
    ("l_shape", (1.0,)),
    ("disk_minus_ball", (2.0, 1.0)),
]


def reference_build_domain(shape: str, n: int, *params: float) -> GridDomain:
    """Reference: ``build_domain`` with one lattice set-up per shape."""
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


def lattice_outcome(build, shape, n, params):
    """What ``build`` makes of the arguments: the lattice's sizes, spacing,
    corner and the bytes of its mask and coordinates, or the error raised."""
    try:
        dom = build(shape, n, *params)
    except (ValueError, EmptyDomainError) as exc:
        return type(exc), str(exc)
    x, y = dom.coords()
    return dom.nx, dom.ny, dom.h, dom.bbox, dom.mask.tobytes(), x.tobytes(), y.tobytes()


# 3..80 nodes a side covers lattices on both sides of 64^2 nodes
sides = st.integers(3, 80)
densities = st.floats(0.001, 0.95)
seeds = st.integers(0, 2**32 - 1)
# fields for the Holder scan: lattices up to 24x24 of every kind
holder_cases = dict(
    nx=st.integers(1, 24),
    ny=st.integers(1, 24),
    h=st.floats(0.01, 2.0),
    alpha=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    kind=st.sampled_from(["zero", "sparse", "dense", "mixed", "smooth"]),
    seed=seeds,
)


class TestBuildDomain:
    def test_square_n4_interior_count(self):
        dom = build_domain("square", 4, 1.0)
        assert dom.h == 0.25
        assert int(dom.mask.sum()) == 9

    def test_rectangle_interior_count(self):
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        ii, jj = np.nonzero(dom.mask)
        assert len(np.unique(ii)) == 31
        assert len(np.unique(jj)) == 15
        assert int(dom.mask.sum()) == 31 * 15

    def test_disk_area_against_monte_carlo(self):
        dom = build_domain("disk", 8, 1.0)
        rng = np.random.default_rng(99)
        pts = rng.uniform(-1.0, 1.0, size=(200_000, 2))
        mc_area = 4.0 * float((pts[:, 0] ** 2 + pts[:, 1] ** 2 < 1.0).mean())
        grid_area = int(dom.mask.sum()) * dom.h**2
        assert abs(grid_area - mc_area) <= 0.2 * mc_area

    def test_mask_nodes_strictly_inside(self):
        dom = build_domain("disk", 32, 1.0)
        x, y = dom.coords()
        assert np.all(x[dom.mask] ** 2 + y[dom.mask] ** 2 < 1.0)

    def test_l_shape_excludes_quadrant(self):
        dom = build_domain("l_shape", 16, 1.0)
        x, y = dom.coords()
        assert not np.any(dom.mask & (x >= 0.5) & (y >= 0.5))
        assert dom.mask[2, 2]

    def test_disk_minus_ball_contact_point_excluded(self):
        dom = build_domain("disk_minus_ball", 64, 2.0, 1.0)
        i, j = dom.nearest_node((0.0, 0.0))
        assert not dom.mask[i, j]
        i2, j2 = dom.nearest_node((1.0, 0.0))
        assert dom.mask[i2, j2]

    @pytest.mark.parametrize(
        "n, count",
        [(20, 225), (30, 518), (40, 929), (48, 1349), (80, 3757), (128, 9641), (160, 15045)],
    )
    def test_disk_minus_ball_mask_misses_the_excluded_ball(self, n, count):
        # nodes on the excluded circle up to rounding (n = 20, 30, 40, 80,
        # 160) belong to the ball, not the mask; n = 48 and 128 are the
        # verify grids, whose node counts must not move
        dom = build_domain("disk_minus_ball", n, 2.0, 1.0)
        assert not np.any(exterior_ball_nodes(dom) & dom.mask)
        assert int(dom.mask.sum()) == count

    @pytest.mark.parametrize("shape, params", SHAPES)
    def test_matches_the_per_shape_reference(self, shape, params):
        # the one lattice set-up gives each shape's own set-up bit for bit,
        # at the default and two random parameter sets for every n
        rng = np.random.default_rng(len(shape))
        for n in [*range(2, 130), 200, 255, 256, 257, 300]:
            draws = [params] + [tuple(rng.uniform(0.1, 5.0, len(params))) for _ in range(2)]
            for p in draws:
                if shape == "disk_minus_ball":
                    p = tuple(sorted(p, reverse=True))
                assert lattice_outcome(build_domain, shape, n, p) == lattice_outcome(
                    reference_build_domain, shape, n, p)
        if shape == "disk_minus_ball":
            # an excluded ball as large as the disk gets the same message
            for p in [(1.0, 2.0), (1.5, 1.5)]:
                assert lattice_outcome(build_domain, shape, 16, p) == lattice_outcome(
                    reference_build_domain, shape, 16, p)

    def test_empty_domain_raises(self):
        with pytest.raises(EmptyDomainError, match="empty domain"):
            build_domain("disk_minus_ball", 2, 1.0, 0.9999999)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_domain("disk", 16, -1.0)
        with pytest.raises(ValueError):
            build_domain("disk_minus_ball", 16, 1.0, 2.0)
        with pytest.raises(ValueError):
            build_domain("hexagon", 16, 1.0)
        with pytest.raises(ValueError):
            build_domain("rectangle", 16, 2.0)

    def test_n_is_an_integer(self):
        # n = 2.5 used to build h = extent / 2.5, so n cells did not span it
        for n in (2.5, 16.0, True, "16", None, 1, np.int64(1)):
            with pytest.raises(ValueError, match="resolution n"):
                build_domain("disk", n, 1.0)
        assert build_domain("disk", np.int64(16), 1.0).h == build_domain("disk", 16, 1.0).h

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # a NaN radius of the excluded ball used to give the plain disk
        for shape, params in SHAPES:
            for i in range(len(params)):
                p = list(params)
                p[i] = bad
                with pytest.raises(ValueError, match="finite and positive.*" + str(bad)):
                    build_domain(shape, 16, *p)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
    def test_spacing_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="grid spacing h must be finite and positive"):
            GridDomain.raw(2, 2, h)


class TestDistanceTransform:
    def test_single_node_pythagoras(self):
        dom = GridDomain.raw(16, 16, 1.0)
        m = np.zeros((16, 16), dtype=bool)
        m[0, 0] = True
        d = distance_transform(Mask(dom, m))
        assert d.values[3, 4] == pytest.approx(5.0, abs=1e-12)

    def test_all_true_is_zero(self):
        dom = GridDomain.raw(8, 8, 0.5)
        d = distance_transform(Mask(dom, dom.mask.copy()))
        assert np.all(d.values == 0.0)

    def test_two_nodes_midpoint(self):
        dom = GridDomain.raw(11, 3, 1.0)
        m = np.zeros((11, 3), dtype=bool)
        m[0, 0] = True
        m[10, 0] = True
        d = distance_transform(Mask(dom, m))
        assert d.values[5, 0] == pytest.approx(5.0)

    def test_empty_mask_raises(self):
        dom = GridDomain.raw(8, 8, 1.0)
        with pytest.raises(EmptyRegionError):
            distance_transform(Mask(dom, np.zeros((8, 8), dtype=bool)))

    def test_matches_brute_force_on_large_grid(self):
        # a lattice above 64^2 nodes with sparse sites, against the oracle
        rng = np.random.default_rng(3)
        nodes = rng.random((70, 73)) < 0.02
        nodes[35, 36] = True
        got = np.sqrt(_distance_to(nodes, 1.0) ** 2)
        assert np.allclose(got, brute_force_edt(nodes), atol=1e-9)

    def test_matches_brute_force_small_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            nodes = rng.random((17, 13)) < 0.1
            if not nodes.any():
                nodes[3, 3] = True
            got = np.sqrt(_distance_to(nodes, 1.0) ** 2)
            assert np.allclose(got, brute_force_edt(nodes), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(nx=sides, ny=sides, density=densities, seed=seeds)
    def test_matches_brute_force_on_random_masks(self, nx, ny, density, seed):
        nodes = random_nodes(nx, ny, density, seed)
        got = np.sqrt(_distance_to(nodes, 1.0) ** 2)
        assert np.allclose(got, brute_force_edt(nodes), rtol=0.0, atol=1e-9)

    def test_one_lipschitz_node_to_node(self):
        rng = np.random.default_rng(11)
        dom = GridDomain.raw(24, 24, 0.5)
        nodes = rng.random((24, 24)) < 0.05
        nodes[5, 5] = True
        d = distance_transform(Mask(dom, nodes)).values
        ii, jj = np.indices((24, 24))
        pts = np.stack([ii.ravel(), jj.ravel()], axis=1) * dom.h
        vals = d.ravel()
        sep = np.hypot(
            pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1]
        )
        diff = np.abs(vals[:, None] - vals[None, :])
        assert np.all(diff <= sep + 1e-9)


class TestMorphology:
    def test_dilate_zero_identity(self):
        dom = build_domain("square", 16, 1.0)
        rng = np.random.default_rng(0)
        nodes = dom.mask & (rng.random(dom.mask.shape) < 0.3)
        nodes[8, 8] = True
        m = Mask(dom, nodes)
        assert np.array_equal(dilate(m, 0.0).nodes, nodes)

    def test_dilate_single_node_diamond(self):
        dom = GridDomain.raw(9, 9, 1.0)
        nodes = np.zeros((9, 9), dtype=bool)
        nodes[4, 4] = True
        out = dilate(Mask(dom, nodes), 2.0).nodes
        # all nodes within Euclidean distance 2h: 4-diamond plus corners
        assert int(out.sum()) == 13
        assert out[5, 5] and out[4, 6] and not out[5, 6]

    def test_dilate_composition_superset(self):
        rng = np.random.default_rng(5)
        dom = GridDomain.raw(16, 16, 1.0)
        for _ in range(10):
            nodes = rng.random((16, 16)) < 0.08
            if not nodes.any():
                nodes[2, 2] = True
            m = Mask(dom, nodes)
            a, b = 1.5, 2.0
            inner = dilate(dilate(m, a), b).nodes
            outer = dilate(m, a + b).nodes
            assert np.all(inner | ~outer)  # dilate(dilate(m,a),b) >= dilate(m,a+b)

    def test_dilate_monotone_in_both_arguments(self):
        rng = np.random.default_rng(8)
        dom = GridDomain.raw(20, 20, 1.0)
        small = rng.random((20, 20)) < 0.05
        small[10, 10] = True
        big = small | (rng.random((20, 20)) < 0.05)
        for r in (0.0, 1.0, 2.5):
            ds = dilate(Mask(dom, small), r).nodes
            db = dilate(Mask(dom, big), r).nodes
            assert np.all(db | ~ds)
        d1 = dilate(Mask(dom, small), 1.0).nodes
        d2 = dilate(Mask(dom, small), 3.0).nodes
        assert np.all(d2 | ~d1)

    def test_erode_dilate_adjoint(self):
        dom = GridDomain.raw(20, 20, 1.0)
        nodes = np.zeros((20, 20), dtype=bool)
        nodes[5:15, 5:15] = True
        er = erode(Mask(dom, nodes), 2.0).nodes
        assert er.sum() < nodes.sum()
        assert np.all(nodes | ~er)
        # eroded set keeps distance > r from the complement
        d = distance_transform(Mask(dom, er))
        assert not er[5, 5]

    @settings(max_examples=100, deadline=None)
    @given(
        nx=sides,
        ny=sides,
        density=densities,
        seed=seeds,
        # k * 0.1 > k / 10 for k = 3, 6, 7, ...: ties one rounding apart
        h=st.sampled_from([0.1, 0.05, 0.2, 1 / 48]) | st.floats(0.01, 2.0),
        # whole cells and sqrt(q) cells put lattice nodes exactly at distance r
        r_cells=(
            st.integers(1, 20).map(float)
            | st.floats(0.01, 20.0)
            | st.integers(1, 400).map(math.sqrt)
        ),
    )
    def test_erode_is_complement_of_dilated_complement(
        self, nx, ny, density, seed, h, r_cells
    ):
        dom = GridDomain.raw(nx, ny, h)
        nodes = random_nodes(nx, ny, density, seed)
        # the same radius written in decimals sits one rounding off the
        # node distance
        for r in (r_cells * h, round(r_cells * h, 6)):
            er = erode(Mask(dom, nodes), r).nodes
            assert np.array_equal(er, ~dilate(Mask(dom, ~nodes), r).nodes)

    def test_erode_dilate_agree_one_rounding_off_a_tie(self):
        # 3 * 0.1 > 0.3: a node three cells inside sits at distance 0.3 up to
        # one rounding, so erode and dilate must share the tie tolerance
        dom = GridDomain.raw(20, 20, 0.1)
        nodes = np.zeros((20, 20), dtype=bool)
        nodes[5:15, 5:15] = True
        er = erode(Mask(dom, nodes), 0.3).nodes
        assert np.array_equal(er, ~dilate(Mask(dom, ~nodes), 0.3).nodes)
        assert not er[7, 9] and er[8, 9]

    def test_negative_radius_rejected(self):
        dom = GridDomain.raw(8, 8, 1.0)
        m = Mask(dom, dom.mask.copy())
        with pytest.raises(ValueError):
            dilate(m, -1.0)
        with pytest.raises(ValueError):
            erode(m, -0.5)

    def test_nan_radius_rejected(self):
        # a NaN radius used to fail every threshold and return an empty mask
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        x, _ = dom.coords()
        m = Mask(dom, dom.mask & (x < 1.0))
        for op in (dilate, erode):
            with pytest.raises(ValueError, match="nan"):
                op(m, math.nan)

    def test_infinite_radius(self):
        dom = build_domain("l_shape", 16, 1.0)
        x, _ = dom.coords()
        m = Mask(dom, dom.mask & (x < 0.25))
        assert np.array_equal(dilate(m, math.inf).nodes, dom.mask)
        assert not erode(m, math.inf).nodes.any()


def named_radii(h: float) -> list:
    """Radii on node-distance ties, just inside and just outside the tie
    tolerance, the sweep's blocking and start margins r - h and r / 2 + h,
    and a radius past every lattice distance."""
    radii = [h, math.sqrt(2) * h, 2 * h, math.sqrt(5) * h, 5 * h, math.inf]
    radii += [5 * h * (1 - 5e-13), 5 * h * (1 - 5e-12)]
    for r in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        radii += [max(r - h, 0.0), r / 2 + h]
    return radii


def assert_morphology_matches_the_transform(m: Mask, r: float):
    assert np.array_equal(dilate(m, r).nodes, edt_dilate(m, r))
    assert np.array_equal(erode(m, r).nodes, edt_erode(m, r))


class TestMorphologyMatchesTheTransform:
    """The offset unions give the bytes of the distance-transform threshold."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        n=st.integers(3, 40),
        density=densities,
        seed=seeds,
        # whole cells and sqrt(q) cells put lattice nodes exactly at distance r
        r_cells=(
            st.integers(0, 60).map(float)
            | st.floats(0.0, 60.0)
            | st.integers(1, 3600).map(math.sqrt)
        ),
    )
    def test_random_masks_on_every_shape(self, shape, n, density, seed, r_cells):
        dom = build_domain(shape[0], n, *shape[1])
        nodes = random_nodes(dom.nx, dom.ny, density, seed) & dom.mask
        nodes.flat[np.flatnonzero(dom.mask)[seed % int(dom.mask.sum())]] = True
        m = Mask(dom, nodes)
        # the same radius written in decimals sits one rounding off the
        # node distance
        for r in (r_cells * dom.h, round(r_cells * dom.h, 6)):
            assert_morphology_matches_the_transform(m, r)

    @pytest.mark.parametrize("n", [32, 48, 128])
    @pytest.mark.parametrize("shape, params", SHAPES)
    def test_named_radii(self, shape, params, n):
        dom = build_domain(shape, n, *params)
        x, _ = dom.coords()
        left = x < x.mean()
        noise = np.random.default_rng(n).random(x.shape) < 0.9
        for nodes in (left, ~left & noise):
            m = Mask(dom, nodes & dom.mask)
            for r in named_radii(dom.h):
                assert_morphology_matches_the_transform(m, r)


class TestGradient:
    def test_linear_field_unit_slope(self):
        dom = build_domain("square", 32, 1.0)
        x, _ = dom.coords()
        f = ScalarField.from_values(dom, x)
        gx, gy = discrete_gradient(f)
        inner = erode(Mask(dom, dom.mask.copy()), 1.5 * dom.h).nodes
        assert np.allclose(gx.values[inner], 1.0, atol=1e-9)
        assert np.allclose(gy.values[inner], 0.0, atol=1e-9)

    def test_constant_field_zero_gradient(self):
        dom = build_domain("disk", 24, 1.0)
        f = ScalarField.from_values(dom, np.ones(dom.mask.shape))
        gx, gy = discrete_gradient(f)
        assert np.all(gx.values[dom.mask] == 0.0)
        assert np.all(gy.values[dom.mask] == 0.0)

    def test_sine_product_max_gradient(self):
        dom = build_domain("square", 128, 1.0)
        x, y = dom.coords()
        f = ScalarField.from_values(dom, np.sin(np.pi * x) * np.sin(np.pi * y))
        g = gradient_magnitude(f)
        assert abs(g.values.max() - np.pi) <= 0.02 * np.pi

    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(1, 40), ny=st.integers(1, 40), density=st.floats(0.001, 1.0),
           seed=seeds)
    def test_matches_shifted_copies_on_random_masks(self, nx, ny, density, seed):
        f = random_field(nx, ny, density, seed)
        gx, gy = discrete_gradient(f)
        want_x, want_y = shifted_copy_gradient(f)
        assert np.array_equal(gx.values, want_x)
        assert np.array_equal(gy.values, want_y)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(1, 30), ny=st.integers(1, 30), density=st.floats(0.001, 1.0),
           seed=seeds, k=st.sampled_from([1, 2, 5]))
    def test_stack_matches_field_by_field(self, nx, ny, density, seed, k):
        dom = random_field(nx, ny, density, seed).domain
        noise = np.random.default_rng(seed + 2).standard_normal((k, nx, ny))
        stack = np.where(dom.mask, noise, 0.0)
        gx, gy = _stencil_gradient(stack, dom.mask, dom.h)
        assert gx.shape == gy.shape == (k, nx, ny)
        for i in range(k):
            want_x, want_y = discrete_gradient(ScalarField(dom, stack[i]))
            assert np.array_equal(gx[i], want_x.values)
            assert np.array_equal(gy[i], want_y.values)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(1, 30), ny=st.integers(1, 30), k=st.integers(0, 3),
           density=st.floats(0.001, 1.0), seed=seeds)
    def test_padded_matches_np_pad(self, nx, ny, k, density, seed):
        # a 2-D bool mask and a 3-D float stack of k fields
        mask = random_nodes(nx, ny, density, seed)
        stack = np.random.default_rng(seed).standard_normal((k, nx, ny))
        for a, width in ((mask, [(1, 1)] * 2), (stack, [(0, 0)] + [(1, 1)] * 2)):
            got, want = _padded(a), np.pad(a, width, constant_values=0)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape, params", SHAPES)
    def test_matches_shifted_copies_on_shapes(self, shape, params):
        dom = build_domain(shape, 32, *params)
        values = np.random.default_rng(4).standard_normal(dom.mask.shape)
        f = ScalarField.from_values(dom, values)
        gx, gy = discrete_gradient(f)
        want_x, want_y = shifted_copy_gradient(f)
        assert np.array_equal(gx.values, want_x)
        assert np.array_equal(gy.values, want_y)
        assert np.array_equal(gradient_magnitude(f).values, np.hypot(want_x, want_y))


class TestNorms:
    def test_zero_field_all_zero(self):
        dom = build_domain("square", 16, 1.0)
        out = norms(ScalarField.zeros(dom))
        assert all(v == 0.0 for v in out.values())

    def test_unit_field_l2_approaches_one(self):
        vals = []
        for n in (8, 16, 32, 64):
            dom = build_domain("square", n, 1.0)
            f = ScalarField.from_values(dom, np.ones(dom.mask.shape))
            vals.append(norms(f)["l2"])
        assert vals == sorted(vals)
        assert abs(vals[-1] - 1.0) < 0.05

    def test_linear_field_lip_and_holder(self):
        # free lattice: f(x) = x on the closed square, no Dirichlet zeroing;
        # |dx| / |dx|^(1/2) peaks at the full width dx = 1
        dom = GridDomain.raw(33, 33, 1.0 / 32.0)
        x, _ = dom.coords()
        f = ScalarField.from_values(dom, x)
        out = norms(f, alpha=0.5)
        assert out["lip"] == pytest.approx(1.0, abs=1e-9)
        assert out["holder"] == pytest.approx(1.0, rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(**holder_cases)
    def test_holder_matches_all_pairs(self, nx, ny, h, alpha, kind, seed):
        f = ScalarField(GridDomain.raw(nx, ny, h), random_values(nx, ny, kind, seed))
        want = brute_force_holder(f.values, h, alpha)
        assert _holder_seminorm(f, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(**holder_cases)
    def test_holder_floor_changes_no_bit(self, nx, ny, h, alpha, kind, seed):
        # a floor prunes offsets but the result is max(floor, seminorm)
        # exactly, also at a floor equal to the seminorm and for a zero field
        f = ScalarField(GridDomain.raw(nx, ny, h), random_values(nx, ny, kind, seed))
        exact = _holder_seminorm(f, alpha)
        for floor in (0.0, exact / 2, exact, 2 * exact):
            assert _holder_seminorm(f, alpha, floor) == max(floor, exact)

    @settings(max_examples=150, deadline=None)
    @given(**holder_cases, mirrors=st.sampled_from(["col", "row", "both"]))
    def test_mirrored_field_scans_half_the_offsets(self, nx, ny, h, alpha, kind, seed, mirrors):
        # a field equal to a mirror of itself evaluates no offset with b < 0
        # and gives the half-plane reference's bits, floors included
        f = ScalarField(GridDomain.raw(nx, ny, h), mirrored_values(nx, ny, kind, seed, mirrors))
        exact = half_plane_holder(f, alpha)
        for floor in (0.0, exact / 2, exact, 2 * exact):
            got, visited = scan_with_offsets(f, alpha, floor)
            assert got == half_plane_holder(f, alpha, floor)
            assert all(b >= 0 for _, b in visited)

    @settings(max_examples=150, deadline=None)
    @given(**dict(holder_cases, nx=st.integers(2, 24), ny=st.integers(2, 24)),
           mirrors=st.sampled_from(["col", "row", "both"]))
    def test_field_one_entry_off_a_mirror_scans_as_the_reference(
        self, nx, ny, h, alpha, kind, seed, mirrors
    ):
        # nonzero corners make the crop the whole lattice; one entry off
        # both mirror axes, raised above every value, then breaks both
        # mirrors, so the scan must evaluate the reference's offsets in
        # the reference's order
        v = mirrored_values(nx, ny, kind, seed, mirrors)
        v[[0, 0, -1, -1], [0, -1, 0, -1]] = 1.0
        rng = np.random.default_rng(seed)
        i, j = int(rng.integers(nx)), int(rng.integers(ny))
        i, j = (0 if 2 * i == nx - 1 else i), (0 if 2 * j == ny - 1 else j)
        v[i, j] += 1.0 + 2.0 * np.abs(v).max()
        f = ScalarField(GridDomain.raw(nx, ny, h), v)
        assert not np.array_equal(v, v[:, ::-1]) and not np.array_equal(v, v[::-1])
        exact = half_plane_holder(f, alpha)
        for floor in (0.0, exact / 2, exact, 2 * exact):
            assert scan_with_offsets(f, alpha, floor) == reference_with_offsets(f, alpha, floor)

    @pytest.mark.parametrize("n", [48, 128])
    def test_sweep_scans_take_the_mirror_path(self, n):
        # every field the seed-11 sweep scans, with the floor it is scanned
        # from: its crop equals its column mirror, and the halved scan gives
        # the reference's bits
        from segpart import partition
        from segpart.partition import PartitionProblem, run_sweep

        calls = []

        def spy(f, alpha=0.5, *, holder_floor=0.0):
            calls.append((f, alpha, holder_floor))
            return norms(f, alpha, holder_floor=holder_floor)

        dom = build_domain("rectangle", n, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=1 / 8, seed=11, tol_eig=1e-8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "norms", spy)
            run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0])
        assert calls
        for f, alpha, floor in calls:
            crop = holder_crop(f.values)
            assert np.array_equal(crop, crop[:, ::-1])
            assert _holder_seminorm(f, alpha, floor) == half_plane_holder(f, alpha, floor)

    def test_holder_floor_must_be_finite_and_nonnegative(self):
        dom = build_domain("square", 8, 1.0)
        f = ScalarField.from_values(dom, np.ones(dom.mask.shape))
        for floor in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                _holder_seminorm(f, 0.5, floor)
            with pytest.raises(ValueError):
                norms(f, holder_floor=floor)

    def test_holder_exact_on_sweep_state(self):
        # both fields of the first level of the n=48 seed-11 sweep, on its
        # 97x49 lattice
        from segpart.partition import PartitionProblem, optimize

        dom = build_domain("rectangle", 48, 2.0, 1.0)
        state = optimize(PartitionProblem(dom, k=2, r=1 / 8, seed=11))
        assert (dom.nx, dom.ny) == (97, 49)
        exact = []
        for f in state.fields:
            want = brute_force_holder(f.values, dom.h, 0.5)
            exact.append(_holder_seminorm(f, 0.5))
            assert exact[-1] == pytest.approx(want, rel=1e-12, abs=0.0)
        # each field scanned from the other's value, as a sweep level does
        for f, own, other in zip(state.fields, exact, exact[::-1]):
            assert _holder_seminorm(f, 0.5, other) == max(other, own)

    def test_l2_triangle_inequality(self):
        rng = np.random.default_rng(13)
        dom = build_domain("disk", 16, 1.0)
        for _ in range(25):
            a = ScalarField.from_values(dom, rng.standard_normal(dom.mask.shape))
            b = ScalarField.from_values(dom, rng.standard_normal(dom.mask.shape))
            s = ScalarField.from_values(dom, a.values + b.values)
            assert norms(s)["l2"] <= norms(a)["l2"] + norms(b)["l2"] + 1e-12

    def test_bad_alpha_rejected(self):
        dom = build_domain("square", 8, 1.0)
        f = ScalarField.zeros(dom)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                norms(f, alpha=alpha)


class TestFieldInvariants:
    def test_field_zero_off_mask_enforced(self):
        dom = build_domain("disk", 16, 1.0)
        vals = np.ones(dom.mask.shape)
        f = ScalarField.from_values(dom, vals)
        assert np.all(f.values[~dom.mask] == 0.0)
        with pytest.raises(ConstraintViolationError):
            ScalarField(dom, vals)

    def test_non_finite_rejected(self):
        dom = build_domain("square", 8, 1.0)
        vals = np.zeros(dom.mask.shape)
        vals[4, 4] = np.nan
        with pytest.raises(ValueError):
            ScalarField(dom, vals)

    def test_mask_subset_enforced(self):
        dom = build_domain("disk", 16, 1.0)
        with pytest.raises(ConstraintViolationError):
            Mask(dom, np.ones(dom.mask.shape, dtype=bool))

    def test_dirichlet_energy_matches_quadratic_form(self):
        dom = build_domain("l_shape", 16, 1.0)
        rng = np.random.default_rng(2)
        fields = [
            ScalarField.from_values(dom, rng.standard_normal(dom.mask.shape)),
            ScalarField(GridDomain.raw(9, 5, 0.3), rng.standard_normal((9, 5))),
        ]
        # random masks on raw lattices: a single node, one row, sparse
        # (isolated nodes), half and dense masks reaching the lattice edge
        for lattice in [(1, 1, 0.9, 3), (1, 30, 0.5, 4), (17, 23, 0.05, 5),
                        (40, 31, 0.6, 6), (64, 64, 0.95, 7)]:
            fields.append(random_field(*lattice))
        for f in fields:
            A, idx = coo_laplacian(f.domain, f.domain.mask)
            vec = f.values.ravel()[idx]
            quad = float(vec @ (A @ vec)) * f.domain.h**2
            assert dirichlet_energy(f) == pytest.approx(quad, rel=1e-12)
