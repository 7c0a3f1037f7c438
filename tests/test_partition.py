import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import jaccard_match

import segpart as sp
from segpart.errors import EmptyRegionError, InfeasibleError, SqueezedOutError
from segpart import partition
from segpart.eigensolve import first_dirichlet_eig
from segpart.grid import GridDomain, Mask, ScalarField, build_domain, gradient_magnitude
from segpart.partition import (
    PartitionProblem,
    PartitionState,
    SolveMemo,
    check_feasible,
    cutoff_competitor,
    exterior_sphere_fraction,
    free_boundary_point,
    gradient_location_check,
    init_partition,
    optimize,
    pairwise_support_distances,
    relax_step,
    run_sweep,
)


def mirror_sites(dom):
    """Sites symmetric about the vertical midline of rectangle(2,1)."""
    a = dom.nearest_node((0.5, 0.5))
    b = dom.nearest_node((1.5, 0.5))
    return [a, b]


class TestProblemValidation:
    def test_infeasible_r_at_init(self):
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        with pytest.raises(InfeasibleError, match="infeasible r"):
            PartitionProblem(dom, k=2, r=1.9)

    def test_tau_range(self):
        dom = build_domain("square", 16, 1.0)
        with pytest.raises(ValueError):
            PartitionProblem(dom, k=2, r=0.0, tau=0.5)

    def test_negative_r(self):
        dom = build_domain("square", 16, 1.0)
        with pytest.raises(ValueError):
            PartitionProblem(dom, k=2, r=-0.1)
        # rejected up front: optimize would fail 50 start attempts later as infeasible
        for k, r in ((2, math.nan), (1, math.nan), (1, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                PartitionProblem(dom, k=k, r=r)

    @pytest.mark.parametrize("name", ["tol_eig", "tol_outer"])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_tolerances_finite_and_positive(self, name, tol):
        # a bad tol_eig used to fail at the first eigensolve, after the Lloyd
        # start, and a bad tol_outer silently turned off the quiet-pass stop
        dom = build_domain("square", 16, 1.0)
        with pytest.raises(ValueError, match=name):
            PartitionProblem(dom, k=2, r=0.0, **{name: tol})

    def test_k_positive_integer(self):
        # a float or bool k used to fail only inside optimize's rng.choice
        dom = build_domain("square", 16, 1.0)
        for k in (2.5, 2.0, True, "2", None, 0, -1):
            with pytest.raises(ValueError, match="component count k"):
                PartitionProblem(dom, k=k, r=0.0)
        for k in (1, 2, np.int64(3)):
            assert PartitionProblem(dom, k=k, r=0.0).k == k

    def test_seed_nonnegative_integer(self):
        dom = build_domain("square", 16, 1.0)
        for seed in (-1, 1.5, "3", None, True):
            with pytest.raises(ValueError, match="seed"):
                PartitionProblem(dom, k=2, r=0.0, seed=seed)
        for seed in (0, 7, np.int64(11)):
            assert PartitionProblem(dom, k=2, r=0.0, seed=seed).seed == seed


class TestInit:
    def test_symmetric_sites_give_half_rectangles(self):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=0, tol_eig=1e-7)
        state = init_partition(prob, sites=mirror_sites(dom))
        x, _ = dom.coords()
        # each support stays in its half (up to the erosion margin)
        assert np.all(x[state.supports[0].nodes] < 1.0 + dom.h)
        assert np.all(x[state.supports[1].nodes] > 1.0 - dom.h)
        assert abs(state.lambdas[0] - state.lambdas[1]) / state.lambdas[0] < 1e-6

    def test_pairwise_distance_invariant(self):
        rng = np.random.default_rng(17)
        shapes = [("square", (1.0,)), ("rectangle", (2.0, 1.0)), ("disk", (1.0,))]
        for trial in range(12):
            shape, args = shapes[trial % 3]
            n = int(rng.integers(16, 33))
            dom = build_domain(shape, n, *args)
            k = int(rng.integers(2, 4))
            rmax = dom.diameter() / k * 0.5
            r = float(rng.uniform(0, rmax))
            try:
                prob = PartitionProblem(dom, k=k, r=r, seed=trial, tol_eig=1e-6)
                state = init_partition(prob)
            except InfeasibleError:
                continue
            d = pairwise_support_distances(state)
            iu = np.triu_indices(k, 1)
            assert np.all(d[iu] >= r - dom.h - 1e-9)

    def test_infeasible_r_after_erosion(self):
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=1.0, seed=0, tol_eig=1e-6)
        # feasibility heuristic passes (r < diam/2) but cells vanish under
        # erosion by r/2 + h for sites this close together
        sites = [dom.nearest_node((0.9, 0.5)), dom.nearest_node((1.1, 0.5))]
        with pytest.raises(InfeasibleError, match="infeasible r"):
            init_partition(prob, sites=sites)


@pytest.mark.parametrize("iters", [40, 1])
def test_lloyd_cells_are_the_voronoi_cells_of_its_sites(iters):
    # 40 iterations converge from this start, one does not: the cells of
    # the last iteration's sites and the cells computed after it
    dom = build_domain("rectangle", 48, 2.0, 1.0)
    start = [dom.nearest_node((0.3, 0.2)), dom.nearest_node((0.5, 0.3))]
    sites, cells = partition._lloyd_sites(dom, start, iters=iters)
    assert (partition._lloyd_sites(dom, sites, iters=1)[0] == sites) == (iters == 40)
    want = partition.voronoi_cells(dom, sites)
    assert [c.tobytes() for c in cells] == [c.tobytes() for c in want]


def partitioned_voronoi_cells(domain, sites):
    """``voronoi_cells`` finding ties from the two smallest distances by
    ``np.partition``, with no ties for a single site."""
    ii, jj = np.indices(domain.mask.shape)
    dist2 = np.stack([(ii - si) ** 2 + (jj - sj) ** 2 for (si, sj) in sites], axis=0)
    owner = np.argmin(dist2, axis=0)
    if len(sites) > 1:
        part = np.partition(dist2, 1, axis=0)
        tie = part[0] == part[1]
    else:
        tie = np.zeros_like(domain.mask)
    return [(owner == i) & domain.mask & ~tie for i in range(len(sites))]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
       shape=st.sampled_from(["square", "disk", "rectangle"]))
def test_voronoi_ties_match_partition(seed, k, shape):
    dom = build_domain(shape, 48, *((2.0, 1.0) if shape == "rectangle" else (1.0,)))
    nodes = np.argwhere(dom.mask)
    # repeated sites included: every node is then a tie between them
    sites = [tuple(nodes[i]) for i in np.random.default_rng(seed).integers(0, len(nodes), k)]
    got, want = partition.voronoi_cells(dom, sites), partitioned_voronoi_cells(dom, sites)
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def assert_feasible_and_segregated(state, prob):
    assert check_feasible(state, prob)
    for i in range(prob.k):
        for j in range(i + 1, prob.k):
            assert not np.any(state.fields[i].values * state.fields[j].values)
            assert not np.any(state.supports[i].nodes & state.supports[j].nodes)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(
        [("square", (1.0,)), ("rectangle", (2.0, 1.0)), ("disk", (1.0,))]
    ),
    n=st.integers(8, 24),
    k=st.sampled_from([2, 3]),
    r_frac=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
)
def test_init_and_relax_stay_feasible_and_segregated(shape, n, k, r_frac, seed):
    name, args = shape
    dom = build_domain(name, n, *args)
    try:
        r = r_frac * dom.diameter() / k
        prob = PartitionProblem(dom, k=k, r=r, seed=seed, tol_eig=1e-6)
        state = init_partition(prob)
        after = relax_step(state, prob)
    except (InfeasibleError, SqueezedOutError):
        assume(False)
    assert_feasible_and_segregated(state, prob)
    assert_feasible_and_segregated(after, prob)


def block_state(dom, blocks):
    """A state whose supports are the mask's nodes in each (first row, last
    row) block and whose fields are their indicators."""
    supports = []
    for lo, hi in blocks:
        nodes = np.zeros_like(dom.mask)
        nodes[lo : hi + 1] = True
        supports.append(Mask(dom, nodes & dom.mask))
    fields = [ScalarField(dom, s.nodes.astype(float)) for s in supports]
    return PartitionState(fields, supports, np.ones(len(blocks)), float(len(blocks)))


class TestCheckFeasible:
    def test_supports_exactly_r_minus_h_apart_are_infeasible(self):
        # rows 5 and 8 lie 3h = r - h apart, so the block pass's (r - h)-
        # dilation of either block meets the other; a distance test with
        # slack accepted them
        dom = build_domain("square", 16, 1.0)
        prob = PartitionProblem(dom, k=2, r=1 / 4)
        close = block_state(dom, [(1, 5), (8, 14)])
        assert pairwise_support_distances(close)[0, 1] == 3 * dom.h == prob.r - dom.h
        assert not check_feasible(close, prob)
        assert check_feasible(block_state(dom, [(1, 5), (9, 14)]), prob)
        assert check_feasible(close, prob, r=3 * dom.h)

    def test_overlapping_fields_are_infeasible(self):
        dom = build_domain("square", 16, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0)
        state = block_state(dom, [(1, 5), (9, 14)])
        assert check_feasible(state, prob)
        state.fields[1] = state.fields[0]
        assert not check_feasible(state, prob)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 24),
        k=st.integers(2, 3),
        seed=st.integers(0, 2**16),
        cells=st.one_of(st.integers(0, 12).map(lambda m: m / 2), st.floats(0.0, 6.0)),
    )
    def test_the_rule_read_off_distances(self, n, k, seed, cells):
        # the (r - h)-dilation blocks a node within (r - h)(1 + 1e-12), so
        # supports pass exactly when every pair is farther apart than that
        dom = build_domain("square", n, 1.0)
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(k):
            lo = int(rng.integers(1, n))
            blocks.append((lo, int(rng.integers(lo, n))))
        state = block_state(dom, blocks)
        r = cells * dom.h
        slack = max(r - dom.h, 0.0)
        d = pairwise_support_distances(state)
        apart = all(d[i, j] > slack * (1 + 1e-12) for i in range(k) for j in range(i + 1, k))
        assert check_feasible(state, PartitionProblem(dom, k=k, r=0.0), r=r) == apart


def test_losing_near_degenerate_component_does_not_abort_the_pass():
    # a property-test find: one allowed set of this pass has components of
    # 193, 29, 3 and 3 nodes; the 29-node dumbbell (lambda_1/lambda_2 =
    # 0.99999) never met tol_eig within 10000 solves and raised ConvergenceError,
    # although the 193-node component wins with lambda 31.88
    dom = build_domain("rectangle", 18, 2.0, 1.0)
    prob = PartitionProblem(dom, k=3, r=0.25 * dom.diameter() / 3, seed=1, tol_eig=1e-6)
    state = init_partition(prob)
    after = relax_step(state, prob)
    assert_feasible_and_segregated(after, prob)
    assert after.c <= state.c * (1 + 1e-14)


class TestRelax:
    def test_symmetric_fixed_point(self):
        dom = build_domain("rectangle", 64, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=0, tol_eig=1e-9)
        state = init_partition(prob, sites=mirror_sites(dom))
        after = relax_step(state, prob)
        assert after.c <= state.c + 10 * prob.tol_eig
        again = relax_step(after, prob)
        assert abs(again.c - after.c) / after.c < 1e-6

    def test_k1_degenerate(self):
        dom = build_domain("square", 32, 1.0)
        prob = PartitionProblem(dom, k=1, r=0.0, seed=0, tol_eig=1e-9)
        state = optimize(prob)
        direct = first_dirichlet_eig(dom, tol=1e-9)
        assert state.c == pytest.approx(direct.lam, rel=1e-6)

    def test_energy_monotone_on_seeded_states(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            n = int(rng.integers(16, 33))
            dom = build_domain("square", n, 1.0)
            prob = PartitionProblem(dom, k=2, r=0.0, seed=trial, tol_eig=1e-7)
            state = init_partition(prob)
            after = relax_step(state, prob)
            # independent re-evaluation of both energies
            c_before = sum(sp.rayleigh_quotient(f) for f in state.fields)
            c_after = sum(sp.rayleigh_quotient(f) for f in after.fields)
            assert c_after <= c_before + 10 * prob.tol_eig
            assert after.c == pytest.approx(c_after, rel=1e-10)


class TestOptimize:
    def test_rectangle_beats_symmetric_competitor(self):
        dom = build_domain("rectangle", 64, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=7, tol_eig=1e-7)
        state = optimize(prob)
        # competitor: the symmetric split, evaluated discretely
        x, _ = dom.coords()
        left = Mask(dom, dom.mask & (x < 1.0))
        right = Mask(dom, dom.mask & (x > 1.0))
        competitor = (
            first_dirichlet_eig(dom, left, tol=1e-7).lam
            + first_dirichlet_eig(dom, right, tol=1e-7).lam
        )
        assert state.c <= competitor * 1.01

    def test_disk_beats_diameter_split(self):
        dom = build_domain("disk", 64, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=3, tol_eig=1e-7)
        state = optimize(prob)
        x, _ = dom.coords()
        top = Mask(dom, dom.mask & (x < 0.0))
        bottom = Mask(dom, dom.mask & (x > 0.0))
        competitor = (
            first_dirichlet_eig(dom, top, tol=1e-7).lam
            + first_dirichlet_eig(dom, bottom, tol=1e-7).lam
        )
        assert state.c <= competitor * 1.01
        # continuum competitor for reference: two half-disks
        j11 = sp.bessel_first_zero(1.0)
        assert state.c <= 2 * j11**2 * 1.01

    def test_c_r_nondecreasing(self):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        cs = []
        for r in (0.0, 0.125, 0.25):
            prob = PartitionProblem(dom, k=2, r=r, seed=5, tol_eig=1e-7)
            cs.append(optimize(prob).c)
        assert cs[0] <= cs[1] + 1e-6
        assert cs[1] <= cs[2] + 1e-6

    def test_feasibility_after_optimize(self):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.25, seed=5, tol_eig=1e-7)
        state = optimize(prob)
        assert check_feasible(state, prob)

    def test_determinism(self):
        dom = build_domain("square", 24, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.1, seed=9, tol_eig=1e-7)
        a = optimize(prob)
        b = optimize(prob)
        assert a.c == b.c
        for fa, fb in zip(a.fields, b.fields):
            assert np.array_equal(fa.values, fb.values)

    def test_stops_at_a_fixed_point(self):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0625, seed=11, tol_eig=1e-8)
        again = optimize(prob, initial=optimize(prob))
        assert again.metadata["passes"] < 3
        after = relax_step(again, prob)
        assert np.array_equal(after.lambdas, again.lambdas)
        for a, b in zip(after.supports, again.supports):
            assert np.array_equal(a.nodes, b.nodes)

    def test_permutation_invariance(self):
        dom = build_domain("rectangle", 24, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=1, tol_eig=1e-7)
        s1, s2 = mirror_sites(dom)
        a = optimize(prob, sites=[s1, s2])
        b = optimize(prob, sites=[s2, s1])
        assert a.c == pytest.approx(b.c, rel=1e-9)
        assert np.array_equal(a.fields[0].values, b.fields[1].values)
        assert np.array_equal(a.fields[1].values, b.fields[0].values)


@pytest.fixture(scope="module")
def base_state():
    dom = build_domain("rectangle", 64, 2.0, 1.0)
    prob = PartitionProblem(dom, k=2, r=0.0, seed=7, tol_eig=1e-8)
    return dom, prob, optimize(prob)


class TestTwoRectangleOracle:
    """Cold ``optimize`` on rectangle(2,1), k = 2, against the two-rectangle
    partition [0, w] x [0, 1] and its mirror, w = 1 - r/2: it is feasible
    for every r, so C(r) = 2 pi^2 (1 + w^-2) bounds c_r from above (the
    optimum at r = 0), and its ground states (2/sqrt(w)) sin(pi x/w) sin(pi y)
    give Lip = 2 pi w^(-3/2) and L-inf = 2 w^(-1/2)."""

    @pytest.mark.parametrize("r", [0.125, 0.0])
    def test_first_order_convergence_to_the_closed_form(self, r):
        w = 1.0 - r / 2.0
        exact = np.array([
            2.0 * math.pi**2 * (1.0 + w**-2), 2.0 * math.pi * w**-1.5, 2.0 * w**-0.5,
        ])
        c = {}
        err = {}
        for n in (64, 128):
            dom = build_domain("rectangle", n, 2.0, 1.0)
            state = optimize(PartitionProblem(dom, k=2, r=r, seed=11))
            lip = max(float(gradient_magnitude(f).values.max()) for f in state.fields)
            linf = max(float(np.abs(f.values).max()) for f in state.fields)
            c[n] = state.c
            err[n] = np.array([state.c, lip, linf]) - exact
        # the lattice optimum sits below C, and every error halves with h
        assert err[64][0] < 0 and err[128][0] < 0
        ratios = err[64] / err[128]
        assert np.all((ratios >= 1.6) & (ratios <= 2.4)), ratios
        richardson = 2.0 * c[128] - c[64]
        assert abs(richardson - exact[0]) <= 0.0025 * exact[0]


class TestCutoff:
    def test_r_zero_identity(self, base_state):
        dom, prob, state = base_state
        out = cutoff_competitor(state, prob, 0.0)
        assert out["energy"] == pytest.approx(state.c, rel=1e-6)

    def test_linear_energy_growth(self, base_state):
        dom, prob, state = base_state
        rs = np.array([1 / 64, 1 / 32, 1 / 16, 1 / 8])
        gaps = np.array(
            [cutoff_competitor(state, prob, float(r))["energy"] - state.c for r in rs]
        )
        assert np.all(gaps >= 0)
        slope = float((rs * gaps).sum() / (rs * rs).sum())
        resid = np.linalg.norm(gaps - slope * rs) / np.linalg.norm(gaps)
        assert slope > 0
        assert resid <= 0.10

    def test_minkowski_content_stabilizes(self, base_state):
        dom, prob, state = base_state
        rs = [1 / 64, 1 / 32, 1 / 16, 1 / 8]
        ratios = np.array(
            [cutoff_competitor(state, prob, r)["nodal_volume"] / (2 * r) for r in rs]
        )
        mean = ratios.mean()
        assert np.all(np.abs(ratios - mean) <= 0.15 * mean)
        # the interface of the near-symmetric split has length about 1
        assert mean == pytest.approx(1.0, abs=0.2)

    def test_feasible_at_target_separation(self, base_state):
        dom, prob, state = base_state
        out = cutoff_competitor(state, prob, 1 / 8)
        assert check_feasible(out["state"], prob, r=1 / 8)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.125])
    def test_bad_separation_rejected_up_front(self, base_state, r):
        # NaN and inf passed r < 0 and failed later, in the field check
        dom, prob, state = base_state
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {r}"):
            cutoff_competitor(state, prob, r)

    def test_annihilation_raises(self, base_state):
        dom, prob, state = base_state
        with pytest.raises((EmptyRegionError, InfeasibleError)):
            cutoff_competitor(state, prob, 3.0)


def sweep_scans(monkeypatch, shape, params, n, k, seed):
    """Run a five-level sweep with partition's norms counted, and check that
    every row equals the floor-0 norms of its fields, bit for bit.  Returns
    the scans made and the scans of whole-level reuse: k for each level
    whose fields differ from the previous level's."""
    prob = PartitionProblem(build_domain(shape, n, *params), k=k, r=1 / 8, seed=seed,
                            tol_eig=1e-8)
    inner = partition.norms
    scans = []

    def counting(f, *, holder_floor=0.0):
        scans.append(f)
        return inner(f, holder_floor=holder_floor)

    monkeypatch.setattr(partition, "norms", counting)
    rep = run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0])
    whole_level, prev = 0, None
    for row in rep.rows:
        fields = rep.states[row["r"]].fields
        fresh = [inner(f) for f in fields]
        assert row["lip_max"] == max(q["lip"] for q in fresh)
        assert row["linf_max"] == max(q["linf"] for q in fresh)
        assert row["holder_05"] == max(q["holder"] for q in fresh)
        if prev is None or not all(map(np.array_equal, (f.values for f in fields),
                                       (f.values for f in prev))):
            whole_level += k
        prev = fields
    return len(scans), whole_level


class TestSweep:
    def test_r_values_validation(self):
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.25, seed=0)
        with pytest.raises(ValueError):
            run_sweep(prob, [0.0, 0.25])       # ascending
        with pytest.raises(ValueError):
            run_sweep(prob, [0.25, 0.125])      # missing r = 0
        with pytest.raises(ValueError):
            run_sweep(prob, [])                 # no level at all

    def test_non_finite_r_values_rejected_before_any_solve(self, monkeypatch):
        # sorted() reads [0.25, nan, 0.0] as descending, so only an up-front
        # finiteness check stops the sweep before its first level
        solves = []

        def spy(*args, **kwargs):
            solves.append(args)
            return first_dirichlet_eig(*args, **kwargs)

        monkeypatch.setattr(partition, "first_dirichlet_eig", spy)
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.25, seed=0)
        for r_values in ([0.25, math.nan, 0.0], [math.inf, 0.25, 0.0], [math.nan]):
            with pytest.raises(ValueError, match="finite"):
                run_sweep(prob, r_values)
        assert solves == []

    def test_small_sweep_columns(self):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.25, seed=5, tol_eig=1e-7)
        rep = run_sweep(prob, [0.25, 0.125, 0.0])
        cs = [row["c"] for row in sorted(rep.rows, key=lambda q: q["r"])]
        assert cs == sorted(cs)
        zero_row = next(r for r in rep.rows if r["r"] == 0.0)
        assert zero_row["dist_to_u0"] == [0.0, 0.0]
        lines = rep.to_csv_lines()
        assert lines[0].startswith("r,c_r,lambda_1,lambda_2,lip_max")
        assert len(lines) == 4

    def test_repeated_levels_reuse_their_norms(self, monkeypatch):
        # at n = 48, seed 11, the levels r = 1/32, 1/64 and 0 return one
        # state, and component 0 keeps one field through all five levels:
        # 4 scans where whole-level reuse made 6
        scans, whole_level = sweep_scans(monkeypatch, "rectangle", (2.0, 1.0), 48, 2, 11)
        assert (scans, whole_level) == (4, 6)

    @pytest.mark.parametrize(
        "shape, params, n, k, seed",
        [
            ("rectangle", (2.0, 1.0), 48, 2, 7717),
            ("square", (1.0,), 32, 3, 11),
            ("disk", (1.0,), 32, 3, 5),
            ("l_shape", (1.0,), 32, 2, 11),
            # distinct solves give equal fields here: matching them by
            # identity would scan 14 times
            ("rectangle", (2.0, 1.0), 32, 4, 11),
        ],
    )
    def test_fields_are_scanned_at_most_once_per_level(
        self, monkeypatch, shape, params, n, k, seed
    ):
        scans, whole_level = sweep_scans(monkeypatch, shape, params, n, k, seed)
        assert scans <= whole_level

    def test_a_field_known_by_a_bound_is_rescanned_when_it_may_lead(self, monkeypatch):
        # Holder seminorms in the ratio 5 : 3 : 4 : 2; b is first scanned
        # from a's value, so it is known only to be at most a's
        dom = GridDomain.raw(12, 9, 0.1)
        base = np.random.default_rng(0).standard_normal((12, 9))
        a, b, c, d = (ScalarField(dom, s * base) for s in (5.0, 3.0, 4.0, 2.0))
        inner = partition.norms
        scans = []

        def counting(f, *, holder_floor=0.0):
            scans.append(f)
            return inner(f, holder_floor=holder_floor)

        monkeypatch.setattr(partition, "norms", counting)
        seen = []
        for level, want_scans in (([a, b], 2), ([b, c], 2), ([b, d], 1), ([a, b], 0)):
            del scans[:]
            recs, holder = partition._level_norms(level, seen)
            assert holder == max(inner(f)["holder"] for f in level)
            assert [q["norms"]["lip"] for q in recs] == [inner(f)["lip"] for f in level]
            assert len(scans) == want_scans
        assert len(seen) == 4

    @pytest.mark.parametrize(
        "shape, params, n, k, seed",
        [
            ("rectangle", (2.0, 1.0), 48, 2, 11),
            ("rectangle", (2.0, 1.0), 48, 2, 7717),
            ("square", (1.0,), 32, 3, 11),
            ("l_shape", (1.0,), 32, 3, 11),
            ("square", (1.0,), 32, 4, 11),
            ("l_shape", (1.0,), 32, 4, 11),
            ("rectangle", (2.0, 1.0), 32, 4, 11),
        ],
    )
    def test_components_keep_their_index_along_the_sweep(self, shape, params, n, k, seed):
        # every level descends from the first through block passes, so the
        # overlap matcher the sweep once ran finds the identity on each
        prob = PartitionProblem(build_domain(shape, n, *params), k=k, r=0.0, seed=seed,
                                tol_eig=1e-8)
        rep = run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0])
        assert sorted(rep.states) == sorted(row["r"] for row in rep.rows)
        ref = rep.states[0.0]
        for row in rep.rows:
            state = rep.states[row["r"]]
            assert jaccard_match(state, ref) == list(range(k))
            assert row["dist_to_u0"] == [
                float(np.abs(f.values - g.values).max()) for f, g in zip(state.fields, ref.fields)
            ]

    def test_an_infeasible_first_level_is_an_error_row(self):
        # r = 1.5 reaches the diameter / k; the next level starts cold, as
        # the first level of a sweep without it does
        prob = PartitionProblem(build_domain("rectangle", 16, 2.0, 1.0), k=2, r=0.0, seed=5)
        rep = run_sweep(prob, [1.5, 0.25, 0.0])
        assert rep.rows[0] == {"r": 1.5, "error": "infeasible r"}
        assert sorted(rep.states) == [0.0, 0.25]
        plain = run_sweep(prob, [0.25, 0.0])
        assert rep.to_csv_lines()[1:] == plain.to_csv_lines()[1:] + ["1.5,error,infeasible r"]


def count_solves(monkeypatch):
    """Route partition's eigensolves through a recorder; returns the list of
    (allowed nodes, result) pairs it fills, one per real solve."""
    solved = []

    def recording(domain, allowed, **kw):
        res = first_dirichlet_eig(domain, allowed, **kw)
        solved.append((allowed.nodes.copy(), res))
        return res

    monkeypatch.setattr(partition, "first_dirichlet_eig", recording)
    return solved


def same_fixed_point(new, old):
    return np.array_equal(new.lambdas, old.lambdas) and all(
        np.array_equal(a.nodes, b.nodes) for a, b in zip(new.supports, old.supports)
    )


class TestSolveMemo:
    def test_every_block_result_equals_a_fresh_solve(self, monkeypatch):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=1 / 8, seed=11, tol_eig=1e-8)
        solved = count_solves(monkeypatch)
        served = []
        inner = partition._solve_component

        def recording(allowed, prob, memo):
            record = inner(allowed, prob, memo)
            served.append((allowed.copy(), record[0]))
            return record

        monkeypatch.setattr(partition, "_solve_component", recording)
        rep = run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 0.0])
        assert rep.metadata["eig_solves"] == len(solved)
        assert rep.metadata["eig_memo_hits"] == len(served) - len(solved) > 0
        # no allowed set is solved twice
        assert len({nodes.tobytes() for nodes, _ in solved}) == len(solved)
        # hits and misses alike equal a from-scratch solve, bit for bit
        for nodes, res in served:
            fresh = first_dirichlet_eig(
                dom, Mask(dom, nodes), tol=prob.tol_eig, seed=prob.seed
            )
            assert fresh.lam == res.lam
            assert fresh.residual == res.residual
            assert fresh.iterations == res.iterations
            assert fresh.field.values.tobytes() == res.field.values.tobytes()

    def test_confirming_pass_makes_no_solve(self, monkeypatch):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0625, seed=11, tol_eig=1e-8)
        solved = count_solves(monkeypatch)
        passes = []
        inner = partition.relax_step

        def recording(state, prob, **kw):
            before = len(solved)
            new = inner(state, prob, **kw)
            passes.append((same_fixed_point(new, state), len(solved) - before))
            return new

        monkeypatch.setattr(partition, "relax_step", recording)
        state = optimize(prob)
        confirming = [made for fixed, made in passes if fixed]
        assert confirming and confirming == [0] * len(confirming)
        assert state.metadata["eig_solves"] == len(solved)
        assert state.metadata["eig_memo_hits"] > 0

    def test_no_state_survives_between_sweeps(self, monkeypatch):
        dom = build_domain("rectangle", 24, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=1 / 8, seed=3, tol_eig=1e-8)
        solved = count_solves(monkeypatch)
        first = run_sweep(prob, [1 / 8, 1 / 16, 0.0])
        made = len(solved)
        second = run_sweep(prob, [1 / 8, 1 / 16, 0.0])
        assert len(solved) - made == made
        assert second.metadata["eig_solves"] == first.metadata["eig_solves"] == made
        assert second.to_csv_lines() == first.to_csv_lines()

    def test_each_solve_is_truncated_once(self, monkeypatch):
        # hits reuse the truncation made at the solve, and the sweep's
        # states are the ones a truncation on every block update gives
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=1 / 8, seed=11, tol_eig=1e-8)
        r_values = [1 / 8, 1 / 16, 1 / 32, 0.0]
        inner = partition._truncate
        cuts = []
        monkeypatch.setattr(partition, "_truncate",
                            lambda f, tau: cuts.append(f) or inner(f, tau))
        rep = run_sweep(prob, r_values)
        assert rep.metadata["eig_memo_hits"] > 0
        assert len(cuts) == rep.metadata["eig_solves"]
        solve = partition._solve_component

        def truncating(allowed, prob, memo):
            res = solve(allowed, prob, memo)[0]
            return res, inner(res.field, prob.tau)

        monkeypatch.setattr(partition, "_solve_component", truncating)
        plain = run_sweep(prob, r_values)
        assert plain.to_csv_lines() == rep.to_csv_lines()
        assert plain.metadata["eig_solves"] == rep.metadata["eig_solves"]
        assert plain.metadata["eig_memo_hits"] == rep.metadata["eig_memo_hits"]
        assert plain.states.keys() == rep.states.keys()
        for r, b in rep.states.items():
            a = plain.states[r]
            assert np.array_equal(a.lambdas, b.lambdas)
            assert all(f.values.tobytes() == g.values.tobytes()
                       for f, g in zip(a.fields, b.fields))

    def test_one_record_per_set_and_threshold(self, monkeypatch):
        # a record is the solve and its truncation at the key's tau; a memo
        # shared by two problems that differ only in tau keeps one record,
        # and makes one solve, per (set, tau)
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        solved = count_solves(monkeypatch)
        memo = SolveMemo()
        for tau in (1e-3, 1e-2):
            optimize(PartitionProblem(dom, k=2, r=1 / 8, seed=11, tau=tau), memo=memo)
        assert len(memo) == len(solved)
        taus = {}
        for (domain, tol, tau, nodes), (res, (f, supp, lam)) in memo.items():
            assert domain is dom and tol == 1e-8
            f2, supp2, lam2 = partition._truncate(res.field, tau)
            assert f.values.tobytes() == f2.values.tobytes()
            assert supp.nodes.tobytes() == supp2.nodes.tobytes()
            assert lam == lam2
            taus.setdefault(nodes, []).append(tau)
        assert {tau for ts in taus.values() for tau in ts} == {1e-3, 1e-2}
        # the start cells do not depend on tau, so both problems pose them
        assert any(ts == [1e-3, 1e-2] for ts in taus.values())

    def test_public_calls_take_a_shared_memo(self):
        dom = build_domain("rectangle", 24, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=3, tol_eig=1e-8)
        memo = SolveMemo()
        state = optimize(prob, memo=memo)
        again = relax_step(state, prob, memo=memo)
        assert len(memo) == state.metadata["eig_solves"]
        assert np.array_equal(again.lambdas, relax_step(state, prob).lambdas)

    def test_levels_posing_one_problem_add_no_solve(self, monkeypatch):
        # at n = 48 the slack r - h of r = 1/32, 1/64 and 0 dilates by no
        # lattice node, so the last two levels pose the r = 1/32 problem again
        dom = build_domain("rectangle", 48, 2.0, 1.0)
        r_values = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0]
        prob = PartitionProblem(dom, k=2, r=1 / 8, seed=11, tol_eig=1e-8)
        solved = count_solves(monkeypatch)
        starts = {r_values[0]: 0}
        inner = partition._restore_feasibility

        def marking(supports, prob):
            starts[prob.r] = len(solved)
            return inner(supports, prob)

        monkeypatch.setattr(partition, "_restore_feasibility", marking)
        rep = run_sweep(prob, r_values)
        ends = [starts[r] for r in r_values[1:]] + [len(solved)]
        made = {r: end - starts[r] for r, end in zip(r_values, ends)}
        assert made[1 / 64] == made[0.0] == 0
        assert rep.metadata["eig_solves"] == len(solved) == 16


class TestGradientLocation:
    def test_square_ratio_one(self, square_eig_128):
        dom, res = square_eig_128
        out = gradient_location_check(res, dom)
        assert out["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_disk_ratio(self, disk_eig_128):
        dom, res = disk_eig_128
        out = gradient_location_check(res, dom)
        assert 0.0 < out["ratio"] <= 1.0
        # the 1-D radial oracle: |phi'| peaks inside (at j'_{1,1}/j_{0,1} of
        # the radius), so the continuum boundary/max ratio is about 0.89;
        # staircase one-sided differences push the discrete value toward 1
        import scipy.special

        j01 = 2.404825557695773
        oracle = scipy.special.j1(j01) / scipy.special.j1(1.8411837813406593)
        assert out["ratio"] >= oracle - 0.02

    def test_ratio_definition(self, square_eig_128):
        dom, res = square_eig_128
        out = gradient_location_check(res, dom)
        assert out["boundary_grad"] <= out["max_grad"]
        assert out["ratio"] == out["boundary_grad"] / out["max_grad"]


class TestExteriorSphere:
    def test_fraction_high_at_moderate_resolution(self, rect_sweep_128):
        dom, prob, report = rect_sweep_128
        state = report.states[1 / 16]
        frac = exterior_sphere_fraction(state, prob.with_r(1 / 16))
        assert frac >= 0.8

    def test_requires_positive_r(self, rect_sweep_128):
        dom, prob, report = rect_sweep_128
        with pytest.raises(ValueError):
            exterior_sphere_fraction(report.states[0.0], prob.with_r(0.0))


class TestFreeBoundaryPoint:
    def test_lands_on_the_interface(self):
        dom = build_domain("rectangle", 32, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=5, tol_eig=1e-7)
        state = optimize(prob, sites=mirror_sites(dom))
        pt = free_boundary_point(state)
        assert abs(pt[0] - 1.0) <= 3 * dom.h
        assert 0.2 <= pt[1] <= 0.8
