"""Alternating eigenfunction relaxation for distance-constrained partitions.

The energy is the sum of first Dirichlet eigenvalues of k node sets whose
pairwise Euclidean distance stays at or above the separation r.  Block
passes run sequentially (Gauss-Seidel) in a deterministic label-invariant
order: component i solves the eigenproblem on the domain minus the
(r - h)-dilation of everyone else's support, so each block solve is the
global minimum over its block given the others, the energy never increases
across a pass, and feasibility is preserved unconditionally.  (A
Jacobi-style simultaneous pass can let two components claim the same
vacated territory, breaking both properties.)

The h slack in the dilation radius is the discretization rule for "distance
at least r": two node sets are accepted when neither meets the (r - h)-
dilation of the other, which keeps a continuum-feasible configuration
feasible under refinement; :func:`check_feasible` tests that same rule.

A sweep level's warm start is rebuilt by the same block pass, seeded with
the restored supports and infinite eigenvalues, so that it accepts every
block.

Supports are thresholded positivity sets {u > tau * max u}: discrete
eigenfunctions are strictly positive on their whole carrying component, so
the exact positivity set is useless as geometry; the threshold is what
stabilizes the dilation/erosion geometry between passes.

Every block solve goes through a :class:`SolveMemo` scoped to one run:
``run_sweep`` shares one across all its levels, ``optimize`` one across its
restarts, and a public call given none makes a fresh one.  Within a run the
same allowed set recurs often: the pass that confirms a fixed point
re-poses every block unchanged, restarts reach the same cells, and levels
whose slack r - h adds no lattice node pose the same discrete problem.  The
memo keeps one record per solve: the :class:`EigenResult` and its
:func:`_truncate` output at the support threshold tau, so a hit also skips
the threshold, the renormalization and the Rayleigh quotient.  The key is
(domain, tol_eig, tau, allowed-node bytes): :func:`first_dirichlet_eig` is
deterministic in the domain, tol_eig and the allowed nodes (its start
vector is the bounding box's ground state, not a random draw), and the
truncation adds tau, so a hit returns the very record a fresh solve would
compute, bit for bit.  Domains compare by identity, and each cached field
holds its domain alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConstraintViolationError,
    EmptyRegionError,
    InfeasibleError,
    SqueezedOutError,
)
from .eigensolve import EigenResult, first_dirichlet_eig
from .grid import (
    GridDomain,
    Mask,
    ScalarField,
    _checked,
    _distance_to,
    dilate,
    erode,
    gradient_magnitude,
    norms,
    rayleigh_quotient,
)

_MAX_OUTER = 50  # block passes per optimize run
_RESTARTS = 3  # cold-start restarts per optimize call


@dataclass(frozen=True, eq=False)
class PartitionProblem:
    """Problem data: domain, component count, separation, tolerances."""

    domain: GridDomain
    k: int
    r: float
    seed: int = 0
    tol_outer: float = 1e-6
    tol_eig: float = 1e-8
    tau: float = 1e-3

    def __post_init__(self):
        _checked("component count k", self.k, "int", 1)
        _checked("r", self.r, "[)", 0)
        _checked("tau", self.tau, "[]", 0, 0.1)
        _checked("tol_outer", self.tol_outer, "()", 0)
        _checked("tol_eig", self.tol_eig, "()", 0)
        _checked("seed", self.seed, "int", 0)
        if self.k >= 2 and self.r >= self.domain.diameter() / self.k:
            raise InfeasibleError("infeasible r")

    def with_r(self, r: float) -> "PartitionProblem":
        return replace(self, r=r)


@dataclass(eq=False)
class PartitionState:
    """k eigenfunctions, their thresholded supports, eigenvalues, and energy."""

    fields: list[ScalarField]
    supports: list[Mask]
    lambdas: np.ndarray
    c: float
    metadata: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.fields)


def support_mask(f: ScalarField, tau: float) -> Mask:
    peak = float(f.values.max())
    if peak <= 0:
        raise EmptyRegionError("field has empty support")
    return Mask(f.domain, f.values > tau * peak)


def _truncate(f: ScalarField, tau: float) -> tuple[ScalarField, Mask, float]:
    """Zero the field off its thresholded support, renormalize, and report
    the Rayleigh quotient of the stored field.

    Storing exact zeros off the support is what makes segregation
    (u_i * u_j = 0 nodewise) and the energy identity exact; the truncation
    overhead is O(tau^2 * perimeter / h) and tiny against the eigenvalues.
    """
    supp = support_mask(f, tau)
    vals = np.where(supp.nodes, f.values, 0.0)
    nrm = math.sqrt(float((vals**2).sum())) * f.domain.h
    if nrm == 0.0:
        raise EmptyRegionError("field has empty support")
    cut = ScalarField(f.domain, vals / nrm)
    return cut, supp, rayleigh_quotient(cut)


def pairwise_support_distances(state: PartitionState) -> np.ndarray:
    """Matrix of minimal node-to-node distances between supports (inf on
    the diagonal), read from distance transforms: a report, independent of
    the dilation rule :func:`check_feasible` tests."""
    h = state.supports[0].domain.h
    dts = [_distance_to(s.nodes, h) for s in state.supports]
    out = np.full((state.k, state.k), np.inf)
    for i, s in enumerate(state.supports):
        for j in range(state.k):
            if i != j:
                out[i, j] = float(dts[j][s.nodes].min())
    return out


def _union_of_others(nodes: list[np.ndarray], i: int) -> np.ndarray:
    """Union of every node set but the i-th."""
    others = np.zeros_like(nodes[i])
    for j, m in enumerate(nodes):
        if j != i:
            others |= m
    return others


def _distance_to_others(nodes: list[np.ndarray], i: int, h: float) -> np.ndarray:
    """Lattice-wide distance to the nearest node of any set but the i-th;
    inf everywhere when the others are empty (k = 1)."""
    others = _union_of_others(nodes, i)
    if not others.any():
        return np.full(others.shape, np.inf)
    return _distance_to(others, h)


def check_feasible(
    state: PartitionState, prob: PartitionProblem, r: float | None = None
) -> bool:
    """The block pass's rule at separation r (``prob.r`` by default): no
    support meets the (r - h)-dilation of another, and the fields are
    segregated."""
    slack = max((prob.r if r is None else r) - prob.domain.h, 0.0)
    for i in range(prob.k - 1):
        near = dilate(state.supports[i], slack).nodes
        for j in range(i + 1, prob.k):
            if np.any(near & state.supports[j].nodes) or np.any(
                (state.fields[i].values != 0) & (state.fields[j].values != 0)
            ):
                return False
    return True


def voronoi_cells(domain: GridDomain, sites: list[tuple[int, int]]) -> list[np.ndarray]:
    """Partition of the domain mask by nearest site.

    Nodes exactly equidistant to two sites belong to neither cell (they sit
    on the interface, which keeps mirror-symmetric sites producing
    mirror-symmetric cells)."""
    ii, jj = np.indices(domain.mask.shape)
    dist2 = np.stack(
        [(ii - si) ** 2 + (jj - sj) ** 2 for (si, sj) in sites], axis=0
    )
    owner = np.argmin(dist2, axis=0)
    tie = (dist2 == dist2.min(axis=0)).sum(axis=0) > 1
    return [(owner == i) & domain.mask & ~tie for i in range(len(sites))]


def _lloyd_sites(
    domain: GridDomain, sites: list[tuple[int, int]], iters: int = 40
) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Polish Voronoi sites toward the centroidal tessellation; returns the
    sites and their :func:`voronoi_cells`.

    Block passes freeze the interface wherever the initial cells put it
    (every component immediately fills its allowed region), so start
    quality is what decides the optimized energy; centroidal cells are the
    balanced starting geometry.
    """
    sites = [tuple(map(int, s)) for s in sites]
    for _ in range(iters):
        cells = voronoi_cells(domain, sites)
        new_sites = []
        for c, old in zip(cells, sites):
            if not c.any():
                new_sites.append(old)
                continue
            ii, jj = np.nonzero(c)
            ci, cj = float(ii.mean()), float(jj.mean())
            pick = int(np.argmin((ii - ci) ** 2 + (jj - cj) ** 2))
            new_sites.append((int(ii[pick]), int(jj[pick])))
        if new_sites == sites:
            return sites, cells
        sites = new_sites
    return sites, voronoi_cells(domain, sites)


class SolveMemo(dict):
    """Block solves of one run, keyed by :func:`_solve_component`: each
    record is a solve and its :func:`_truncate` output, never mutated, so a
    hit returns the one already made.  ``hits`` counts the solves saved."""

    hits = 0


def _solve_component(
    allowed: np.ndarray, prob: PartitionProblem, memo: SolveMemo
) -> tuple[EigenResult, tuple[ScalarField, Mask, float]]:
    key = (prob.domain, prob.tol_eig, prob.tau, allowed.tobytes())
    record = memo.get(key)
    if record is None:
        res = first_dirichlet_eig(prob.domain, Mask(prob.domain, allowed), tol=prob.tol_eig)
        record = memo[key] = (res, _truncate(res.field, prob.tau))
    else:
        memo.hits += 1
    return record


def init_partition(
    prob: PartitionProblem,
    sites: list[tuple[int, int]] | None = None,
    seed: int | None = None,
    *,
    memo: SolveMemo | None = None,
) -> PartitionState:
    """Feasible start: Voronoi cells of seeded random sites (polished to the
    centroidal tessellation unless explicit sites are given), each eroded by
    r/2 + h so that supports come out pairwise r + 2h apart, then one
    ground-state solve per cell."""
    memo = SolveMemo() if memo is None else memo
    domain = prob.domain
    rng = np.random.default_rng(prob.seed if seed is None else _checked("seed", seed, "int", 0))
    flat_mask = np.flatnonzero(domain.mask.ravel())
    margin = prob.r / 2.0 + domain.h
    explicit = sites is not None
    cells = None
    for _ in range(50):
        if not explicit:
            if flat_mask.size < prob.k:
                raise InfeasibleError("infeasible r")
            picks = rng.choice(flat_mask, size=prob.k, replace=False)
            sites = [tuple(np.unravel_index(p, domain.mask.shape)) for p in picks]
        trial = voronoi_cells(domain, sites) if explicit else _lloyd_sites(domain, sites)[1]
        eroded = [erode(Mask(domain, c), margin).nodes for c in trial]
        if all(e.any() for e in eroded):
            cells = eroded
            break
        if explicit:
            break
    if cells is None:
        raise InfeasibleError("infeasible r")

    fields, supports, lambdas = [], [], []
    for allowed in cells:
        _, (f, supp, lam) = _solve_component(allowed, prob, memo)
        fields.append(f)
        supports.append(supp)
        lambdas.append(lam)
    lambdas = np.array(lambdas)
    return PartitionState(
        fields, supports, lambdas, float(lambdas.sum()),
        metadata={"seed": prob.seed, "pass_style": "gauss-seidel"},
    )


def _block_order(supports: list[Mask]) -> list[int]:
    """Deterministic label-invariant pass order: by each support's first
    raveled node.  An index-fixed order would hand the first-listed
    component whatever slack the initial cells leave open, so permuting the
    initial sites would not permute the output; ordering by geometry makes
    relabeling an exact symmetry of the algorithm."""
    keys = []
    for i, s in enumerate(supports):
        flat = np.flatnonzero(s.nodes.ravel())
        keys.append((int(flat[0]) if flat.size else -1, i))
    return [i for _, i in sorted(keys)]


def _block_pass(
    state: PartitionState, prob: PartitionProblem, *, memo: SolveMemo
) -> PartitionState:
    """One Gauss-Seidel pass over the components in :func:`_block_order`.

    allowed_i = domain minus the (r - h)-dilation of the union of the other
    components' current supports; component i becomes the ground state of
    allowed_i, truncated at the support threshold.  A block update is kept
    only if its stored-field Rayleigh quotient does not exceed the current
    one (the previous field stays feasible, so descent is always available).
    """
    domain = prob.domain
    slack = max(prob.r - domain.h, 0.0)
    fields = list(state.fields)
    supports = list(state.supports)
    lambdas = state.lambdas.copy().astype(float)
    for i in _block_order(supports):
        others = _union_of_others([s.nodes for s in supports], i)
        if others.any() and slack > 0:
            blocked = dilate(Mask(domain, others), slack).nodes
        else:
            blocked = others
        allowed = domain.mask & ~blocked
        if not allowed.any():
            raise SqueezedOutError(i)
        _, (f, supp, lam) = _solve_component(allowed, prob, memo)
        if lam <= lambdas[i] * (1 + 1e-14) or not supports[i].nodes.any():
            fields[i] = f
            supports[i] = supp
            lambdas[i] = lam
    return PartitionState(
        fields, supports, lambdas, float(lambdas.sum()), metadata=dict(state.metadata)
    )


def relax_step(
    state: PartitionState, prob: PartitionProblem, *, memo: SolveMemo | None = None
) -> PartitionState:
    """One block pass (see :func:`_block_pass`); the energy cannot increase."""
    return _block_pass(state, prob, memo=SolveMemo() if memo is None else memo)


def _optimize_from(
    prob: PartitionProblem, state: PartitionState, memo: SolveMemo
) -> PartitionState:
    best = state
    quiet = 0
    stalled = False
    passes = 0
    for passes in range(1, _MAX_OUTER + 1):
        new = relax_step(state, prob, memo=memo)
        drop = (state.c - new.c) / max(abs(state.c), 1e-300)
        if new.c < best.c:
            best = new
        if drop < -10.0 * prob.tol_eig:
            stalled = True
        quiet = quiet + 1 if drop < prob.tol_outer else 0
        # the pass is deterministic in (supports, lambdas): once it returns
        # its input, every later pass would repeat it bit for bit
        fixed = np.array_equal(new.lambdas, state.lambdas) and all(
            np.array_equal(a.nodes, b.nodes)
            for a, b in zip(new.supports, state.supports)
        )
        state = new
        if quiet >= 3 or fixed:
            break
    best.metadata.update(
        {"passes": passes, "stalled": stalled, "pass_style": "gauss-seidel"}
    )
    return best


def optimize(
    prob: PartitionProblem,
    initial: PartitionState | None = None,
    sites: list[tuple[int, int]] | None = None,
    *,
    memo: SolveMemo | None = None,
) -> PartitionState:
    """Iterate block passes until the relative energy decrease stays below
    tol_outer for three consecutive passes, a pass returns its input
    supports and eigenvalues unchanged, or 50 passes have run;
    returns the best state seen.  Deterministic for a fixed problem and seed.

    Cold starts run three deterministic restarts (sub-seeds derived from the
    problem seed) and keep the lowest energy: the centroidal initialization
    has more than one stable basin (a 2:1 rectangle also supports the
    stacked-strips tessellation) and block passes cannot leave a basin.
    Warm starts and explicit sites run once.

    The returned metadata counts this call's eigensolves (``eig_solves``)
    and the solves ``memo`` saved (``eig_memo_hits``).
    """
    memo = SolveMemo() if memo is None else memo
    solves, hits = len(memo), memo.hits
    if initial is not None or sites is not None:
        if initial is None:
            initial = init_partition(prob, sites=sites, memo=memo)
        best = _optimize_from(prob, initial, memo)
    else:
        best = None
        for j in range(_RESTARTS):
            start = init_partition(prob, seed=prob.seed + 9176 * j, memo=memo)
            out = _optimize_from(prob, start, memo)
            out.metadata["restart"] = j
            if best is None or out.c < best.c:
                best = out
    best.metadata.update(
        {"eig_solves": len(memo) - solves, "eig_memo_hits": memo.hits - hits}
    )
    return best


# ---------------------------------------------------------------------------
# cutoff competitor


def _nodal_distance(state: PartitionState, domain: GridDomain) -> np.ndarray:
    """Distance to the nodal set: zero off every support, and for a support
    node the distance to the nearest other support minus h/2 (the interface
    sits halfway between adjacent node columns of touching supports)."""
    dist = np.zeros(domain.mask.shape)
    union = np.zeros_like(domain.mask)
    nodes = [s.nodes for s in state.supports]
    for i, sel in enumerate(nodes):
        union |= sel
        other = _distance_to_others(nodes, i, domain.h)
        dist[sel] = np.maximum(other[sel] - domain.h / 2.0, 0.0)
    dist[~union] = 0.0
    dist[~domain.mask] = 0.0
    return dist


def cutoff_competitor(
    state: PartitionState, prob: PartitionProblem, r: float
) -> dict:
    """Separate an r = 0 partition by the linear cutoff around its nodal set.

    eta vanishes within r/2 of the nodal set, ramps linearly to 1 at
    distance r, and each u_i * eta is renormalized; Rayleigh quotients are
    recomputed from scratch.  Returns the competitor state, its energy, and
    the tubular-neighborhood measure |N_r| for the Minkowski diagnostic.
    """
    _checked("r", r, "[)", 0)
    domain = prob.domain
    dist = _nodal_distance(state, domain)
    if r == 0:
        eta = (dist > 0).astype(float)
    else:
        eta = np.clip((dist - r / 2.0) / (r / 2.0), 0.0, 1.0)
    nodal_volume = float(((dist < r) & domain.mask).sum()) * domain.h**2

    fields, supports, lambdas = [], [], []
    for i, f in enumerate(state.fields):
        cut = ScalarField.from_values(domain, f.values * eta)
        if not (cut.values != 0).any():
            raise EmptyRegionError(f"component {i} annihilated by the cutoff")
        f2, supp, lam = _truncate(cut, prob.tau)
        fields.append(f2)
        supports.append(supp)
        lambdas.append(lam)
    lambdas = np.array(lambdas)
    comp = PartitionState(
        fields, supports, lambdas, float(lambdas.sum()),
        metadata={"cutoff_r": r, "nodal_volume": nodal_volume},
    )
    if not check_feasible(comp, prob, r=r):
        raise ConstraintViolationError(
            f"cutoff competitor is not feasible at separation {r}"
        )
    return {"state": comp, "energy": comp.c, "nodal_volume": nodal_volume}


# ---------------------------------------------------------------------------
# sweeps


@dataclass(eq=False)
class SweepReport:
    """Per-separation record of energy, eigenvalues, norms, and each
    component's distance to the same component of the r = 0 solution."""

    rows: list[dict]
    metadata: dict
    states: dict

    def to_csv_lines(self) -> list[str]:
        k = self.metadata["k"]
        lam_cols = ",".join(f"lambda_{i + 1}" for i in range(k))
        lines = [f"r,c_r,{lam_cols},lip_max,linf_max,holder_05,dist_to_u0"]
        for row in sorted(self.rows, key=lambda q: q["r"]):
            if row.get("error"):
                lines.append(f"{row['r']!r},error,{row['error']}")
                continue
            lams = ",".join(repr(float(v)) for v in row["lambdas"])
            dist = max(row["dist_to_u0"]) if row["dist_to_u0"] else math.nan
            lines.append(
                f"{row['r']!r},{row['c']!r},{lams},{row['lip_max']!r},"
                f"{row['linf_max']!r},{row['holder_05']!r},{float(dist)!r}"
            )
        return lines

    def fitted_slope(self) -> tuple[float, float]:
        """Least-squares slope of c_r - c_0 against r (through the origin)
        and the relative residual of that fit."""
        ok = [q for q in self.rows if not q.get("error")]
        base = [q["c"] for q in ok if q["r"] == 0.0]
        if not base:
            return math.nan, math.nan
        c0 = base[0]
        rs = np.array([q["r"] for q in ok if q["r"] > 0])
        dc = np.array([q["c"] - c0 for q in ok if q["r"] > 0])
        if rs.size == 0 or float((rs**2).sum()) == 0.0:
            return math.nan, math.nan
        slope = float((rs * dc).sum() / (rs**2).sum())
        resid = float(np.linalg.norm(dc - slope * rs))
        scale = float(np.linalg.norm(dc))
        return slope, (resid / scale if scale > 0 else 0.0)


def _restore_feasibility(
    supports: list[Mask], prob: PartitionProblem
) -> list[np.ndarray]:
    """The warm-start supports' node arrays, already feasible at ``prob.r``.

    The previous level's supports are at least r_prev - h apart (every
    block pass excludes the others' (r - h)-dilation, and the eroded
    Voronoi start is farther apart still), and a sweep's r descends, so
    r_prev - h >= prob.r - h and no erosion is ever needed.
    """
    return [s.nodes.copy() for s in supports]


def _state_from_supports(
    cells: list[np.ndarray], prob: PartitionProblem, *, memo: SolveMemo
) -> PartitionState:
    """One sequential rebuild pass: solve each component against the current
    supports of the others (a relax pass seeded with the given geometry,
    whose infinite eigenvalues make it accept every block)."""
    seed = PartitionState(
        [ScalarField.zeros(prob.domain)] * prob.k,
        [Mask(prob.domain, c) for c in cells],
        np.full(prob.k, np.inf),
        math.inf,
        metadata={"seed": prob.seed, "pass_style": "gauss-seidel"},
    )
    return _block_pass(seed, prob, memo=memo)


def _level_norms(fields: list[ScalarField], seen: list[dict]) -> tuple[list[dict], float]:
    """The records of a level's fields and the level's Holder seminorm.

    ``seen`` holds one record per distinct field of the run (matched by
    value): the field's values, its :func:`norms`, and its Holder value,
    ``exact`` or only an upper bound.  The level's running maximum starts at
    its largest exact value; every other field whose bound exceeds it is
    scanned once with the running value as its floor, and a scan that beats
    the floor is that field's exact seminorm.  The final running value is
    the maximum of the fields' exact seminorms, bit for bit, because every
    field left out has a bound no larger than it.
    """
    recs = []
    for f in fields:
        rec = next((q for q in seen if np.array_equal(q["values"], f.values)), None)
        if rec is None:
            rec = {"values": f.values, "holder": math.inf, "exact": False}
            seen.append(rec)
        recs.append(rec)
    running = max((q["holder"] for q in recs if q["exact"]), default=0.0)
    for f, rec in zip(fields, recs):
        if rec["exact"] or rec["holder"] <= running:
            continue
        rec["norms"] = norms(f, holder_floor=running)
        holder = rec["norms"]["holder"]
        rec["exact"] = holder > running
        rec["holder"] = running = holder
    return recs, running


def run_sweep(prob_base: PartitionProblem, r_values) -> SweepReport:
    """Optimize along descending separations, warm-starting each level from
    the previous optimum.  Block passes keep each component's index, so
    ``dist_to_u0`` compares component j with component j of the r = 0
    state; a level whose r is infeasible or whose solve fails is an error
    row.  All levels share one :class:`SolveMemo`; the report metadata
    counts its solves and hits.  Each distinct field of the run is scanned
    for its Holder seminorm at most once, from the running maximum of its
    level (:func:`_level_norms`), so a level whose fields were all seen
    before scans none; ``holder_05`` is still the exact maximum over the
    level's fields."""
    # checked before the order: sorted() reads a list holding NaN as ordered
    r_values = [float(_checked("r_values", r, "[)", 0)) for r in r_values]
    if not r_values:
        raise ValueError("r_values must not be empty")
    if sorted(r_values, reverse=True) != r_values:
        raise ValueError("r_values must be sorted descending")
    if r_values[-1] != 0.0:
        raise ValueError("the sweep must end at r = 0")
    rows: list[dict] = []
    states: dict[float, PartitionState] = {}
    prev: PartitionState | None = None
    seen: list[dict] = []
    memo = SolveMemo()
    for r in r_values:
        try:
            prob = prob_base.with_r(r)
            if prev is None:
                state = optimize(prob, memo=memo)
            else:
                cells = _restore_feasibility(prev.supports, prob)
                state = optimize(
                    prob, initial=_state_from_supports(cells, prob, memo=memo), memo=memo
                )
        except (InfeasibleError, SqueezedOutError, EmptyRegionError) as exc:
            rows.append({"r": r, "error": str(exc)})
            continue
        states[r] = state
        prev = state
        recs, holder = _level_norms(state.fields, seen)
        rows.append(
            {
                "r": r,
                "c": state.c,
                "lambdas": [float(v) for v in state.lambdas],
                "lip_max": max(q["norms"]["lip"] for q in recs),
                "linf_max": max(q["norms"]["linf"] for q in recs),
                "holder_05": holder,
                "dist_to_u0": [],
                "error": None,
            }
        )
    if 0.0 in states:
        ref = states[0.0]
        for row in rows:
            if not row.get("error"):
                row["dist_to_u0"] = [
                    float(np.abs(f.values - g.values).max())
                    for f, g in zip(states[row["r"]].fields, ref.fields)
                ]
    meta = {
        "k": prob_base.k,
        "seed": prob_base.seed,
        "n_shape": (prob_base.domain.shape, prob_base.domain.params),
        "h": prob_base.domain.h,
        "tol_eig": prob_base.tol_eig,
        "tol_outer": prob_base.tol_outer,
        "tau": prob_base.tau,
        "pass_style": "gauss-seidel",
        "eig_solves": len(memo),
        "eig_memo_hits": memo.hits,
    }
    return SweepReport(rows, meta, states)


# ---------------------------------------------------------------------------
# diagnostics


def gradient_location_check(e: EigenResult, d: GridDomain) -> dict:
    """Compare the global max of |grad u| with the max within 3h of the
    support boundary; the ratio lands in (0, 1]."""
    g = gradient_magnitude(e.field).values
    supp = e.field.values > 0
    if not supp.any():
        raise EmptyRegionError("eigenfunction has empty support")
    comp = ~supp
    if comp.any():
        edge_dist = _distance_to(comp, d.h)
        band = supp & (edge_dist <= 3.0 * d.h * (1 + 1e-12))
    else:
        band = supp
    max_grad = float(g[supp].max())
    boundary_grad = float(g[band].max()) if band.any() else 0.0
    ratio = boundary_grad / max_grad if max_grad > 0 else math.nan
    return {"max_grad": max_grad, "boundary_grad": boundary_grad, "ratio": ratio}


def free_boundary_point(state: PartitionState) -> tuple[float, float]:
    """Deep interface node: minimizes the worse of the distances to the two
    nearest supports, ties broken toward the domain interior."""
    domain = state.fields[0].domain
    dts = np.stack([_distance_to(s.nodes, domain.h) for s in state.supports])
    # per node: the two smallest support distances
    part = np.sort(dts, axis=0)
    score = part[1] if state.k >= 2 else part[0]
    score = np.where(domain.mask, score, np.inf)
    best = score.min()
    cands = np.argwhere(score <= best + domain.h * 0.51)
    if (~domain.mask).any():
        wall = _distance_to(~domain.mask, domain.h)
    else:
        wall = np.full(domain.mask.shape, np.inf)
    depths = [wall[i, j] for i, j in cands]
    i, j = cands[int(np.argmax(depths))]
    return (domain.bbox[0] + i * domain.h, domain.bbox[1] + j * domain.h)


def exterior_sphere_fraction(state: PartitionState, prob: PartitionProblem) -> float:
    """Fraction of free-boundary support nodes with another support within
    r + 2h (the discrete echo of the exact-distance property)."""
    domain = prob.domain
    if prob.r <= 0:
        raise ValueError("the diagnostic needs a positive separation")
    reach = prob.r + 2.0 * domain.h
    off_domain = ~domain.mask
    wall = _distance_to(off_domain, domain.h) if off_domain.any() else None
    nodes = [s.nodes for s in state.supports]
    hits = 0
    total = 0
    for i, sel in enumerate(nodes):
        comp = ~sel
        if not comp.any():
            continue
        edge = sel & (_distance_to(comp, domain.h) <= domain.h * (1 + 1e-9))
        if wall is not None:
            edge &= wall > reach
        others = _distance_to_others(nodes, i, domain.h)
        total += int(edge.sum())
        hits += int((others[edge] <= reach).sum())
    return hits / total if total else math.nan
