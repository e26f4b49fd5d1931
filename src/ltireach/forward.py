"""Bounded-horizon reachability by exact linear programming.

For a single polytopic control set, reachability at horizon n is one
feasibility LP whose variables are the convex coefficients of each step's
control plus the convex coefficients of the target point.  For union
control sets, a depth-first search assigns one component per step, with
a sound convex-hull relaxation pruning infeasible prefixes; leaves are
exact.  The first witness found is minimal-horizon and lexicographically
first in component assignment, so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    GenPolyhedron,
    LinearConstraint,
    contains_point,
    lp_solve,
    membership_coefficients,
)
from .linalg import Vec, vec_add, vec_scale, zero_vec
from .preprocess import LtiSystem


class MalformedWitnessError(Exception):
    """Witness coefficients violate their convexity constraints."""


@dataclass(frozen=True)
class WitnessStep:
    component: int
    vertex_coeffs: tuple[Fraction, ...]
    ray_coeffs: tuple[Fraction, ...]
    line_coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class ReachWitness:
    horizon: int
    steps: tuple[WitnessStep, ...]

    def __post_init__(self):
        if self.horizon != len(self.steps):
            raise ValueError("horizon must equal the number of control steps")


def _step_vector(comp: GenPolyhedron, step: WitnessStep) -> Vec:
    acc = zero_vec(comp.dim)
    for c, g in zip(step.vertex_coeffs, comp.vertices):
        acc = vec_add(acc, vec_scale(g, c))
    for c, g in zip(step.ray_coeffs, comp.rays):
        acc = vec_add(acc, vec_scale(g, c))
    for c, g in zip(step.line_coeffs, comp.lines):
        acc = vec_add(acc, vec_scale(g, c))
    return acc


def witness_control_vectors(u: GenPolyhedron | LtiSystem, witness: ReachWitness) -> list[Vec]:
    """Reconstruct the exact control vectors of a witness."""
    if isinstance(u, LtiSystem):
        comps = u.controls.components
        return [_step_vector(comps[s.component], s) for s in witness.steps]
    return [_step_vector(u, s) for s in witness.steps]


def witness_from_control_vectors(sys: LtiSystem, controls) -> ReachWitness:
    """Express raw control vectors as generator coefficients (LP per step)."""
    steps = []
    for u in controls:
        found = None
        for ci, comp in enumerate(sys.controls.components):
            coeffs = membership_coefficients(comp, u)
            if coeffs is not None:
                found = (ci, coeffs)
                break
        if found is None:
            raise MalformedWitnessError("control vector lies in no component")
        ci, (vc, rc, lc) = found
        steps.append(WitnessStep(ci, tuple(vc), tuple(rc), tuple(lc)))
    return ReachWitness(len(steps), tuple(steps))


def replay(sys: LtiSystem, witness: ReachWitness) -> Vec:
    """Exact trajectory endpoint under the witness controls."""
    x = sys.source
    comps = sys.controls.components
    for step in witness.steps:
        if not 0 <= step.component < len(comps):
            raise MalformedWitnessError(f"component index {step.component} out of range")
        u = _step_vector(comps[step.component], step)
        x = vec_add(sys.a.matvec(x), u)
    return x


def verify_witness(sys: LtiSystem, witness: ReachWitness) -> bool:
    """Exact replay audit.  Malformed coefficients raise; a well-formed
    witness whose endpoint misses the target returns False."""
    comps = sys.controls.components
    for step in witness.steps:
        if not 0 <= step.component < len(comps):
            raise MalformedWitnessError(f"component index {step.component} out of range")
        comp = comps[step.component]
        if len(step.vertex_coeffs) != len(comp.vertices) or \
           len(step.ray_coeffs) != len(comp.rays) or \
           len(step.line_coeffs) != len(comp.lines):
            raise MalformedWitnessError("coefficient arity mismatch")
        if any(c < 0 for c in step.vertex_coeffs) or any(c < 0 for c in step.ray_coeffs):
            raise MalformedWitnessError("negative convex/conic coefficient")
        if sum(step.vertex_coeffs, Fraction(0)) != 1:
            raise MalformedWitnessError("vertex coefficients do not sum to one")
    return contains_point(sys.target, replay(sys, witness))


# ---------------------------------------------------------------------------
# the horizon-n LP
# ---------------------------------------------------------------------------


@dataclass
class _Layout:
    """Column layout of the horizon LP: per-step generator blocks followed
    by the target block."""

    step_slices: list[tuple[int, int, int, int]]  # (start, nv, nr, nl)
    target_slice: tuple[int, int, int, int]
    ncols: int
    nonneg: list[bool]


@dataclass(frozen=True)
class _StepColumns:
    """The columns of every horizon-n LP, built once per horizon.

    comps[c][k] holds (A^k vertices, A^k rays, A^k lines) of component c
    and pooled[k] the same for the pooled hull, for k < n; step t reads
    power n-1-t.  base is A^n source."""

    comps: tuple[tuple[tuple, ...], ...]
    pooled: tuple[tuple, ...]
    base: Vec


def _step_columns(sys: LtiSystem, n: int) -> _StepColumns:
    """A^k g for every generator g and k < n by repeated matvec, and A^n
    source.  Pooled columns keep the order: all components' vertices, then
    all rays, then all lines."""
    a = sys.a
    comps = []
    for comp in sys.controls.components:
        gens = (comp.vertices, comp.rays, comp.lines)
        table = [gens]
        for _ in range(n - 1):
            gens = tuple(tuple(a.matvec(g) for g in group) for group in gens)
            table.append(gens)
        comps.append(tuple(table))
    pooled = tuple(
        tuple(tuple(g for c in comps for g in c[k][group]) for group in range(3))
        for k in range(n)
    )
    base = sys.source
    for _ in range(n):
        base = a.matvec(base)
    return _StepColumns(tuple(comps), pooled, base)


def _build_lp(sys: LtiSystem, assignment, pooled_from: int, cols: _StepColumns):
    """Constraints for: A^n source + sum_t A^(n-1-t) u_t in target, where
    steps before pooled_from use their assigned component and later steps
    use the pooled hull of all components."""
    n = len(cols.pooled)
    step_gens = [cols.comps[assignment[t]][n - 1 - t] if t < pooled_from else cols.pooled[n - 1 - t]
                 for t in range(n)]

    q = sys.target
    layout_steps = []
    columns: list[Vec] = []
    nonneg: list[bool] = []
    for (vs, rs, ls) in step_gens:
        layout_steps.append((len(columns), len(vs), len(rs), len(ls)))
        columns += vs + rs + ls
        nonneg += [True] * (len(vs) + len(rs)) + [False] * len(ls)
    target_slice = (len(columns), len(q.vertices), len(q.rays), len(q.lines))
    columns += [tuple(-x for x in g) for g in (*q.vertices, *q.rays, *q.lines)]
    nonneg += [True] * (len(q.vertices) + len(q.rays)) + [False] * len(q.lines)
    ncols = len(columns)

    cons = [LinearConstraint(tuple(col[i] for col in columns), "==", -cols.base[i])
            for i in range(sys.dim)]
    for start, nv, _, _ in (*layout_steps, target_slice):
        row = [0] * ncols
        row[start:start + nv] = [1] * nv
        cons.append(LinearConstraint(tuple(row), "==", 1))

    layout = _Layout(layout_steps, target_slice, ncols, nonneg)
    return cons, layout


def _witness_from_solution(sys: LtiSystem, n: int, assignment, layout: _Layout, point) -> ReachWitness:
    comps = sys.controls.components
    steps = []
    for t in range(n):
        start, nv, nr, nl = layout.step_slices[t]
        comp = comps[assignment[t]]
        steps.append(WitnessStep(
            assignment[t],
            tuple(point[start:start + nv]),
            tuple(point[start + nv:start + nv + nr]),
            tuple(point[start + nv + nr:start + nv + nr + nl]),
        ))
    return ReachWitness(n, tuple(steps))


def reach_exactly(sys: LtiSystem, n: int) -> ReachWitness | None:
    """A witness reaching the target in exactly n steps, or None."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    if sys.target.is_empty:
        return None
    if n == 0:
        if contains_point(sys.target, sys.source):
            return ReachWitness(0, ())
        return None
    if len(sys.controls.components) == 1:
        assignment = [0] * n
        cons, layout = _build_lp(sys, assignment, n, _step_columns(sys, n))
        res = lp_solve(None, cons, layout.ncols, nonneg=layout.nonneg)
        if not res.is_feasible:
            return None
        return _witness_from_solution(sys, n, assignment, layout, res.point)
    return _search(sys, _step_columns(sys, n), [0] * n, 0)


def _search(sys: LtiSystem, cols: _StepColumns, assignment: list[int], depth: int) -> ReachWitness | None:
    """Union controls: DFS over per-step component assignments with
    hull-relaxation pruning at internal nodes.  A module function, not a
    closure, so that no reference cycle keeps a horizon's columns alive
    until the cyclic collector runs."""
    n = len(assignment)
    cons, layout = _build_lp(sys, assignment, depth, cols)
    res = lp_solve(None, cons, layout.ncols, nonneg=layout.nonneg)
    if not res.is_feasible:
        return None
    if depth == n:
        return _witness_from_solution(sys, n, assignment, layout, res.point)
    for c in range(len(sys.controls.components)):
        assignment[depth] = c
        found = _search(sys, cols, assignment, depth + 1)
        if found is not None:
            return found
    assignment[depth] = 0
    return None


def reach_within(sys: LtiSystem, budget: int) -> ReachWitness | None:
    """Minimal-horizon witness with horizon <= budget, or None."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    for n in range(budget + 1):
        w = reach_exactly(sys, n)
        if w is not None:
            return w
    return None
