"""Bounded-horizon reachability by exact linear programming.

For a single polytopic control set, reachability at horizon n is one
feasibility LP whose variables are the convex coefficients of each step's
control plus the convex coefficients of the target point.  For union
control sets, a depth-first search assigns one component per step, with
a sound convex-hull relaxation pruning infeasible prefixes; leaves are
exact.  The first witness found is minimal-horizon and lexicographically
first in component assignment, so outputs are deterministic.

The search runs in integers.  StepColumns holds A as integer rows over
one denominator and grows each A^k g, an integer vector over its own
denominator, one power at a time, once per decision.  Each LP variable is
a generator's coefficient divided by that denominator, so every row is
an integer row.  Scaling a column by a positive constant changes no
choice of Bland's rule, so the LP takes the pivots of the unscaled one
and the witness, the variables times their denominators, is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .geometry import (
    GenPolyhedron,
    LinearConstraint,
    contains_point,
    lp_solve,
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
    by the target block.  Variable j is the coefficient of its generator
    divided by scales[j]."""

    step_slices: list[tuple[int, int, int, int]]  # (start, nv, nr, nl)
    ncols: int
    nonneg: list[bool]
    scales: list[int]


def _int_vec(v: Vec) -> tuple[tuple[int, ...], int]:
    """v as integer numerators over their least common denominator, which
    leaves them in lowest terms."""
    den = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


@dataclass(frozen=True)
class _Block:
    """Generators in the order vertices, rays, lines: generator i is
    nums[i] / dens[i]."""

    nums: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    nv: int
    nr: int
    nl: int

    @staticmethod
    def of(pairs, nv: int, nr: int, nl: int) -> "_Block":
        """The block of (nums, den) pairs."""
        return _Block(tuple(num for num, _ in pairs), tuple(den for _, den in pairs), nv, nr, nl)

    @staticmethod
    def of_generators(vertices, rays, lines) -> "_Block":
        return _Block.of([_int_vec(g) for g in (*vertices, *rays, *lines)],
                         len(vertices), len(rays), len(lines))

    def groups(self):
        """(nums, dens) of the vertices, of the rays and of the lines."""
        a, b = self.nv, self.nv + self.nr
        return ((self.nums[:a], self.dens[:a]), (self.nums[a:b], self.dens[a:b]),
                (self.nums[b:], self.dens[b:]))


def _pool(blocks: list[_Block]) -> _Block:
    """The pooled hull's block: all vertices, then all rays, then all lines."""
    if len(blocks) == 1:
        return blocks[0]
    nums: list[tuple[int, ...]] = []
    dens: list[int] = []
    for group in zip(*(b.groups() for b in blocks)):
        for gn, gd in group:
            nums += gn
            dens += gd
    return _Block(tuple(nums), tuple(dens), sum(b.nv for b in blocks),
                  sum(b.nr for b in blocks), sum(b.nl for b in blocks))


class StepColumns:
    """The columns of every horizon LP of one system, grown one power of A
    at a time.

    A is held as integer rows over one denominator and every A^k g as an
    integer vector over its own denominator, so a power costs one integer
    matvec per generator.  comps[c][k] is component c's block mapped by
    A^k and pooled[k] the pooled hull's; step t of horizon n reads power
    n-1-t.  bases[n] is A^n source, and target holds the negated target
    generators.  One object serves every horizon of one decision, so each
    A^k g is formed once; `products` counts the matvecs."""

    def __init__(self, sys: LtiSystem):
        self.system = sys
        a = sys.a
        self._a_den = lcm(*(x.denominator for x in a.entries))
        # the nonzero entries (column, value) of each row of a_den * A
        self._a_rows = [[(j, x.numerator * (self._a_den // x.denominator))
                         for j, x in enumerate(a.row(i)) if x] for i in range(a.rows)]
        self.comps = [[_Block.of_generators(c.vertices, c.rays, c.lines)] for c in sys.controls.components]
        self.pooled = [_pool([table[0] for table in self.comps])]
        self.bases = [_int_vec(sys.source)]
        q = sys.target
        self.target = _Block.of_generators(*([tuple(-x for x in g) for g in gens]
                                             for gens in (q.vertices, q.rays, q.lines)))
        self.products = 0

    def _matvec(self, num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
        """A (num / den) in lowest terms."""
        self.products += 1
        out = [sum(x * num[j] for j, x in row) for row in self._a_rows]
        den *= self._a_den
        g = gcd(den, *out)
        if g != 1:
            return tuple(x // g for x in out), den // g
        return tuple(out), den

    def grow(self, n: int) -> None:
        """Form the blocks of every power below n and A^n source."""
        while len(self.bases) <= n:
            self.bases.append(self._matvec(*self.bases[-1]))
        while len(self.pooled) < n:
            for table in self.comps:
                b = table[-1]
                table.append(_Block.of([self._matvec(num, den) for num, den in zip(b.nums, b.dens)],
                                       b.nv, b.nr, b.nl))
            self.pooled.append(_pool([table[-1] for table in self.comps]))


def _build_lp(assignment, pooled_from: int, cols: StepColumns):
    """Constraints for: A^n source + sum_t A^(n-1-t) u_t in target, where
    steps before pooled_from use their assigned component and later steps
    use the pooled hull of all components.

    Each variable is its generator's coefficient over the generator's
    denominator, so every row is an integer row: a state row holds the
    generators' numerators and a convexity row their denominators."""
    n = len(assignment)
    blocks = [cols.comps[assignment[t]][n - 1 - t] if t < pooled_from else cols.pooled[n - 1 - t]
              for t in range(n)]
    blocks.append(cols.target)
    columns: list[tuple[int, ...]] = []
    scales: list[int] = []
    nonneg: list[bool] = []
    slices = []
    for b in blocks:
        slices.append((len(columns), b.nv, b.nr, b.nl))
        columns += b.nums
        scales += b.dens
        nonneg += [True] * (b.nv + b.nr) + [False] * b.nl
    ncols = len(columns)

    base, base_den = cols.bases[n]
    cons = [LinearConstraint(row, "==", Fraction(-b, base_den)) for row, b in zip(zip(*columns), base)]
    for start, nv, _, _ in slices:
        row = [0] * ncols
        row[start:start + nv] = scales[start:start + nv]
        cons.append(LinearConstraint(tuple(row), "==", 1))

    return cons, _Layout(slices[:-1], ncols, nonneg, scales)


def _witness_from_solution(n: int, assignment, layout: _Layout, point) -> ReachWitness:
    """The witness at the LP's point, each variable times its scale."""
    coeffs = [y * s for y, s in zip(point, layout.scales)]
    steps = []
    for t in range(n):
        start, nv, nr, nl = layout.step_slices[t]
        steps.append(WitnessStep(
            assignment[t],
            tuple(coeffs[start:start + nv]),
            tuple(coeffs[start + nv:start + nv + nr]),
            tuple(coeffs[start + nv + nr:start + nv + nr + nl]),
        ))
    return ReachWitness(n, tuple(steps))


def reach_exactly(sys: LtiSystem, n: int, columns: StepColumns | None = None) -> ReachWitness | None:
    """A witness reaching the target in exactly n steps, or None.  A caller
    that tries several horizons passes one StepColumns of sys to all of
    them; without it the columns are built for this call alone."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    if sys.target.is_empty:
        return None
    if n == 0:
        if contains_point(sys.target, sys.source):
            return ReachWitness(0, ())
        return None
    if columns is None:
        columns = StepColumns(sys)
    elif columns.system is not sys:
        raise ValueError("step columns of another system")
    columns.grow(n)
    return _search(sys, columns, [0] * n, 0)


def _search(sys: LtiSystem, cols: StepColumns, assignment: list[int], depth: int) -> ReachWitness | None:
    """DFS over per-step component assignments with hull-relaxation pruning
    at internal nodes.  A lone component is its own pooled hull, so with
    one component the LP at depth 0 is exact and decides the horizon."""
    n = len(assignment)
    cons, layout = _build_lp(assignment, depth, cols)
    res = lp_solve(None, cons, layout.ncols, nonneg=layout.nonneg)
    if not res.is_feasible:
        return None
    ncomps = len(sys.controls.components)
    if depth == n or ncomps == 1:
        return _witness_from_solution(n, assignment, layout, res.point)
    for c in range(ncomps):
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
    columns = StepColumns(sys)
    for n in range(budget + 1):
        w = reach_exactly(sys, n, columns)
        if w is not None:
            return w
    return None
