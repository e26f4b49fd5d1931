"""Bounded-horizon reachability by exact linear programming.

For a single polytopic control set, reachability at horizon n is one
feasibility LP whose variables are the convex coefficients of each step's
control plus the convex coefficients of the target point.  For union
control sets, a depth-first search assigns one component per step, with
a sound convex-hull relaxation pruning infeasible prefixes; leaves are
exact.  The first witness found is minimal-horizon and lexicographically
first in component assignment, so outputs are deterministic.

Every LP of the search comes from one tableau, grown with
`geometry.PhaseOneTableau.extend`; its artificial columns hold the
inverse of the basis, so each growth is decided from the basis the
tableau has, with one extra artificial when a basic value turns negative
(Chvatal, Linear Programming, 1983, ch. 3).  StepColumns seeds it from
the LP with no variables, whose state rows read 0 = 0, adds the
target's block, and then one block per horizon: horizon n+1's root LP,
where every step ranges over the pooled hull, is horizon n's with the
block of power n before its columns, one more convexity row and a new
right-hand side in the state rows.  A child that fixes one step's
component has its parent's LP with the other components' variables of
that step at 0, so its feasible tableau is the parent's with those
columns dead (`geometry._Tableau.restricted`).  Every node keeps the
root's columns, each step a pooled block, so step t's block starts at t
times the pooled width.  A child in which no dead column is basic takes
no pivot and shares its parent's rows; one that pivots copies the
parent's row list first, and no node changes its parent's rows.  A lone
control polytope is a union of one: each node has one child, which
bans nothing and keeps its parent's tableau.  Feasibility does not
depend on the basis, so the search visits the nodes a search that
solves each node from scratch would; the witness is the point of the
feasible leaf's tableau, whichever basis the growth and the restrictions
reached, read at its component's columns of each pooled block.

The search runs in integers.  StepColumns holds A as integer rows over
one denominator and grows each A^k g, an integer vector over its own
denominator, one power at a time, once per decision: reach_exactly takes
the StepColumns of its system and reads the system from them.  Each LP
variable is a generator's coefficient divided by that denominator, so
every column is an integer column, and the witness is each variable
times its denominator.

The replay that `verify_witness` audits runs in integers as well: the
state is an integer vector over one denominator, stepped by A's IntRows,
and a point target's membership is an equality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .geometry import PhaseOneTableau, contains_point, tableau_columns
from .linalg import IntRows, Vec
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


def replay(sys: LtiSystem, witness: ReachWitness) -> Vec:
    """Exact trajectory endpoint under the witness controls.  The state is
    an integer vector over one denominator, stepped by A's IntRows, and
    each control term c g is added over the lcm of the two denominators."""
    comps = sys.controls.components
    a = IntRows(sys.a)
    blocks: dict[int, _Block] = {}
    x, den = _int_vec(sys.source)
    for step in witness.steps:
        if not 0 <= step.component < len(comps):
            raise MalformedWitnessError(f"component index {step.component} out of range")
        if step.component not in blocks:
            comp = comps[step.component]
            blocks[step.component] = _Block.of_generators(comp.vertices, comp.rays, comp.lines)
        x, den = a.times(x), den * a.den
        groups = (step.vertex_coeffs, step.ray_coeffs, step.line_coeffs)
        for coeffs, (nums, dens) in zip(groups, blocks[step.component].groups()):
            for c, num, gden in zip(coeffs, nums, dens):
                if c:
                    # x / den + (c.num num) / (c.den gden)
                    term_den = c.denominator * gden
                    common = lcm(den, term_den)
                    fx, ft = common // den, c.numerator * (common // term_den)
                    x, den = [xi * fx + ft * gi for xi, gi in zip(x, num)], common
        g = gcd(den, *x)
        if g != 1:
            x, den = [xi // g for xi in x], den // g
    return tuple(Fraction(xi, den) for xi in x)


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

    @property
    def nonneg(self) -> list[bool]:
        """Vertex and ray coefficients are nonnegative, line coefficients free."""
        return [True] * (self.nv + self.nr) + [False] * self.nl

    def groups(self):
        """(nums, dens) of the vertices, of the rays and of the lines."""
        a, b = self.nv, self.nv + self.nr
        return ((self.nums[:a], self.dens[:a]), (self.nums[a:b], self.dens[a:b]),
                (self.nums[b:], self.dens[b:]))


def _pool(blocks: list[_Block]) -> _Block:
    """The pooled hull's block: all vertices, then all rays, then all lines."""
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
    A^k g is formed once.  width counts the tableau columns of a pooled
    block, members[c] lists the variables of a pooled block that are
    component c's generators, in their order, and foreign[c] the columns
    that are not component c's, for the search's restrictions.  root is the
    phase-1 tableau of the pooled root LP of horizon root_horizon, grown
    from the LP with no variables and kept with its artificial columns so
    that each later horizon grows from its basis (`root_at`)."""

    def __init__(self, sys: LtiSystem):
        self.system = sys
        self._a = IntRows(sys.a)
        self.comps = [[_Block.of_generators(c.vertices, c.rays, c.lines)] for c in sys.controls.components]
        blocks = [table[0] for table in self.comps]
        self.pooled = [_pool(blocks)]
        # the component of each pooled variable: every component's vertices,
        # then their rays, then their lines
        owner = [c for c, b in enumerate(blocks) for _ in range(b.nv)]
        owner += [c for c, b in enumerate(blocks) for _ in range(b.nr)]
        owner += [c for c, b in enumerate(blocks) for _ in range(b.nl)]
        self.members = [[i for i, o in enumerate(owner) if o == c] for c in range(len(blocks))]
        col_of, self.width = tableau_columns(self.pooled[0].nonneg)
        self.foreign = [[j for o, pm in zip(owner, col_of) if o != c for j in pm if j is not None]
                        for c in range(len(blocks))]
        self.bases = [_int_vec(sys.source)]
        q = sys.target
        self.target = _Block.of_generators(*([tuple(-x for x in g) for g in gens]
                                             for gens in (q.vertices, q.rays, q.lines)))
        self.root: PhaseOneTableau | None = None
        self.root_horizon = 0

    def _matvec(self, num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
        """A (num / den) in lowest terms."""
        out = self._a.times(num)
        den *= self._a.den
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

    def root_at(self, n: int) -> PhaseOneTableau:
        """The phase-1 tableau of horizon n's pooled root LP, with its
        artificial columns, kept as `root`.  It is seeded from the LP with
        no variables, whose state rows read 0 = 0, and grows in place
        by `PhaseOneTableau.extend`, one block at a time, each put before
        the others: the target's block, then for each horizon k the block
        of power k-1.  A block's state entries are its numerators and its
        convexity row, added last, holds its vertices' denominators; every
        convexity row's right-hand side is 1, and the state rows' becomes
        -A^k source.  So horizon n's columns are steps 0 to n-1 (powers n-1
        down to 0) and then the target.  The root is seeded again only when
        n is below the last horizon asked.  grow(n) comes first."""
        start = self.root_horizon + 1
        if self.root is None or n < self.root_horizon:
            self.root = PhaseOneTableau(self.system.dim)
            start = 0
        for k in range(start, n + 1):
            b = self.pooled[k - 1] if k else self.target
            base, den = self.bases[k]
            convexity = [*b.dens[:b.nv], *[0] * (b.nr + b.nl)]
            self.root.extend(b.nums, b.nonneg, convexity, [*(-x for x in base), *[den] * (k + 1)], den)
        self.root_horizon = n
        return self.root


def reach_exactly(columns: StepColumns, n: int) -> ReachWitness | None:
    """A witness reaching the target of columns.system in exactly n steps,
    or None.  A caller that tries several horizons passes one StepColumns
    to all of them, in order, so each power of A is formed once and each
    horizon's root LP grows from the previous horizon's; a horizon below
    the last one asked grows the root again from the empty LP."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    if columns.system.target.is_empty:
        return None
    columns.grow(n)
    return _search(columns, [0] * n, 0, columns.root_at(n).without_artificials())


def _witness(cols: StepColumns, assignment, tab) -> ReachWitness:
    """The witness at the basic point of tab, the feasible tableau of the
    leaf that assigns every step: each variable of step t's assigned
    component, read at its place in step t's pooled block, times its
    generator's denominator."""
    n = len(assignment)
    pooled = cols.pooled[0]
    point = tab.point(pooled.nonneg * n + cols.target.nonneg)
    size = len(pooled.dens)
    steps = []
    for t, c in enumerate(assignment):
        b = cols.comps[c][n - 1 - t]
        coeffs = [den * point[t * size + i] for den, i in zip(b.dens, cols.members[c])]
        i, j = b.nv, b.nv + b.nr
        steps.append(WitnessStep(c, tuple(coeffs[:i]), tuple(coeffs[i:j]), tuple(coeffs[j:])))
    return ReachWitness(n, tuple(steps))


def _search(cols: StepColumns, assignment: list[int], depth: int, tab) -> ReachWitness | None:
    """DFS over per-step component assignments with hull-relaxation pruning,
    below the node that assigns the steps before `depth` and pools the
    others: tab is that node's feasible tableau, or None when its LP is
    infeasible.

    The child that gives step `depth` component c has its parent's LP with
    the other components' variables of that step at 0, so its tableau is
    tab with those columns dead.  Every node keeps the root's columns, so
    a leaf's live columns are each step's assigned generators and the
    target's, and its witness is the point of the feasible tableau it
    holds."""
    if tab is None:
        return None
    n = len(assignment)
    if depth == n:
        return _witness(cols, assignment, tab)
    offset = depth * cols.width
    for c, foreign in enumerate(cols.foreign):
        assignment[depth] = c
        found = _search(cols, assignment, depth + 1, tab.restricted([offset + j for j in foreign]))
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
        w = reach_exactly(columns, n)
        if w is not None:
            return w
    return None
