"""Hardness-reduction constructions packaged as instance generators.

Three families, each with independently checkable ground truth:

  * matrix powering / vector reachability built from unipotent arithmetic
    gadgets (encode z = k, z = x + y, z = x y as matrix identities),
    lifted to a reachability instance whose controls are a finite union
    of affine subspaces;
  * a reduction whose instances are reachable iff some matrix power has
    (M^n)_{1,2} = 0 (zero-test family, controls = affine subspace + origin);
  * a reduction whose instances are reachable iff some power of a
    stochastic matrix has (M^n)_{1,2} >= 1/2 (threshold family, controls
    a compact polytope).

The vector-reachability lift ships with a schedule mapper: given a
solving exponent tuple it produces the step times t_1..t_{k+1} with
t_{i+1} - t_i = n_i and a replayable witness at horizon t_{k+1} + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .forward import ReachWitness, WitnessStep
from .geometry import ControlSet, GenPolyhedron
from .linalg import RatMatrix, Vec, unit_vec, zero_vec
from .preprocess import LtiSystem

F = Fraction


class UnschedulableSolutionError(Exception):
    """An exponent tuple whose suffix sums go negative cannot be realized
    by the lifted system's control schedule."""


@dataclass(frozen=True)
class PoweringInstance:
    """Does some product of integer powers of the matrices equal the target?"""

    matrices: tuple[RatMatrix, ...]
    target: RatMatrix

    def __post_init__(self):
        dims = {m.rows for m in self.matrices} | {self.target.rows}
        if len(dims) != 1 or any(not m.is_square for m in (*self.matrices, self.target)):
            raise ValueError("all matrices must be square of one dimension")
        for m in (*self.matrices, self.target):
            if m.det() == 0:
                raise ValueError("matrices must be invertible")

    @property
    def dim(self) -> int:
        return self.target.rows

    def holds_at(self, exponents) -> bool:
        """Evaluate the matrix identity at an exponent assignment."""
        if len(exponents) != len(self.matrices):
            raise ValueError("exponent arity mismatch")
        acc = RatMatrix.identity(self.dim)
        for m, n in zip(self.matrices, exponents):
            acc = acc @ m.power(n)
        return acc == self.target


@dataclass(frozen=True)
class PoweringFragment:
    """A powering instance encoding one arithmetic relation over named
    integer variables (in factor order)."""

    instance: PoweringInstance
    variables: tuple[str, ...]
    relation: str  # "const" | "add" | "mul"
    const_value: int = 0

    def relation_holds(self, assignment: dict) -> bool:
        g = assignment.__getitem__
        if self.relation == "const":
            return g("z") == self.const_value
        if self.relation == "add":
            return g("z") == g("x") + g("y")
        if self.relation == "mul":
            return g("z") == g("x") * g("y") and g("x") == g("xp") and g("y") == g("yp")
        raise ValueError(self.relation)

    def identity_holds(self, assignment: dict) -> bool:
        return self.instance.holds_at([assignment[v] for v in self.variables])


def _upper_unipotent2(t: int) -> RatMatrix:
    return RatMatrix.from_rows([[1, t], [0, 1]])


def gadget_constant(k: int) -> PoweringFragment:
    inst = PoweringInstance((_upper_unipotent2(1),), _upper_unipotent2(k))
    return PoweringFragment(inst, ("z",), "const", k)


def gadget_add() -> PoweringFragment:
    inst = PoweringInstance(
        (_upper_unipotent2(1), _upper_unipotent2(1), _upper_unipotent2(-1)),
        RatMatrix.identity(2))
    return PoweringFragment(inst, ("x", "y", "z"), "add")


def gadget_mul() -> PoweringFragment:
    def shear(i: int, j: int, t: int) -> RatMatrix:
        rows = RatMatrix.identity(3).to_rows()
        rows[i][j] = F(t)
        return RatMatrix.from_rows(rows)

    mats = (
        shear(0, 2, -1),   # exponent z
        shear(1, 2, -1),   # exponent y'
        shear(0, 1, 1),    # exponent x
        shear(1, 2, 1),    # exponent y
        shear(0, 1, -1),   # exponent x'
    )
    inst = PoweringInstance(mats, RatMatrix.identity(3))
    return PoweringFragment(inst, ("z", "yp", "x", "y", "xp"), "mul")


def conjoin(instances) -> PoweringInstance:
    """Block-diagonal conjunction; shorter factor lists are padded with
    identity factors so all instances share one exponent tuple."""
    instances = list(instances)
    if not instances:
        raise ValueError("need at least one instance")
    if len(instances) == 1:
        return instances[0]
    k = max(len(p.matrices) for p in instances)
    factors = []
    for i in range(k):
        blocks = []
        for p in instances:
            blocks.append(p.matrices[i] if i < len(p.matrices) else RatMatrix.identity(p.dim))
        factors.append(RatMatrix.block_diag(blocks))
    target = RatMatrix.block_diag([p.target for p in instances])
    return PoweringInstance(tuple(factors), target)


@dataclass(frozen=True)
class VectorReachInstance:
    matrices: tuple[RatMatrix, ...]
    x: Vec
    y: Vec

    def __post_init__(self):
        d = self.matrices[0].rows if self.matrices else 0
        if any(m.rows != d or not m.is_square for m in self.matrices):
            raise ValueError("matrix dimensions inconsistent")
        if len(self.x) != d or len(self.y) != d:
            raise ValueError("vector dimensions inconsistent")
        if all(v == 0 for v in self.x) or all(v == 0 for v in self.y):
            raise ValueError("endpoint vectors must be nonzero")
        for m in self.matrices:
            if m.det() == 0:
                raise ValueError("matrices must be invertible")

    @property
    def dim(self) -> int:
        return self.matrices[0].rows

    def holds_at(self, exponents) -> bool:
        acc = self.x
        for m, n in zip(self.matrices, exponents):
            acc = m.power(n).matvec(acc)
        return acc == self.y


def powering_to_vector_reach(p: PoweringInstance) -> VectorReachInstance:
    """d^2-dimensional lift: stacked identity columns must map to the
    stacked target columns; solution sets coincide."""
    d = p.dim
    big = tuple(RatMatrix.block_diag([m] * d) for m in p.matrices)
    x = tuple(F(1 if i % d == i // d else 0) for i in range(d * d))
    y = tuple(p.target.get(i % d, i // d) for i in range(d * d))
    return VectorReachInstance(big, x, y)


# ---------------------------------------------------------------------------
# vector reachability -> LTI with union-of-affine controls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorReachLti:
    """The lifted system plus the data needed to schedule known solutions.

    Control components are indexed by subsets of the atomic-control
    spaces (bitmask order): an atomic control moves an arbitrary block
    vector from stage block i to stage block i+1 while ticking the i-th
    tail counter; the empty subset is the zero control.
    """

    system: LtiSystem
    instance: VectorReachInstance

    @property
    def k(self) -> int:
        return len(self.instance.matrices)

    @property
    def block_dim(self) -> int:
        return self.instance.dim

    def step_times(self, exponents) -> list[int]:
        """Nonnegative t_1..t_{k+1} with t_{i+1} - t_i = n_i."""
        exponents = list(exponents)
        if len(exponents) != self.k:
            raise ValueError("exponent arity mismatch")
        if any(n == 0 for n in exponents):
            raise ValueError("zero exponents are excluded by the problem statement")
        t1 = max(0, -exponents[0])
        ts = [t1, t1 + exponents[0]]
        for n in exponents[1:]:
            if n + ts[-1] < 0:
                shift = -(n + ts[-1])
                ts = [t + shift for t in ts]
            ts.append(ts[-1] + n)
        return ts

    def schedule_witness(self, exponents) -> tuple[list[int], ReachWitness]:
        """Step times per the inductive construction and a witness at
        horizon t_{k+1} + 1 that replays into the target."""
        exponents = list(exponents)
        ts = self.step_times(exponents)
        # every control must fire within the trajectory: t_i <= t_{k+1}.
        # The differences are fixed, so this is the suffix-sum condition
        # sum_{j>=i} n_j >= 0; tuples violating it admit no schedule.
        if any(t > ts[-1] for t in ts[:-1]):
            raise UnschedulableSolutionError(
                "a suffix of the exponents sums negative; the atomic control "
                "would fire after the final step")
        horizon = ts[-1] + 1
        d = self.block_dim
        k = self.k
        # z_i = (prod_{j<i} A_j^{n_j}) x
        zs = [self.instance.x]
        for m, n in zip(self.instance.matrices, exponents):
            zs.append(m.power(n).matvec(zs[-1]))
        steps = []
        for t in range(horizon):
            active = [i for i in range(k) if ts[i] == t]
            mask = sum(1 << i for i in active)
            comp = self.system.controls.components[mask]
            line_coeffs = []
            for i in active:
                # lines for atomic space i are +e_j at block i, -e_j at
                # block i+1; the control moves z_{i+1-indexed} forward,
                # i.e. subtracts z from block i, so coefficients are -z_j
                line_coeffs.extend(-zs[i][j] for j in range(d))
            steps.append(WitnessStep(mask, tuple([F(1)]), (), tuple(line_coeffs)))
        return ts, ReachWitness(horizon, tuple(steps))


def vector_reach_to_lti(v: VectorReachInstance) -> VectorReachLti:
    k = len(v.matrices)
    d = v.dim
    dim = (k + 1) * d + k
    blocks = [RatMatrix.identity(d)] + list(v.matrices) + [RatMatrix.identity(k)]
    a = RatMatrix.block_diag(blocks)

    components = []
    for mask in range(1 << k):
        offset = [F(0)] * dim
        lines = []
        for i in range(k):
            if mask & (1 << i):
                offset[(k + 1) * d + i] = F(1)
                for j in range(d):
                    line = [F(0)] * dim
                    line[i * d + j] = F(1)
                    line[(i + 1) * d + j] = F(-1)
                    lines.append(tuple(line))
        components.append(GenPolyhedron(dim, (tuple(offset),), (), tuple(lines)))

    source = tuple(list(v.x) + [F(0)] * (k * d) + [F(0)] * k)
    target_vec = [F(0)] * dim
    for j in range(d):
        target_vec[k * d + j] = v.y[j]
    for i in range(k):
        target_vec[(k + 1) * d + i] = F(1)
    sys = LtiSystem(a, ControlSet(tuple(components)), source,
                    GenPolyhedron.point(tuple(target_vec)))
    return VectorReachLti(sys, v)


# ---------------------------------------------------------------------------
# zero-test family (affine subspace + origin controls)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTestLti:
    """Reachable iff (M^n)_{1,2} = 0 for some n >= 1 (the length of the
    constructed control sequence).  (M^0)_{1,2} = 0 holds trivially for
    every matrix; whether that should count is a convention, so the
    query helper takes the minimum power explicitly."""

    system: LtiSystem
    m: RatMatrix

    def hits_zero(self, n: int) -> bool:
        return self.m.power(n).get(0, 1) == 0

    def first_zero(self, max_n: int, min_power: int = 1) -> int | None:
        for n in range(min_power, max_n + 1):
            if self.hits_zero(n):
                return n
        return None


def skolem_to_lti(m: RatMatrix) -> ZeroTestLti:
    if not m.is_square or m.rows < 2:
        raise ValueError("need a square matrix of dimension at least 2")
    d = m.rows
    a = RatMatrix.block_diag([m, RatMatrix.diag(2)])
    dim = d + 1
    zero_comp = GenPolyhedron.point(zero_vec(dim))
    offset = unit_vec(dim, d)
    lines = tuple(unit_vec(dim, j) for j in range(1, d))
    affine_comp = GenPolyhedron(dim, (offset,), (), lines)
    source = tuple(list(unit_vec(d, 1)) + [F(0)])
    target = GenPolyhedron.point(unit_vec(dim, d))
    sys = LtiSystem(a, ControlSet((zero_comp, affine_comp)), source, target)
    return ZeroTestLti(sys, m)


# ---------------------------------------------------------------------------
# threshold family (compact polytope controls)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdLti:
    """Reachable iff (M^n)_{1,2} >= 1/2 for some n."""

    system: LtiSystem
    m: RatMatrix

    def hits_threshold(self, n: int) -> bool:
        return self.m.power(n).get(0, 1) >= F(1, 2)

    def first_hit(self, max_n: int) -> int | None:
        for n in range(1, max_n + 1):
            if self.hits_threshold(n):
                return n
        return None


def markov_to_lti(m: RatMatrix) -> ThresholdLti:
    if not m.is_square:
        raise ValueError("need a square matrix")
    d = m.rows
    for j in range(d):
        col = m.col(j)
        if any(x < 0 for x in col) or sum(col) != 1:
            raise ValueError("matrix must be column-stochastic")
    dim = d + 3
    a = RatMatrix.block_diag([m, RatMatrix.diag(0, 0, 1)])
    # controls (-x, y, z, z): x >= 0, 0 <= y <= x_1, sum x = z <= 1.  They
    # form a simplex whatever M is, with vertices 0, (-e_i, 0, 1, 1) for
    # each i and (-e_1, 1, 1, 1), listed in the order that vertex
    # enumeration of the half-space description finds them
    zero, one = F(0), F(1)
    corners = [tuple(-x for x in unit_vec(d, i)) for i in reversed(range(d))]
    verts = [(zero,) * dim] + [c + (zero, one, one) for c in corners] + [corners[-1] + (one, one, one)]
    u = GenPolyhedron(dim, tuple(verts))
    source = tuple(list(unit_vec(d, 1)) + [F(0)] * 3)
    target = tuple([F(0)] * d + [F(1, 2), F(1), F(1)])
    sys = LtiSystem(a, ControlSet.single(u), source, GenPolyhedron.point(target))
    return ThresholdLti(sys, m)
