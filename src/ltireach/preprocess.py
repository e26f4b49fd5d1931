"""Normalization of reachability instances.

check_simple decides the structural conditions (polytopic controls
around the origin, contracting dynamics, eventually-real spectrum, source
at the origin, bounded target) exactly and in integers: the origin test
is one feasibility LP with a row per coordinate, or none when the control
vertices sum to 0, and the spectral tests start from one primitive integer
characteristic polynomial without its zero roots, formed once, with no
matrix power.  When every other condition holds, that polynomial is
factored once and each factor's real roots isolated once
(linalg.eigen_factors): a factor with only real roots gives both spectral
answers by comparisons of its roots, and only a factor with non-real roots
runs the polynomial tests, on itself alone.  A system that fails another
condition is never decomposed, so it gets both tests on the whole
polynomial and nothing is factored.  The report keeps the polynomial and
the eigenvalues, and the driver hands both to the spectral decomposition
when the reduced matrix is A itself.  to_simple_form takes that report, which
its caller has formed to decide whether the reductions apply, and applies
two reductions in a fixed order:

  1. power step: replace A by A^M and U by the M-step input sum, making
     the spectrum real and nonnegative;
  2. span step: restrict to the least invariant subspace containing the
     controls, making the reachable set full dimensional.

A singular A needs no step of its own: the spectral decomposition gives
the eigenvalue 0 no projector, only a transient below which no threshold
of the certificate search falls.

The decision procedure relies on one direction only: if the original
system reaches the target, so does the reduced one, so a separator of
the reduced system proves the original unreachable.  A positive verdict
never comes from the reduced system (forward search runs on the original
one), so no reduced witness is ever lifted back.  The tests check the
converse horizon: a reduced witness at horizon n means the original
system reaches the target at exactly M n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import IntPoly
from .geometry import (
    ControlSet,
    GenPolyhedron,
    canonical,
    intersect_with_subspace,
    linear_image,
    minkowski_sum,
    relative_interior_contains_origin,
)
from .linalg import (
    EigenFactor,
    RatMatrix,
    Vec,
    charpoly_primitive,
    eigen_factors,
    factored_spectral_tests,
    krylov_invariant_span,
    nonzero_eigen_poly,
    real_spectrum_power,
    schur_stable,
    vec_is_zero,
    zero_vec,
)


class NonSimpleError(Exception):
    """Reduction requested for a system that fails a named condition."""


@dataclass(frozen=True)
class LtiSystem:
    a: RatMatrix
    controls: ControlSet
    source: Vec
    target: GenPolyhedron

    def __post_init__(self):
        d = self.a.rows
        if not self.a.is_square:
            raise ValueError("transition matrix must be square")
        # the instance text writes a 0-entry row as a blank line, which the
        # parser skips, so a system of dimension 0 would not read back
        if d == 0:
            raise ValueError("a system has dimension at least 1")
        if self.controls.dim != d or len(self.source) != d or self.target.dim != d:
            raise ValueError("dimension mismatch across system fields")

    @property
    def dim(self) -> int:
        return self.a.rows


@dataclass(frozen=True)
class SimplicityReport:
    """check_simple's answer for each condition of the certificate search,
    and what it formed on the way that a later step reads: A's
    characteristic polynomial, and the nonzero eigenvalues (eigen_factors)
    when every condition but the spectral ones holds, None otherwise."""

    charpoly: IntPoly  # charpoly_primitive of A, formed once per decision
    eigenvalues: tuple[EigenFactor, ...] | None
    is_polytope: bool
    origin_in_rel_interior: bool
    schur: bool
    real_power: int | None
    source_is_zero: bool
    target_bounded: bool

    def failing_conditions(self) -> list[str]:
        """Every condition of the certificate search that the system fails,
        in a fixed order; empty exactly when to_simple_form applies."""
        out = []
        if not self.is_polytope:
            out.append("controls are not a single bounded polytope")
        elif not self.origin_in_rel_interior:
            out.append("origin is not in the relative interior of the controls")
        if not self.schur:
            out.append("spectral radius is not below one")
        if self.real_power is None:
            out.append("no power of the matrix has exclusively real spectrum")
        if not self.source_is_zero:
            out.append("source state is not the origin")
        if not self.target_bounded:
            out.append("target is unbounded (it has rays or lines)")
        return out


def check_simple(sys: LtiSystem) -> SimplicityReport:
    """Every condition of the certificate search, decided exactly.  When the
    others hold, the spectral ones are read factor by factor off the
    eigenvalues, isolated once (factored_spectral_tests), and the report
    keeps them for the spectral decomposition; a system that fails one of
    the others is never decomposed, so it gets the tests on the whole
    polynomial, which factor nothing."""
    is_poly = sys.controls.is_single_polytope
    origin_ok = bool(is_poly and relative_interior_contains_origin(sys.controls.components[0]))
    source_zero = vec_is_zero(sys.source)
    bounded = sys.target.is_empty or sys.target.is_polytope
    charpoly = charpoly_primitive(sys.a)
    p = nonzero_eigen_poly(charpoly)
    if origin_ok and source_zero and bounded:
        eigen = eigen_factors(p)
        schur, power = factored_spectral_tests(eigen, sys.dim)
    else:
        eigen = None
        schur, power = schur_stable(p), real_spectrum_power(p, sys.dim)
    return SimplicityReport(
        charpoly=charpoly,
        eigenvalues=eigen,
        is_polytope=is_poly,
        origin_in_rel_interior=origin_ok,
        schur=schur,
        real_power=power,
        source_is_zero=source_zero,
        target_bounded=bounded,
    )


@dataclass(frozen=True)
class SimpleForm:
    a_reduced: RatMatrix
    u_reduced: GenPolyhedron
    q_reduced: GenPolyhedron
    power: int  # M of the power step
    span_applied: bool

    @property
    def dim(self) -> int:
        return self.a_reduced.rows


def _coords_in_basis(basis: list[Vec], v: Vec) -> Vec:
    m = RatMatrix.from_rows([list(b) for b in basis]).transpose()
    sol = m.solve(v)
    if sol is None:
        raise ValueError("vector not in the subspace")
    return sol


def _restrict_matrix(a: RatMatrix, basis: list[Vec]) -> RatMatrix:
    cols = [_coords_in_basis(basis, a.matvec(b)) for b in basis]
    k = len(basis)
    return RatMatrix(k, k, tuple(cols[j][i] for i in range(k) for j in range(k)))


def _polytope_in_basis(p: GenPolyhedron, basis: list[Vec]) -> GenPolyhedron:
    verts = tuple(_coords_in_basis(basis, v) for v in p.vertices)
    return canonical(GenPolyhedron(len(basis), verts))


def input_sum(a: RatMatrix, u: GenPolyhedron, steps: int) -> GenPolyhedron:
    """Minkowski sum of A^i(U) for i = 0..steps-1."""
    if steps <= 0:
        return GenPolyhedron.point(zero_vec(a.rows))
    acc = u
    power = RatMatrix.identity(a.rows)
    for _ in range(1, steps):
        power = power @ a
        acc = minkowski_sum(acc, linear_image(power, u))
    return acc


def to_simple_form(sys: LtiSystem, report: SimplicityReport) -> SimpleForm:
    """Normalize a simple system; `report` is check_simple(sys), which the
    caller has formed to decide whether the normalization applies."""
    reasons = report.failing_conditions()
    if reasons:
        raise NonSimpleError("; ".join(reasons))
    u0 = sys.controls.components[0]
    m = report.real_power
    assert m is not None

    # power step
    power_a = sys.a.power(m) if m > 1 else sys.a
    power_u = input_sum(sys.a, u0, m) if m > 1 else u0

    # span step
    span = krylov_invariant_span(power_a, list(power_u.vertices))
    span_applied = len(span) < power_a.rows
    if span_applied and span:
        a_red = _restrict_matrix(power_a, span)
        u_red = _polytope_in_basis(power_u, span)
        q_red = intersect_with_subspace(sys.target, span)
    elif span_applied:
        a_red = RatMatrix.zeros(0, 0)
        u_red = GenPolyhedron(0, ((),))
        q_red = intersect_with_subspace(sys.target, [])
    else:
        a_red = power_a
        u_red = power_u
        q_red = sys.target
    return SimpleForm(a_red, u_red, q_red, m, span_applied)
