"""Normalization of reachability instances.

check_simple decides the structural conditions (polytopic controls
around the origin, contracting dynamics, eventually-real spectrum, source
at the origin, bounded target) exactly and in integers: the origin test
is one feasibility LP with a row per coordinate, and both spectral tests
read one primitive integer characteristic polynomial without its zero
roots, formed once, with no matrix power.  The report keeps that
polynomial: to_simple_form reads singularity off its constant
coefficient, and the driver hands it to the spectral decomposition when
the reduced matrix is A itself.  to_simple_form takes that report, which
its caller has formed to decide whether the reductions apply, and applies
three reductions in a fixed order:

  1. power step: replace A by A^M and U by the M-step input sum, making
     the spectrum real and nonnegative;
  2. invertibility step, when A is singular: split off the nilpotent
     part, absorbing the first d steps into the target;
  3. span step: restrict to the least invariant subspace containing the
     controls, making the reachable set full dimensional.

The decision procedure relies on one direction only: if the original
system reaches the target, so does the reduced one, so a separator of
the reduced system proves the original unreachable.  A positive verdict
never comes from the reduced system (forward search runs on the original
one), so no reduced witness is ever lifted back.  The tests check the
converse horizon: a reduced witness at horizon n means the original
system reaches the target at exactly M(n + d), where d is the dimension
when the invertibility step applies and 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import IntPoly
from .geometry import (
    ControlSet,
    GenPolyhedron,
    canonical,
    check_facet_dimension,
    intersect_with_subspace,
    linear_image,
    minkowski_sum,
    negate,
    relative_interior_contains_origin,
)
from .linalg import (
    RatMatrix,
    Vec,
    charpoly_primitive,
    fitting_split,
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
        if self.controls.dim != d or len(self.source) != d or self.target.dim != d:
            raise ValueError("dimension mismatch across system fields")

    @property
    def dim(self) -> int:
        return self.a.rows


@dataclass(frozen=True)
class SimplicityReport:
    charpoly: IntPoly  # charpoly_primitive of A, formed once per decision
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
    is_poly = sys.controls.is_single_polytope
    origin_ok = bool(is_poly and relative_interior_contains_origin(sys.controls.components[0]))
    charpoly = charpoly_primitive(sys.a)
    p = nonzero_eigen_poly(charpoly)
    schur = schur_stable(p)
    power = real_spectrum_power(p, sys.dim)
    return SimplicityReport(
        charpoly=charpoly,
        is_polytope=is_poly,
        origin_in_rel_interior=origin_ok,
        schur=schur,
        real_power=power,
        source_is_zero=vec_is_zero(sys.source),
        target_bounded=sys.target.is_empty or sys.target.is_polytope,
    )


@dataclass(frozen=True)
class SimpleForm:
    a_reduced: RatMatrix
    u_reduced: GenPolyhedron
    q_reduced: GenPolyhedron
    power: int  # M of the power step
    fit_applied: bool
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

    # invertibility step: the first d steps are absorbed into the target;
    # A^M is singular exactly when A is, that is when det A = +-p(0) is 0
    d = power_a.rows
    fit_applied = report.charpoly.coeffs[0] == 0
    if fit_applied:
        _, v1 = fitting_split(power_a)
        if not sys.target.is_empty:
            # the intersection below enumerates facets in dimension d; fail
            # before the d-step input sum, which costs the most here
            check_facet_dimension(d)
        fit_a = _restrict_matrix(power_a, v1)
        image_u = linear_image(power_a.power(d), power_u)
        fit_u = _polytope_in_basis(image_u, v1) if v1 else GenPolyhedron(0, ((),))
        prefix = input_sum(power_a, power_u, d)
        shifted = minkowski_sum(sys.target, negate(prefix))
        fit_q = intersect_with_subspace(shifted, v1)
    else:
        fit_a = power_a
        fit_u = power_u
        fit_q = sys.target

    # span step
    span = krylov_invariant_span(fit_a, list(fit_u.vertices)) if fit_a.rows > 0 else []
    span_applied = len(span) < fit_a.rows
    if span_applied and span:
        a_red = _restrict_matrix(fit_a, span)
        u_red = _polytope_in_basis(fit_u, span)
        q_red = intersect_with_subspace(fit_q, span)
    elif span_applied:
        a_red = RatMatrix.zeros(0, 0)
        u_red = GenPolyhedron(0, ((),))
        q_red = intersect_with_subspace(fit_q, [])
    else:
        a_red = fit_a
        u_red = fit_u
        q_red = fit_q
    return SimpleForm(a_red, u_red, q_red, m, fit_applied, span_applied)
