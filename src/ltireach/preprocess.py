"""Normalization of reachability instances.

check_simple decides the three structural conditions (polytopic controls
around the origin, contracting dynamics, eventually-real spectrum)
exactly.  to_simple_form applies three reductions in a fixed order:

  1. power step: replace A by A^M and U by the M-step input sum, making
     the spectrum real and nonnegative;
  2. invertibility step: split off the nilpotent part, absorbing the
     first d steps into the target;
  3. span step: restrict to the least invariant subspace containing the
     controls, making the reachable set full dimensional.

Each step records enough bookkeeping to lift any reduced control
sequence back to an exact original one (lift_witness).
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    ControlSet,
    GenPolyhedron,
    canonical,
    constraint,
    intersect_with_subspace,
    linear_image,
    lp_solve,
    minkowski_sum,
    negate,
    relative_interior_contains_origin,
)
from .linalg import (
    RatMatrix,
    Vec,
    fitting_split,
    krylov_invariant_span,
    real_spectrum_power,
    schur_stable,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vec,
)


class NonSimpleError(Exception):
    """Reduction requested for a system that fails a named condition."""


class WitnessLiftError(Exception):
    """A reduced witness failed to lift and replay; indicates a soundness bug."""


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
    is_polytope: bool
    origin_in_rel_interior: bool
    schur: bool
    real_power: int | None
    simple: bool
    source_is_zero: bool

    def failing_conditions(self) -> list[str]:
        out = []
        if not self.is_polytope:
            out.append("controls are not a single bounded polytope")
        elif not self.origin_in_rel_interior:
            out.append("origin is not in the relative interior of the controls")
        if not self.schur:
            out.append("spectral radius is not below one")
        if self.real_power is None:
            out.append("no power of the matrix has exclusively real spectrum")
        return out


def check_simple(sys: LtiSystem) -> SimplicityReport:
    is_poly = sys.controls.is_single_polytope
    origin_ok = bool(is_poly and relative_interior_contains_origin(sys.controls.components[0]))
    schur = schur_stable(sys.a)
    power = real_spectrum_power(sys.a)
    simple = is_poly and origin_ok and schur and power is not None
    return SimplicityReport(
        is_polytope=is_poly,
        origin_in_rel_interior=origin_ok,
        schur=schur,
        real_power=power,
        simple=simple,
        source_is_zero=vec_is_zero(sys.source),
    )


@dataclass(frozen=True)
class BackMap:
    """Data inverting the reduction chain for witness lifting."""

    original: LtiSystem
    m_power: int
    power_a: RatMatrix
    power_u: GenPolyhedron
    fit_applied: bool
    fit_steps: int
    v1_basis: tuple[Vec, ...]
    fit_a: RatMatrix
    fit_u: GenPolyhedron
    span_applied: bool
    span_basis: tuple[Vec, ...]


@dataclass(frozen=True)
class SimpleForm:
    a_reduced: RatMatrix
    u_reduced: GenPolyhedron
    q_reduced: GenPolyhedron
    back_map: BackMap

    @property
    def dim(self) -> int:
        return self.a_reduced.rows


def _coords_in_basis(basis: tuple[Vec, ...], v: Vec) -> Vec:
    m = RatMatrix.from_rows([list(b) for b in basis]).transpose()
    sol = m.solve(v)
    if sol is None:
        raise WitnessLiftError("vector not in the recorded subspace")
    return sol


def _restrict_matrix(a: RatMatrix, basis: tuple[Vec, ...]) -> RatMatrix:
    cols = [_coords_in_basis(basis, a.matvec(b)) for b in basis]
    k = len(basis)
    return RatMatrix(k, k, tuple(cols[j][i] for i in range(k) for j in range(k)))


def _polytope_in_basis(p: GenPolyhedron, basis: tuple[Vec, ...]) -> GenPolyhedron:
    verts = tuple(_coords_in_basis(basis, v) for v in p.vertices)
    return canonical(GenPolyhedron(len(basis), verts))


def _input_sum(a: RatMatrix, u: GenPolyhedron, steps: int) -> GenPolyhedron:
    """Minkowski sum of A^i(U) for i = 0..steps-1."""
    if steps <= 0:
        return GenPolyhedron.point(zero_vec(a.rows))
    acc = u
    power = RatMatrix.identity(a.rows)
    for _ in range(1, steps):
        power = power @ a
        acc = minkowski_sum(acc, linear_image(power, u))
    return acc


def to_simple_form(sys: LtiSystem, report: SimplicityReport | None = None) -> SimpleForm:
    """Normalize a simple system; `report` is check_simple(sys) when the
    caller has it already."""
    if report is None:
        report = check_simple(sys)
    if not report.simple:
        raise NonSimpleError("; ".join(report.failing_conditions()))
    if not report.source_is_zero:
        raise NonSimpleError("source state must be the origin")
    u0 = sys.controls.components[0]
    m = report.real_power
    assert m is not None

    # power step
    power_a = sys.a.power(m)
    power_u = _input_sum(sys.a, u0, m) if m > 1 else u0

    # invertibility step
    d = power_a.rows
    _, v1 = fitting_split(power_a)
    fit_applied = len(v1) < d
    if fit_applied:
        v1_basis = tuple(v1)
        fit_steps = d
        fit_a = _restrict_matrix(power_a, v1_basis)
        image_u = linear_image(power_a.power(d), power_u)
        fit_u = _polytope_in_basis(image_u, v1_basis) if v1_basis else GenPolyhedron(0, ((),))
        prefix = _input_sum(power_a, power_u, d)
        shifted = minkowski_sum(sys.target, negate(prefix))
        fit_q = intersect_with_subspace(shifted, list(v1_basis))
    else:
        v1_basis = tuple()
        fit_steps = 0
        fit_a = power_a
        fit_u = power_u
        fit_q = sys.target

    # span step
    gens = list(fit_u.vertices)
    span = krylov_invariant_span(fit_a, gens) if fit_a.rows > 0 else []
    span_applied = len(span) < fit_a.rows
    if span_applied:
        span_basis = tuple(span)
        if span_basis:
            a_red = _restrict_matrix(fit_a, span_basis)
            u_red = _polytope_in_basis(fit_u, span_basis)
            q_red = intersect_with_subspace(fit_q, list(span_basis))
        else:
            a_red = RatMatrix.zeros(0, 0)
            u_red = GenPolyhedron(0, ((),))
            q_red = intersect_with_subspace(fit_q, [])
    else:
        span_basis = tuple()
        a_red = fit_a
        u_red = fit_u
        q_red = fit_q

    back = BackMap(
        original=sys,
        m_power=m,
        power_a=power_a,
        power_u=power_u,
        fit_applied=fit_applied,
        fit_steps=fit_steps,
        v1_basis=v1_basis,
        fit_a=fit_a,
        fit_u=fit_u,
        span_applied=span_applied,
        span_basis=span_basis,
    )
    return SimpleForm(a_red, u_red, q_red, back)


# ---------------------------------------------------------------------------
# witness lifting
# ---------------------------------------------------------------------------


def _decompose_into_step_sum(a: RatMatrix, u: GenPolyhedron, steps: int, total: Vec,
                             extra_target: GenPolyhedron | None = None):
    """Find u_0..u_{steps-1} in U (and optionally q in the target) with
    sum_i A^i u_i (+ q) == total; returns (list of u vectors, q or None)."""
    d = a.rows
    verts = u.vertices
    nv = len(verts)
    powers = [a.power(i) for i in range(steps)]
    tverts = extra_target.vertices if extra_target is not None else ()
    ncols = steps * nv + len(tverts)
    cons = []
    for i in range(d):
        row = []
        for s in range(steps):
            for v in verts:
                row.append(powers[s].matvec(v)[i])
        for q in tverts:
            row.append(-q[i])
        cons.append(constraint(row, "==", total[i]))
    for s in range(steps):
        row = [0] * ncols
        for j in range(nv):
            row[s * nv + j] = 1
        cons.append(constraint(row, "==", 1))
    if tverts:
        row = [0] * ncols
        for j in range(len(tverts)):
            row[steps * nv + j] = 1
        cons.append(constraint(row, "==", 1))
    res = lp_solve(None, cons, ncols, nonneg=[True] * ncols)
    if not res.is_feasible:
        raise WitnessLiftError("step-sum decomposition infeasible")
    pt = res.point
    controls = []
    for s in range(steps):
        acc = zero_vec(d)
        for j, v in enumerate(verts):
            acc = vec_add(acc, vec_scale(v, pt[s * nv + j]))
        controls.append(acc)
    qpoint = None
    if tverts:
        acc = zero_vec(d)
        for j, q in enumerate(tverts):
            acc = vec_add(acc, vec_scale(q, pt[steps * nv + j]))
        qpoint = acc
    return controls, qpoint


def lift_witness(form: SimpleForm, reduced_witness):
    """Turn a witness for the reduced system into one for the original.

    The reduced witness must replay into the reduced target; the lifted
    witness is replay-verified against the original system before being
    returned.
    """
    from . import forward

    back = form.back_map
    orig = back.original
    if not forward.verify_witness(
            LtiSystem(form.a_reduced, ControlSet.single(form.u_reduced),
                      zero_vec(form.dim), form.q_reduced),
            reduced_witness):
        raise WitnessLiftError("reduced witness does not replay into the reduced target")

    identity_reduction = (back.m_power == 1 and not back.fit_applied and not back.span_applied)
    if identity_reduction:
        return reduced_witness

    red_controls = forward.witness_control_vectors(form.u_reduced, reduced_witness)

    # span coords -> invertible-part coords
    if back.span_applied:
        if back.span_basis:
            bm = RatMatrix.from_rows([list(b) for b in back.span_basis]).transpose()
            fit_controls = [bm.matvec(w) for w in red_controls]
        else:
            fit_controls = [zero_vec(back.fit_a.rows) for _ in red_controls]
    else:
        fit_controls = list(red_controls)

    # invertible-part controls -> power-system controls
    if back.fit_applied:
        d = back.fit_steps
        bmat = (RatMatrix.from_rows([list(b) for b in back.v1_basis]).transpose()
                if back.v1_basis else None)
        ad = back.power_a.power(d)
        power_controls = []
        for w in fit_controls:
            target_vec = bmat.matvec(w) if bmat is not None else zero_vec(back.power_a.rows)
            coeffs = _preimage_under(ad, back.power_u, target_vec)
            power_controls.append(coeffs)
        # final reduced point, lifted back into power-space coordinates
        state = zero_vec(back.fit_a.rows)
        for w in fit_controls:
            state = vec_add(back.fit_a.matvec(state), w)
        lifted_final = bmat.matvec(state) if bmat is not None else zero_vec(back.power_a.rows)
        prefix, _ = _decompose_into_step_sum(
            back.power_a, back.power_u, d,
            total=_negated(lifted_final), extra_target=orig.target)
        power_controls = power_controls + list(reversed(prefix))
    else:
        power_controls = fit_controls

    # power-system controls -> original controls
    if back.m_power > 1:
        orig_controls = []
        u0 = orig.controls.components[0]
        for w in power_controls:
            parts, _ = _decompose_into_step_sum(orig.a, u0, back.m_power, w)
            orig_controls.extend(reversed(parts))
    else:
        orig_controls = power_controls

    witness = forward.witness_from_control_vectors(orig, orig_controls)
    if not forward.verify_witness(orig, witness):
        raise WitnessLiftError("lifted witness failed to replay into the original target")
    return witness


def _negated(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _preimage_under(ad: RatMatrix, u: GenPolyhedron, target_vec: Vec) -> Vec:
    """Some u in U with A^d u == target; exact LP over the vertices."""
    verts = u.vertices
    nv = len(verts)
    cons = []
    for i in range(ad.rows):
        row = [ad.matvec(v)[i] for v in verts]
        cons.append(constraint(row, "==", target_vec[i]))
    cons.append(constraint([1] * nv, "==", 1))
    res = lp_solve(None, cons, nv, nonneg=[True] * nv)
    if not res.is_feasible:
        raise WitnessLiftError("control preimage infeasible")
    acc = zero_vec(u.dim)
    for c, v in zip(res.point, verts):
        acc = vec_add(acc, vec_scale(v, c))
    return acc
