"""Seeded workload generators with expected verdicts from independent oracles.

Every generator yields *rounds*: short, fixed-shape lists of instances whose
parameters come from the seed.  A round always holds the same mix of instance
families, so a run made of whole rounds has the same cost profile on every
seed; only the numbers inside the instances change.

Each instance carries its text (the only thing the program under test sees),
the exact system data for an independent witness replay, and the verdict an
oracle outside `driver.decide` predicts:

* ``"reachable"``: a witness within the step budget must be found;
* ``"unknown"``: no witness exists within the step budget and certificate
  search is off, so only ``unknown`` is correct;
* ``"not-reachable"``: the target lies on or outside the reachable closure,
  so ``unreachable`` or ``unknown`` are correct and ``reachable`` is a
  soundness failure;
* ``"self-proof"``: no prediction; the verdict must prove itself (witness
  replays, certificate audits) and never flip between two decisions.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from ltireach.driver import Budgets
from ltireach.gadgets import (
    PoweringInstance,
    VectorReachInstance,
    markov_to_lti,
    powering_to_vector_reach,
    skolem_to_lti,
    vector_reach_to_lti,
)
from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.instances import emit_instance
from ltireach.linalg import RatMatrix, vec, zero_vec
from ltireach.preprocess import LtiSystem

F = Fraction


@dataclass(frozen=True)
class Instance:
    ident: str
    family: str
    text: str
    oracle: Callable[[], str]  # the expected verdict class, computed on demand
    system: LtiSystem

    @property
    def expected(self) -> str:
        return self.oracle()


@dataclass(frozen=True)
class Workload:
    name: str
    budgets: Budgets  # search bounds only: the default sequential driver is measured
    round_fn: Callable[[random.Random, int], list[Instance]]


def _inst(ident, family, sys_, oracle) -> Instance:
    """`oracle` is an expected verdict class or a function computing one."""
    if isinstance(oracle, str):
        oracle = functools.partial(str, oracle)
    return Instance(ident, family, emit_instance(sys_), oracle, sys_)


def _m(rows) -> RatMatrix:
    return RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# forward_union: gadget corpus, certificate search off
# ---------------------------------------------------------------------------

FORWARD_STEPS = 6


def _min_schedule_horizon(instance, bound: int) -> int | None:
    """Smallest horizon of the lifted system over exponent tuples in
    [-bound, bound]^k that solve the matrix identity (brute force).

    Exponent differences fix the step times t_1..t_{k+1}; shifting them to
    start at 0 and requiring every t_i <= t_{k+1} (the suffix-sum rule of
    the schedule mapper) gives horizon t_{k+1} + 1.  Zero exponents are
    allowed here: the lifted system fires two atomic controls in one step.
    """
    best = None
    for exps in itertools.product(range(-bound, bound + 1), repeat=len(instance.matrices)):
        if not instance.holds_at(exps):
            continue
        ts = [0]
        for n in exps:
            ts.append(ts[-1] + n)
        low = min(ts)
        ts = [t - low for t in ts]
        if any(t > ts[-1] for t in ts[:-1]):
            continue
        h = ts[-1] + 1
        best = h if best is None else min(best, h)
    return best


def _expect_horizon(first_horizon: Callable[[], int | None]) -> Callable[[], str]:
    def oracle():
        horizon = first_horizon()
        return "reachable" if horizon is not None and horizon <= FORWARD_STEPS else "unknown"
    return oracle


def _first_power(m: RatMatrix, hit) -> int | None:
    """Least n in 1..FORWARD_STEPS with hit((M^n)_{1,2}), or None."""
    power = m
    for n in range(1, FORWARD_STEPS + 1):
        if hit(power.get(0, 1)):
            return n
        power = power @ m
    return None


def _draw_matrix(rng: random.Random, make, hit, want) -> RatMatrix:
    """Draw matrices until the first hitting power is in `want` (None: no
    hit within the step budget), so every round holds the same mix of
    verdicts and horizons.  The gadget oracle still decides the check."""
    while True:
        m = make(rng)
        if m is not None and _first_power(m, hit) in want:
            return m


def _stochastic(rng):
    a, b = F(rng.randint(0, 8), 8), F(rng.randint(1, 8), 8)
    return _m([[a, b], [1 - a, 1 - b]])


def _integer(rng):
    m = _m([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    return m if m.get(0, 1) != 0 and m.det() != 0 else None


def _shear(rng: random.Random) -> RatMatrix:
    """[[1, 1], [0, 1]] or its transpose: the seed picks the orientation,
    the cost stays the same."""
    return _m([[1, 1], [0, 1]] if rng.random() < 0.5 else [[1, 0], [1, 1]])


def _forward_round(rng: random.Random, r: int) -> list[Instance]:
    """Eleven instances: four reach at horizon 2-3 (cheap), three cost about
    the same as each other (the decide median falls among them), four
    cost more (the tail)."""
    out = []
    # markov threshold family: reachable iff (M^n)_{1,2} >= 1/2, at horizon n
    for k, want in enumerate(({2, 3}, {2, 3}, {None})):
        g = markov_to_lti(_draw_matrix(rng, _stochastic, lambda x: x >= F(1, 2), want))
        out.append(_inst(f"r{r}.markov{k}", "markov", g.system,
                         _expect_horizon(functools.partial(g.first_hit, FORWARD_STEPS))))
    # skolem zero-test family: reachable iff (M^n)_{1,2} = 0, at horizon n
    for k, want in enumerate(({2, 3}, {2, 3}, {None})):
        g = skolem_to_lti(_draw_matrix(rng, _integer, lambda x: x == 0, want))
        out.append(_inst(f"r{r}.skolem{k}", "skolem", g.system,
                         _expect_horizon(functools.partial(g.first_zero, FORWARD_STEPS))))
    # vector reachability with one unipotent shear, y = A^n x: horizon n + 1
    for k, n in enumerate((2, 4, 8)):
        a = _shear(rng)
        x = vec(rng.choice((-1, 1)) * rng.randint(1, 2), rng.choice((-1, 1)) * rng.randint(1, 2))
        inst = VectorReachInstance((a,), x, a.power(n).matvec(x))
        out.append(_inst(f"r{r}.vecreach1_{k}", "vecreach", vector_reach_to_lti(inst).system,
                         _expect_horizon(functools.partial(_min_schedule_horizon, inst,
                                                           FORWARD_STEPS))))
    # two shears: the 8-D, 4-component lift
    a1 = _shear(rng)
    a2 = a1.transpose()
    x = vec(rng.randint(1, 2), rng.randint(1, 2))
    inst = VectorReachInstance((a1, a2), x, a2.matvec(a1.matvec(x)))
    out.append(_inst(f"r{r}.vecreach2", "vecreach", vector_reach_to_lti(inst).system,
                     _expect_horizon(functools.partial(_min_schedule_horizon, inst,
                                                       FORWARD_STEPS))))
    # matrix powering through the d^2 lift; the lift keeps the solution set,
    # so the 2x2 identity is the oracle
    a = _shear(rng)
    p = PoweringInstance((a,), a.power(2))
    out.append(_inst(f"r{r}.powering", "powering",
                     vector_reach_to_lti(powering_to_vector_reach(p)).system,
                     _expect_horizon(functools.partial(_min_schedule_horizon, p, FORWARD_STEPS))))
    return out


# ---------------------------------------------------------------------------
# algebraic_2d: quadratic-irrational spectra, separators of degree 2
# ---------------------------------------------------------------------------

HEX_U = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
SQUARE_U = ((1, 1), (-1, 1), (1, -1), (-1, -1))
# A = [[1/2, 1/n], [1, 1/2]] with n > 4 not a square: eigenvalues 1/2 +- 1/sqrt(n),
# both in (0, 1) and irrational.  Round r uses the r-th n of this cycle, so a
# run of four rounds always decides the same four spectra; the seed picks a
# mirror image of the system and the interior targets.
OFF_DIAGONAL_N = (8, 12, 15, 20)


def _algebraic_round(rng: random.Random, r: int) -> list[Instance]:
    """Boundary, outside and interior targets under hex and square controls.
    Sorted by cost, the two outside targets sit below the square pair and
    the hex pair above it, so the decide median falls inside the square
    pair; the audit median falls among the outside certificates, between
    the cheap witness replays and the degree-2 certificates."""
    # mirror x2 -> -x2 (or not): D A D, D U, D q have the same spectrum and cost
    sign = rng.choice((1, -1))
    a = _m([[F(1, 2), F(sign, OFF_DIAGONAL_N[r % len(OFF_DIAGONAL_N)])], [sign, F(1, 2)]])
    # (I - A)^{-1} v = sum_n A^n v is the limit of always playing vertex v.
    # v = D (1, -1) maximizes a left eigenvector direction of A at every step,
    # so the point lies on the boundary of the (open) reachable set.
    boundary = (RatMatrix.identity(2) - a).inverse().matvec(vec(1, -sign))
    out = []
    for shape, verts in (("hex", HEX_U), ("square", SQUARE_U)):
        u = GenPolyhedron.polytope([vec(x, sign * y) for x, y in verts])

        def system(point, u=u):
            return LtiSystem(a, ControlSet.single(u), zero_vec(2), GenPolyhedron.point(point))

        out.append(_inst(f"r{r}.{shape}.boundary", "boundary", system(boundary), "not-reachable"))
        out.append(_inst(f"r{r}.{shape}.outside", "outside",
                         system(tuple(2 * x for x in boundary)), "not-reachable"))
        # interior: a nonzero point of U, reached by one control step
        while True:
            step = vec(F(rng.randint(-2, 2), 4), F(rng.randint(-2, 2), 4))
            if any(step) and (shape == "square" or abs(step[0] + sign * step[1]) <= 1):
                break
        out.append(_inst(f"r{r}.{shape}.interior", "interior", system(step), "reachable"))
    return out


# ---------------------------------------------------------------------------
# rational_batch: random certifiable systems with rational spectra
# ---------------------------------------------------------------------------


def _random_rational_system(rng: random.Random, d: int) -> tuple[RatMatrix, RatMatrix, tuple]:
    """A = P diag(lams) P^-1: eigenvalues k/10 in (0, 1), P a product of three
    elementary integer shears.  Returns (A, P, lams)."""
    lams = tuple(sorted(F(rng.randint(1, 9), 10) for _ in range(d)))
    p = RatMatrix.identity(d)
    for _ in range(3):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-2, 2))
        p = p @ _m(e)
    return p @ RatMatrix.diag(*lams) @ p.inverse(), p, lams


def _cross_polytope(rng: random.Random, d: int) -> GenPolyhedron:
    pts = []
    for i in range(d):
        e = [F(0)] * d
        e[i] = F(rng.randint(1, 2))
        pts.append(vec(*e))
        pts.append(vec(*[-x for x in e]))
    return GenPolyhedron.polytope(pts)


def _reached_point(rng: random.Random, a: RatMatrix, u: GenPolyhedron, horizon: int):
    """x_h for a random control sequence of midpoints of U's edges."""
    x = zero_vec(a.rows)
    for _ in range(horizon):
        while True:
            v, w = rng.sample(u.vertices, 2)
            if any(vi + wi for vi, wi in zip(v, w)):
                break
        x = tuple(ax + (vi + wi) / 2 for ax, vi, wi in zip(a.matvec(x), v, w))
    return x


def _outside_point(rng: random.Random, p: RatMatrix, lams, u: GenPolyhedron):
    """A point beyond the eigen-coordinate box that holds the reachable
    closure: with y = P^-1 x, every reachable x has
    |y_i| <= max_{v in U} |(P^-1 v)_i| / (1 - lam_i)."""
    pinv = p.inverse()
    ys = [pinv.matvec(v) for v in u.vertices]
    bounds = [max(abs(y[i]) for y in ys) / (1 - lam) for i, lam in enumerate(lams)]
    i = rng.randrange(len(lams))
    y = [F(rng.randint(-2, 2), 4) * b for b in bounds]
    y[i] = rng.choice((-1, 1)) * bounds[i] * F(rng.randint(9, 12), 8)
    return p.matvec(tuple(y))


# per round: (dimension, target kind); most artifacts are certificates, so
# the audit median stays among certificate re-verifications
RATIONAL_SLOTS = ((1, "grid"), (2, "reached1"), (2, "reached2"), (2, "outside"),
                  (2, "outside"), (2, "outside"), (2, "outside"), (2, "grid"))


def _rational_round(rng: random.Random, r: int) -> list[Instance]:
    out = []
    for k, (d, kind) in enumerate(RATIONAL_SLOTS):
        a, p, lams = _random_rational_system(rng, d)
        u = _cross_polytope(rng, d)
        if kind == "grid":
            point, oracle = vec(*[F(rng.randint(-8, 8), 2) for _ in range(d)]), "self-proof"
        elif kind == "outside":
            point, oracle = _outside_point(rng, p, lams, u), "not-reachable"
        else:
            point, oracle = _reached_point(rng, a, u, int(kind[-1])), "reachable"
        sys_ = LtiSystem(a, ControlSet.single(u), zero_vec(d), GenPolyhedron.point(point))
        out.append(_inst(f"r{r}.{kind}{k}", f"d{d}.{kind}", sys_, oracle))
    return out


WORKLOADS = {
    "forward_union": Workload(
        "forward_union",
        Budgets(max_steps=FORWARD_STEPS, max_candidates=64, max_degree=1, max_height=2,
                extremal_budget=1),
        _forward_round),
    "algebraic_2d": Workload(
        "algebraic_2d",
        Budgets(max_steps=4, max_candidates=48, max_degree=2, max_height=2, extremal_budget=1),
        _algebraic_round),
    "rational_batch": Workload(
        "rational_batch",
        Budgets(max_steps=4, max_candidates=16, max_degree=1, max_height=2, extremal_budget=2),
        _rational_round),
}


def rounds(workload: Workload, seed: int):
    """Endless stream of rounds; round r depends only on (seed, r)."""
    for r in itertools.count():
        rng = random.Random(f"{workload.name}:{seed}:{r}")
        yield workload.round_fn(rng, r)
