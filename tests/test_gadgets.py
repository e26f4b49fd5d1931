import random
from fractions import Fraction

import pytest

from ltireach.forward import reach_within, verify_witness
from ltireach.gadgets import (
    PoweringInstance,
    VectorReachInstance,
    conjoin,
    gadget_add,
    gadget_constant,
    gadget_mul,
    markov_to_lti,
    powering_to_vector_reach,
    skolem_to_lti,
    vector_reach_to_lti,
)
from ltireach.geometry import GenPolyhedron
from ltireach.linalg import RatMatrix, vec

F = Fraction


def mat(rows):
    return RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# arithmetic fragments
# ---------------------------------------------------------------------------


def test_constant_gadget():
    frag = gadget_constant(3)
    assert frag.instance.matrices[0].power(3) == frag.instance.target
    for z in range(-3, 4):
        assert frag.identity_holds({"z": z}) == frag.relation_holds({"z": z})


def test_add_gadget():
    frag = gadget_add()
    assert frag.identity_holds({"x": 2, "y": 3, "z": 5})
    rng = random.Random(3)
    for _ in range(25):
        a = {"x": rng.randint(-4, 4), "y": rng.randint(-4, 4), "z": rng.randint(-8, 8)}
        assert frag.identity_holds(a) == frag.relation_holds(a)


def test_mul_gadget():
    frag = gadget_mul()
    ok = {"x": 2, "y": 3, "z": 6, "xp": 2, "yp": 3}
    assert frag.identity_holds(ok) and frag.relation_holds(ok)
    rng = random.Random(5)
    for _ in range(40):
        a = {v: rng.randint(-3, 3) for v in frag.variables}
        assert frag.identity_holds(a) == frag.relation_holds(a)


def test_conjoin_block_structure():
    f1, f2 = gadget_constant(2), gadget_constant(-1)
    single = conjoin([f1.instance])
    assert single is f1.instance
    joint = conjoin([f1.instance, f2.instance])
    assert joint.dim == 4
    # solution set of the conjunction = intersection (exhaustive |n| <= 3)
    for n in range(-3, 4):
        if n == 0:
            continue
        both = f1.instance.holds_at([n]) and f2.instance.holds_at([n])
        assert joint.holds_at([n]) == both


def test_conjoin_padding_preserves_solutions():
    f_add = gadget_add()  # 3 factors
    f_const = gadget_constant(1)  # 1 factor -> padded with identities
    joint = conjoin([f_add.instance, f_const.instance])
    assert len(joint.matrices) == 3
    rng = random.Random(11)
    for _ in range(30):
        ns = [rng.randint(-3, 3) for _ in range(3)]
        expected = f_add.instance.holds_at(ns) and f_const.instance.holds_at(ns[:1])
        assert joint.holds_at(ns) == expected


# ---------------------------------------------------------------------------
# powering -> vector reachability
# ---------------------------------------------------------------------------


def test_powering_to_vector_reach_square():
    a1 = mat([[1, 1], [0, 1]])
    inst = PoweringInstance((a1,), a1.power(2))
    v = powering_to_vector_reach(inst)
    assert v.dim == 4
    assert v.holds_at([2])
    assert not v.holds_at([1])
    assert not v.holds_at([3])


def test_powering_to_vector_reach_one_step():
    a1 = mat([[1, 1], [0, 1]])
    inst = PoweringInstance((a1,), a1)
    v = powering_to_vector_reach(inst)
    assert v.holds_at([1])


def test_vector_reach_rejects_mismatch():
    with pytest.raises(ValueError):
        VectorReachInstance((mat([[1, 1], [0, 1]]),), vec(1, 0, 0), vec(0, 1))


# ---------------------------------------------------------------------------
# vector reachability -> LTI
# ---------------------------------------------------------------------------


def test_vecreach_lti_positive_instance():
    a1 = mat([[1, 1], [0, 1]])
    inst = VectorReachInstance((a1,), vec(0, 1), vec(2, 1))
    lifted = vector_reach_to_lti(inst)
    assert lifted.system.dim == 5
    ts, witness = lifted.schedule_witness([2])
    assert ts == [0, 2]
    assert witness.horizon == 3
    assert verify_witness(lifted.system, witness)
    # oracle: A1^2 x = (2,1) by direct multiplication
    assert a1.power(2).matvec(vec(0, 1)) == (F(2), F(1))
    # forward search finds a witness at the schedule horizon on its own
    found = reach_within(lifted.system, witness.horizon)
    assert found is not None
    assert verify_witness(lifted.system, found)


def test_vecreach_lti_negative_instance():
    a1 = mat([[1, 1], [0, 1]])
    inst = VectorReachInstance((a1,), vec(0, 1), vec(0, 2))
    lifted = vector_reach_to_lti(inst)
    # oracle: the orbit A1^n (0,1) = (n, 1) never hits (0, 2)
    for n in range(-6, 7):
        if n != 0:
            assert not inst.holds_at([n])
    assert reach_within(lifted.system, 5) is None


def test_mapper_rejects_zero_exponents():
    a1 = mat([[1, 1], [0, 1]])
    lifted = vector_reach_to_lti(VectorReachInstance((a1,), vec(0, 1), vec(2, 1)))
    with pytest.raises(ValueError):
        lifted.schedule_witness([0])


def test_step_times_randomized():
    a1 = mat([[1, 1], [0, 1]])
    a2 = mat([[1, 0], [1, 1]])
    lifted = vector_reach_to_lti(VectorReachInstance((a1, a2), vec(0, 1), vec(1, 1)))
    rng = random.Random(7)
    for _ in range(50):
        ns = [rng.choice([n for n in range(-5, 6) if n != 0]) for _ in range(2)]
        ts = lifted.step_times(ns)
        assert all(t >= 0 for t in ts)
        assert [ts[i + 1] - ts[i] for i in range(2)] == ns


def test_vecreach_two_factor_schedule():
    a1 = mat([[1, 1], [0, 1]])
    a2 = mat([[1, 0], [1, 1]])
    x = vec(0, 1)
    y = a2.power(2).matvec(a1.power(-1).matvec(x))
    inst = VectorReachInstance((a1, a2), x, y)
    assert inst.holds_at([-1, 2])
    lifted = vector_reach_to_lti(inst)
    ts, witness = lifted.schedule_witness([-1, 2])
    assert [ts[i + 1] - ts[i] for i in range(2)] == [-1, 2]
    assert verify_witness(lifted.system, witness)


def test_vecreach_unschedulable_suffix():
    from ltireach.gadgets import UnschedulableSolutionError

    a1 = mat([[1, 1], [0, 1]])
    a2 = mat([[1, 0], [1, 1]])
    x = vec(1, 0)  # fixed point of a1, so only n2 = -1 can work
    y = a2.power(-1).matvec(x)
    inst = VectorReachInstance((a1, a2), x, y)
    assert inst.holds_at([5, -1])
    lifted = vector_reach_to_lti(inst)
    with pytest.raises(UnschedulableSolutionError):
        lifted.schedule_witness([5, -1])
    # and the lifted system honestly cannot reach the target: the last
    # atomic control fixes a nonnegative exponent on the final block
    assert reach_within(lifted.system, 4) is None


# ---------------------------------------------------------------------------
# zero-test family
# ---------------------------------------------------------------------------


def test_skolem_rotation_reachable_at_two():
    g = skolem_to_lti(mat([[0, 1], [-1, 0]]))
    # oracle: M^2 = -I has entry (1,2) equal to zero
    assert g.first_zero(10) == 2
    w = reach_within(g.system, 4)
    assert w is not None and w.horizon == 2
    assert verify_witness(g.system, w)


def test_skolem_shear_zero_conventions():
    g = skolem_to_lti(mat([[1, 1], [0, 1]]))
    # (M^n)_{1,2} = n: zero only at n = 0, so the two conventions differ
    assert g.first_zero(10, min_power=0) == 0
    assert g.first_zero(10, min_power=1) is None
    # the control structure needs at least one step, so the system is
    # unreachable at every horizon
    assert reach_within(g.system, 6) is None


def test_skolem_jordan2_unreachable():
    g = skolem_to_lti(mat([[2, 1], [0, 2]]))
    # oracle: (M^n)_{1,2} = n 2^(n-1), nonzero for n >= 1
    for n in range(1, 21):
        assert g.m.power(n).get(0, 1) == n * F(2) ** (n - 1)
    assert reach_within(g.system, 12) is None


# ---------------------------------------------------------------------------
# threshold family
# ---------------------------------------------------------------------------


def test_markov_swap_reachable_horizon_one():
    g = markov_to_lti(mat([[0, 1], [1, 0]]))
    assert g.hits_threshold(1)
    w = reach_within(g.system, 3)
    assert w is not None and w.horizon == 1
    assert verify_witness(g.system, w)


def test_markov_identity_unreachable():
    g = markov_to_lti(RatMatrix.identity(2))
    for n in range(0, 9):
        assert not g.hits_threshold(n)  # (I^n)_{1,2} = 0 for every n
    assert reach_within(g.system, 6) is None


def test_markov_uniform_reachable():
    g = markov_to_lti(mat([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]))
    assert g.first_hit(5) == 1
    w = reach_within(g.system, 3)
    assert w is not None and w.horizon == 1
    assert verify_witness(g.system, w)


def test_markov_rejects_non_stochastic():
    with pytest.raises(ValueError):
        markov_to_lti(mat([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        markov_to_lti(mat([[F(1, 2), 0], [F(1, 2), F(9, 10)]]))


def test_markov_control_polytope_contains_needed_control():
    m = mat([[0, 1], [1, 0]])
    g = markov_to_lti(m)
    u = g.system.controls.components[0]
    from ltireach.geometry import contains_point

    needed = tuple([-x for x in m.matvec(vec(0, 1))] + [F(1, 2), F(1), F(1)])
    assert contains_point(u, needed)
    assert contains_point(u, vec(0, 0, 0, 0, 0))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_markov_controls_are_the_vertices_of_their_half_spaces(d):
    """The closed-form control vertices are those that vertex enumeration
    finds for the half-space description, x >= 0, 0 <= y <= x_1,
    sum x = z <= 1 and the two z copies equal, in the same order, so the
    emitted instance text does not move."""
    from ltireach.geometry import canonical, vertices_from_h_rep
    from ltireach.linalg import unit_vec

    dim = d + 3
    ineqs = [(unit_vec(dim, i), F(0)) for i in range(d)]
    ineqs.append((tuple(-x for x in unit_vec(dim, d)), F(0)))
    ineqs.append((tuple(F(int(j in (0, d))) for j in range(dim)), F(0)))
    ineqs.append((unit_vec(dim, d + 1), F(1)))
    eqs = [(tuple(F(1 if j == d + 1 else -1 if j == d + 2 else 0) for j in range(dim)), F(0)),
           (tuple([F(1)] * d + [F(0), F(1), F(0)]), F(0))]
    want = canonical(GenPolyhedron(dim, tuple(vertices_from_h_rep(ineqs, eqs, dim))))
    for m in (RatMatrix.identity(d), mat([[F(1, d)] * d for _ in range(d)])):
        assert markov_to_lti(m).system.controls.components[0] == want
