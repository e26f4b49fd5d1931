"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none are calibrated elsewhere.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction


from ltireach import driver, instances
from ltireach.certify import (
    SeqKind,
    fails_prefix_check,
    min_over_vertices,
    sup_in_direction,
    verify_separator,
)
from ltireach.forward import reach_within, replay, verify_witness
from ltireach.gadgets import markov_to_lti, skolem_to_lti, vector_reach_to_lti, VectorReachInstance
from ltireach.geometry import ControlSet, GenPolyhedron, constraint, lp_solve
from ltireach.linalg import (
    RatMatrix,
    vec,
    zero_vec,
)
from ltireach.preprocess import LtiSystem, check_simple, to_simple_form
from oracles import (classify, decompose, dominant_index, expansion_values, inner_product_at, prefix_sums, rat,
                     reduced_witness_lifts, sign)

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])
DIAG_S = decompose(DIAG_A)
ROT90_HALF = RatMatrix.from_rows([[0, F(-1, 2)], [F(1, 2), 0]])
ROT_IRRATIONAL = RatMatrix.from_rows([[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]])


def report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion failed: {criterion}"


def quad_system(target):
    return LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(0, 0), target)


def forward_sum_max(a, u, tau, n):
    """LP maximum of <tau, .> over the n-step forward input sums."""
    verts = list(u.vertices)
    nv = len(verts)
    cons = []
    obj = []
    for step in range(n + 1):
        row = [0] * ((n + 1) * nv)
        for j in range(nv):
            row[step * nv + j] = 1
        cons.append(constraint(row, "==", 1))
    for step in range(n + 1):
        ap = a.power(step)
        for v in verts:
            obj.append(sum(t * x for t, x in zip(tau, ap.matvec(v))))
    res = lp_solve(obj, cons, (n + 1) * nv, nonneg=[True] * ((n + 1) * nv))
    assert res.status == "optimal"
    return res.value


def random_positive_system(rng, d, allow_jordan=True):
    lams = sorted(F(rng.randint(1, 9), 10) for _ in range(d))
    rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
    if allow_jordan:
        for i in range(d - 1):
            if lams[i] == lams[i + 1] and rng.random() < 0.5:
                rows[i][i + 1] = F(1)
    core = RatMatrix.from_rows(rows)
    p = RatMatrix.identity(d)
    for _ in range(3):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-2, 2))
        p = p @ RatMatrix.from_rows(e)
    return p @ core @ p.inverse()


def random_control_polytope(rng, d):
    pts = []
    for i in range(d):
        e = [F(0)] * d
        e[i] = F(rng.randint(1, 2))
        pts.append(vec(*e))
        pts.append(vec(*[-x for x in e]))
    return GenPolyhedron.polytope(pts)


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------


def test_criterion_1_quad_reproduction():
    t0 = time.monotonic()
    e1 = (F(1), F(0))
    e2 = (F(0), F(1))
    sup_x = sup_in_direction(DIAG_S, QUAD_U, e1)
    sup_y = sup_in_direction(DIAG_S, QUAD_U, e2)
    assert rat(sup_x) == 3  # tolerance 0
    assert rat(sup_y) == 3
    for tau in ((1, 0), (0, 1)):
        prev = None
        final = None
        for n in range(17):
            m = forward_sum_max(DIAG_A, QUAD_U, tau, n)
            assert m < 3  # strictly below the supremum
            if prev is not None:
                assert m >= prev  # nondecreasing
            prev = m
            final = m
        if tau == (1, 0):
            assert 3 - final < F(1, 1000)  # within 1e-3 by n = 16
        else:
            # slower direction: the gap is exactly 3 (2/3)^(n+1)
            assert 3 - final == 3 * F(2, 3) ** 17
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    report("1 (quadrilateral suprema and partial-sum maxima)", True)


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------


def test_criterion_2_boundary_certification():
    t0 = time.monotonic()
    boundary = driver.decide(quad_system(GenPolyhedron.point(vec(0, 3))),
                             driver.Budgets(max_steps=8, max_candidates=256))
    assert boundary.kind == "unreachable"
    assert rat(boundary.certificate.sup_value) == 3
    assert rat(boundary.certificate.min_over_q) == 3
    inner = driver.decide(quad_system(GenPolyhedron.point(vec(1, 1))),
                          driver.Budgets(max_steps=8, max_candidates=256))
    assert inner.kind == "reachable"
    sys_ = quad_system(GenPolyhedron.point(vec(1, 1)))
    assert verify_witness(sys_, inner.witness)
    assert replay(sys_, inner.witness) == (F(1), F(1))
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"
    report("2 (boundary target certified, interior target witnessed)", True)


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------


def test_criterion_3_bilinear_identity_suite():
    rng = random.Random(2024)
    failures = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        a = random_positive_system(rng, d)
        s = decompose(a)
        u = vec(*[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)])
        tau = vec(*[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)])
        coeffs = expansion_values(s, tau, u)
        ns = {0, 1, 2, 3, 30, rng.randint(4, 29), rng.randint(4, 29)}
        for n in ns:
            direct = sum(x * y for x, y in zip(a.power(n).matvec(u), tau))
            got = inner_product_at(s, coeffs, n)
            if sign(got - direct) != 0:
                failures += 1
    assert failures == 0
    report("3 (bilinear identity, 200 randomized systems, zero failures)", True)


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------


def test_criterion_4_reduction_soundness_suite():
    # pinned sub-case first: the quarter-turn contraction
    m_sys = LtiSystem(ROT90_HALF, ControlSet.single(
        GenPolyhedron.polytope([vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)])),
        vec(0, 0), GenPolyhedron.point(vec(1, 1)))
    rep = check_simple(m_sys)
    assert rep.real_power == 4
    assert ROT90_HALF.power(4) == RatMatrix.diag(*[F(1, 16)] * 2)

    rng = random.Random(4242)
    lifted_total = 0
    checked = 0
    trials = 0
    while checked < 100 and trials < 400:
        trials += 1
        d = rng.randint(1, 3)
        kind = rng.random()
        if kind < 0.15:
            a = ROT90_HALF if d == 2 else random_positive_system(rng, d, allow_jordan=False)
        elif kind < 0.3:
            rows = [[F(0) if i == j == 0 else (F(rng.randint(1, 8), 10) if i == j else F(0))
                     for j in range(d)] for i in range(d)]
            a = RatMatrix.from_rows(rows)  # singular: a zero eigenvalue
        else:
            a = random_positive_system(rng, d)
        u = random_control_polytope(rng, d)
        q = GenPolyhedron.point(vec(*[F(rng.randint(-3, 3), 2) for _ in range(d)]))
        sys_ = LtiSystem(a, ControlSet.single(u), zero_vec(d), q)
        simple = check_simple(sys_)
        if simple.failing_conditions():
            continue
        form = to_simple_form(sys_, simple)
        red = LtiSystem(form.a_reduced, ControlSet.single(form.u_reduced),
                        zero_vec(form.dim), form.q_reduced)
        m = form.power
        budget = 6
        w_orig = reach_within(sys_, budget)
        red_budget = (budget + m - 1) // m
        w_red = reach_within(red, red_budget) if not form.q_reduced.is_empty else None
        if form.q_reduced.is_empty:
            assert w_orig is None  # soundness: empty reduced target
        if w_orig is not None:
            assert w_red is not None  # reachability invariant under reduction
        if w_red is not None:
            lifted_total += 1
            # the original system reaches its target at exactly M n
            assert reduced_witness_lifts(sys_, form, w_red)
        checked += 1
    assert checked == 100
    assert lifted_total >= 30  # every one of them lifted (asserted above)
    report("4 (reduction soundness on 100 systems; quarter-turn M = 4)", True)


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------


def test_criterion_5_gadget_corpus():
    t0 = time.monotonic()

    g = markov_to_lti(RatMatrix.from_rows([[0, 1], [1, 0]]))
    assert g.m.power(1).get(0, 1) >= F(1, 2)  # oracle: brute-force powers
    w = reach_within(g.system, 3)
    assert w is not None and w.horizon == 1 and verify_witness(g.system, w)

    g = markov_to_lti(RatMatrix.from_rows([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]))
    assert g.m.power(1).get(0, 1) >= F(1, 2)
    w = reach_within(g.system, 3)
    assert w is not None and w.horizon == 1 and verify_witness(g.system, w)

    g = skolem_to_lti(RatMatrix.from_rows([[0, 1], [-1, 0]]))
    assert g.m.power(2).get(0, 1) == 0
    w = reach_within(g.system, 4)
    assert w is not None and w.horizon == 2 and verify_witness(g.system, w)

    g = skolem_to_lti(RatMatrix.from_rows([[2, 1], [0, 2]]))
    for n in range(1, 21):
        assert g.m.power(n).get(0, 1) != 0  # oracle: powers never vanish
    assert reach_within(g.system, 20) is None

    a1 = RatMatrix.from_rows([[1, 1], [0, 1]])
    inst = VectorReachInstance((a1,), vec(0, 1), vec(2, 1))
    assert a1.power(2).matvec(vec(0, 1)) == (F(2), F(1))  # oracle
    lifted = vector_reach_to_lti(inst)
    ts, witness = lifted.schedule_witness([2])
    assert ts == [0, 2]
    assert verify_witness(lifted.system, witness)

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 5 took {elapsed:.1f}s"
    report("5 (gadget corpus with brute-force power oracles)", True)


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------


def test_criterion_6_classification_suite():
    rng = random.Random(606)
    systems = []
    for _ in range(40):
        d = rng.randint(1, 3)
        a = random_positive_system(rng, d)
        systems.append((a, decompose(a)))
    failures = 0
    draws = 0
    least_checked = 0
    while draws < 500:
        a, s = systems[rng.randrange(len(systems))]
        d = a.rows
        v = vec(*[F(rng.randint(-4, 4)) for _ in range(d)])
        w = vec(*[F(rng.randint(-4, 4)) for _ in range(d)])
        tau_r = [F(rng.randint(-4, 4)) for _ in range(d)]
        tau = tuple(tau_r)
        c = classify(s, v, w, tau)
        diff = tuple(x - y for x, y in zip(v, w))
        n_hi = (c.threshold or 0) + 20
        values = [sum(t * x for t, x in zip(tau_r, a.power(n).matvec(diff)))
                  for n in range(n_hi + 1)]
        if c.kind is SeqKind.IDENTICALLY_ZERO:
            ok = all(x == 0 for x in values)
        elif c.kind is SeqKind.ULTIMATELY_POSITIVE:
            ok = all(x > 0 for x in values[c.threshold:])
        else:
            ok = all(x < 0 for x in values[c.threshold:])
        if ok and c.kind is not SeqKind.IDENTICALLY_ZERO:
            coeffs = expansion_values(s, tau, diff)
            i0, j0 = dominant_index(coeffs)
            from math import comb

            def dominates(n):
                """The tail-domination inequality at n, evaluated exactly."""
                lhs = abs(coeffs[i0][j0]) * comb(n, j0) * s.eigenvalues[i0] ** n
                rhs = F(0)
                for i, row in enumerate(coeffs):
                    for j, cc in enumerate(row):
                        if (i, j) == (i0, j0):
                            continue
                        if sign(cc) != 0:
                            rhs = rhs + abs(cc) * comb(n, j) * s.eigenvalues[i] ** n
                return sign(lhs - rhs) > 0

            # it holds at N, N+1, N+7, and N is the least such threshold:
            # it fails at N-1
            if not all(dominates(n) for n in (c.threshold, c.threshold + 1, c.threshold + 7)):
                ok = False
            if c.threshold > 0:
                least_checked += 1
                if dominates(c.threshold - 1):
                    ok = False
        if not ok:
            failures += 1
        draws += 1
    assert draws == 500 and failures == 0
    assert least_checked > 100  # 227 of the 500 draws have N > 0
    report("6 (classification matches direct evaluation, 500 draws)", True)


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------


def _corpus_systems(rng):
    yield quad_system(GenPolyhedron.point(vec(1, 1)))
    yield quad_system(GenPolyhedron.point(vec(0, 3)))
    yield quad_system(GenPolyhedron.polytope(
        [vec(F(7, 2), F(-1, 2)), vec(F(9, 2), F(-1, 2)), vec(F(9, 2), F(1, 2)), vec(F(7, 2), F(1, 2))]))
    yield markov_to_lti(RatMatrix.from_rows([[0, 1], [1, 0]])).system
    yield markov_to_lti(RatMatrix.identity(2)).system
    yield skolem_to_lti(RatMatrix.from_rows([[0, 1], [-1, 0]])).system
    a1 = RatMatrix.from_rows([[1, 1], [0, 1]])
    yield vector_reach_to_lti(VectorReachInstance((a1,), vec(0, 1), vec(2, 1))).system


def test_criterion_7_mutual_exclusion_and_audits(tmp_path):
    rng = random.Random(707)
    verdicts: dict[str, set] = {}
    artifacts = []

    def run(sys_, budgets):
        v = driver.decide(sys_, budgets)
        kinds = verdicts.setdefault(v.instance_hash, set())
        if v.kind in ("reachable", "unreachable"):
            kinds.add(v.kind)
            assert kinds != {"reachable", "unreachable"}, "mutual exclusion violated"
            idx = len(artifacts)
            ipath = tmp_path / f"i{idx}.lti"
            apath = tmp_path / f"a{idx}.json"
            ipath.write_text(instances.emit_instance(sys_))
            apath.write_text(instances.dump_json(instances.verdict_to_json(v)))
            artifacts.append((str(ipath), str(apath)))

    def random_budgets():
        budgets = driver.Budgets(
            max_steps=rng.randint(2, 5),
            max_candidates=rng.choice([8, 16, 24]),
            max_degree=1,
            max_height=2,
            extremal_budget=rng.randint(1, 3),
        )
        # this draw once chose a worker count; it is kept and discarded so
        # the seeded corpus stays the same, instance for instance
        rng.choice([1, 2])
        return budgets

    for sys_ in _corpus_systems(rng):
        run(sys_, random_budgets())
        run(sys_, random_budgets())

    count = 0
    while count < 500:
        d = rng.randint(1, 2)
        a = random_positive_system(rng, d, allow_jordan=False)
        u = random_control_polytope(rng, d)
        q = GenPolyhedron.point(vec(*[F(rng.randint(-8, 8), 2) for _ in range(d)]))
        sys_ = LtiSystem(a, ControlSet.single(u), zero_vec(d), q)
        run(sys_, random_budgets())
        if count % 3 == 0:
            run(sys_, random_budgets())
        count += 1

    assert all(kinds != {"reachable", "unreachable"} for kinds in verdicts.values())
    assert len(artifacts) >= 300

    # every emitted artifact passes the audit command in a fresh process
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
    pairs_file = tmp_path / "pairs.txt"
    pairs_file.write_text("\n".join(f"{i}\t{a}" for i, a in artifacts))
    script = (
        "import sys\n"
        "from ltireach.cli import main\n"
        "bad = 0\n"
        "for line in open(sys.argv[1]):\n"
        "    inst, art = line.rstrip('\\n').split('\\t')\n"
        "    code = main(['audit', inst, art])\n"
        "    if code != 0:\n"
        "        bad += 1\n"
        "        print('FAILED', inst, art)\n"
        "sys.exit(3 if bad else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(pairs_file)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report("7 (mutual exclusion + out-of-process audits)", True)


def test_prefix_check_rejects_only_failing_directions():
    # verify_separator is the oracle: over the candidate streams of the seeded
    # corpus, a rejected direction never separates, and no certificate fails
    rng = random.Random(717)
    systems = list(_corpus_systems(rng))
    hexagon = GenPolyhedron.polytope([vec(-1, -1), vec(0, -1), vec(1, 0), vec(1, 1),
                                      vec(0, 1), vec(-1, 0)])
    quad_irr = RatMatrix.from_rows([[F(1, 2), F(-1, 8)], [-1, F(1, 2)]])
    for target in (vec(3, -4), vec(F(3, 2), 2), vec(4, 4)):
        systems.append(LtiSystem(quad_irr, ControlSet.single(hexagon), vec(0, 0),
                                 GenPolyhedron.point(target)))
    for _ in range(60):
        d = rng.randint(1, 2)
        a = random_positive_system(rng, d, allow_jordan=False)
        u = random_control_polytope(rng, d)
        q = GenPolyhedron.point(vec(*[F(rng.randint(-8, 8), 2) for _ in range(d)]))
        systems.append(LtiSystem(a, ControlSet.single(u), zero_vec(d), q))
    budgets = driver.Budgets(max_candidates=16, max_degree=1, max_height=2, extremal_budget=2)
    rejected = certified = 0
    for sys_ in systems:
        reasons, prepared = driver._certification_inputs(sys_)
        if reasons:
            continue
        s, form, _ = prepared
        if form.dim == 0 or form.q_reduced.is_empty:
            continue
        for tau in driver._candidate_stream(s, form, budgets):
            sums = prefix_sums(s, form.u_reduced, tau)
            cert = verify_separator(s, form.u_reduced, form.q_reduced, sums)
            low = min_over_vertices(form.q_reduced, tau)
            if fails_prefix_check(sums, low):
                assert cert is None
                rejected += 1
            elif cert is not None:
                certified += 1
    assert rejected >= 400 and certified >= 50


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------


def test_criterion_8_non_simple_handling():
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys_ = LtiSystem(ROT_IRRATIONAL, ControlSet.single(seg), vec(0, 0),
                     GenPolyhedron.point(vec(2, 2)))
    rep = check_simple(sys_)
    assert rep.real_power is None
    assert rep.failing_conditions()
    v = driver.decide(sys_, driver.Budgets(max_steps=4, max_candidates=16))
    assert v.kind == "unknown"
    assert any("forward search only" in w for w in v.warnings)
    assert any("real spectrum" in w for w in v.warnings)
    report("8 (irrational rotation rejected; forward-only with warning)", True)
