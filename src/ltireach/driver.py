"""The decision driver: interleaved forward search and certificate search.

`decide` is the one decision loop.  Each round runs a single forward
horizon and then a batch of CANDIDATE_BATCH separator candidates, so both
semi-procedures advance fairly under one budget, in one thread, and the
same input always gives the same verdict.  A candidate is verified as it
is drawn, and one whose prefix sums already exceed the target's minimum
(certify.fails_prefix_check) is rejected before the maximizer tournament;
every candidate reads its prefix sums from one table of control-vertex
images (certify.VertexImages), built once per decision.  The audit
verifies a certificate without that check.  A separator whose certificate
the audit's parser would refuse (instances.minpoly_within_ceiling), or
that holds an integer too long for Python to write as text, counts as not
found; a reduced system that holds one disables the certificate search.
Every positive verdict is replay-verified and every negative verdict
carries a certificate that an independent process can recheck against
the instance file (audit).

Systems that fail a structural condition (union controls, origin not
interior, spectral radius >= 1, no real-spectrum power, nonzero source,
a target with rays or lines), or whose normalization needs facet
enumeration above its dimension ceiling, degrade to forward-only search
with an explicit warning naming the reason.
"""

from __future__ import annotations

import itertools
import sys as _sys
from dataclasses import dataclass
from fractions import Fraction

from .certify import (
    AlgVec,
    PrefixSums,
    SeparatorCertificate,
    VertexImages,
    enumerate_algebraic_vectors,
    extremal_candidates,
    fails_prefix_check,
    min_over_vertices,
    recompute_sup_from_certificate,
    verify_separator,
)
from .forward import ReachWitness, StepColumns, reach_exactly, verify_witness
from .geometry import DimensionCeilingError
from .linalg import SpectralData, charpoly_primitive, spectral_decompose
from .preprocess import LtiSystem, SimpleForm, check_simple, to_simple_form


class SoundnessError(Exception):
    """The forward search produced a witness that does not replay;
    impossible unless something is broken, so fail loudly."""


class AuditHashError(Exception):
    """Artifact was produced for a different instance file."""


# separator candidates verified between two forward horizons
CANDIDATE_BATCH = 16


@dataclass(frozen=True)
class Budgets:
    max_steps: int = 32
    max_candidates: int = 4096
    max_degree: int = 4
    max_height: int = 8
    extremal_budget: int = 6  # 0: target directions only; > 0: also left eigenvectors


@dataclass(frozen=True)
class Verdict:
    kind: str  # "reachable" | "unreachable" | "unknown"
    instance_hash: str
    warnings: tuple[str, ...] = ()
    witness: ReachWitness | None = None
    certificate: SeparatorCertificate | None = None
    simple_form: SimpleForm | None = None
    exhausted: dict | None = None


class _SeenDirections:
    """Deduplication of directions up to positive scaling.

    Each direction is scaled so that its first nonzero entry has absolute
    value 1 and kept in one set: a rational direction is a tuple of
    Fractions, and a RealAlg hashes by its minimal polynomial, so only
    entries with equal minimal polynomials meet the exact equality test.
    """

    def __init__(self):
        self.seen: set[AlgVec] = set()

    def add(self, v: AlgVec) -> bool:
        """True if v is new (and records it)."""
        lead = next((x for x in v if x), None)
        if lead is None:
            return False
        lead = abs(lead)
        canon = v if lead == 1 else tuple(x / lead for x in v)
        if canon in self.seen:
            return False
        self.seen.add(canon)
        return True


def _candidate_stream(s: SpectralData, form: SimpleForm, budgets: Budgets):
    """Geometry-derived candidates first, then the generic enumeration,
    capped at max_candidates.  The one place where directions are
    deduplicated up to positive scaling, across both sources."""
    seen = _SeenDirections()
    count = 0
    chain = itertools.chain(
        extremal_candidates(s, form.q_reduced, budgets.extremal_budget),
        enumerate_algebraic_vectors(form.dim, (budgets.max_degree, budgets.max_height)),
    )
    for tau in chain:
        if count >= budgets.max_candidates:
            return
        if seen.add(tau):
            count += 1
            yield tau


def _prepare_certification(sys: LtiSystem, report):
    """(SpectralData, SimpleForm) when the certificate search applies.  The
    report's characteristic polynomial is A's, so it serves when no
    normalization step changed the matrix; otherwise the reduced matrix's
    is formed here, once."""
    form = to_simple_form(sys, report)
    a = form.a_reduced
    p = report.charpoly if a is sys.a else charpoly_primitive(a)
    return spectral_decompose(a, p), form


def _printable(rats) -> bool:
    """Whether no numerator or denominator of rats, ints or Fractions, has
    more digits than Python converts to or from text
    (sys.get_int_max_str_digits, 0 for no limit)."""
    limit = getattr(_sys, "get_int_max_str_digits", lambda: 0)()
    top = max((abs(k) for x in rats for k in (x.numerator, x.denominator)), default=0)
    # 2^(3 limit) < 10^limit, so only a longer integer needs the power of ten
    return limit == 0 or top.bit_length() <= 3 * limit or top < 10 ** limit


def _within_ceiling(cert: SeparatorCertificate) -> bool:
    """Whether the artifact of cert audits: every algebraic entry passes
    the minimal-polynomial size rule that the audit's parser applies, and
    every integer certificate_to_json writes for its entries is printable
    (the reduced system's are checked once, before the search)."""
    from .instances import minpoly_within_ceiling

    rats = list(cert.maximizer)
    for x in (*cert.tau, cert.bound, cert.sup_value, cert.min_over_q):
        if isinstance(x, Fraction):
            rats.append(x)
        elif not minpoly_within_ceiling(x.minpoly.coeffs):
            return False
        else:
            rats += (*x.minpoly.coeffs, *x.isolating_interval())
    return _printable(rats)


def decide(sys: LtiSystem, budgets: Budgets = Budgets()) -> Verdict:
    from .instances import instance_sha256

    instance_hash = instance_sha256(sys)
    report = check_simple(sys)
    reasons = report.failing_conditions()
    spectral = form = None
    if not reasons:
        try:
            spectral, form = _prepare_certification(sys, report)
        except DimensionCeilingError as exc:
            reasons.append(f"normalization needs facet enumeration: {exc}")
        else:
            vertices = form.u_reduced.vertices + form.q_reduced.vertices
            if not _printable([*form.a_reduced.entries, *(x for v in vertices for x in v)]):
                reasons.append("the reduced system has integers too long to write as text")
    certifiable = not reasons
    warnings = [] if certifiable else [
        "certificate search disabled (" + "; ".join(reasons) + "); forward search only"]
    # the vertex images A^i v do not depend on tau: one table serves every candidate
    images = VertexImages(spectral.matrix, form.u_reduced.vertices) if certifiable else None
    if certifiable and form.q_reduced.is_empty:
        zero = PrefixSums(images, tuple(Fraction(0) for _ in range(form.dim)))
        cert = verify_separator(spectral, form.u_reduced, form.q_reduced, zero)
        assert cert is not None
        return Verdict("unreachable", instance_hash, tuple(warnings),
                       certificate=cert, simple_form=form)

    candidates = _candidate_stream(spectral, form, budgets) if certifiable and form.dim > 0 else iter(())
    tried = 0
    candidates_done = not (certifiable and form.dim > 0)
    columns = StepColumns(sys)
    horizon = 0
    while horizon <= budgets.max_steps or not candidates_done:
        if horizon <= budgets.max_steps:
            witness = reach_exactly(columns, horizon)
            if witness is not None:
                if not verify_witness(sys, witness):
                    raise SoundnessError("forward search produced a non-replaying witness")
                return Verdict("reachable", instance_hash, tuple(warnings), witness=witness)
            horizon += 1
        if not candidates_done:
            # each candidate is verified as it is drawn: after its last new
            # direction a stream may take long to end (a 1-D reduced system
            # has only +1 and -1), and a certificate must not wait for that
            candidates_done = True
            for tau in itertools.islice(candidates, CANDIDATE_BATCH):
                candidates_done = False
                tried += 1
                sums = PrefixSums(images, tau)
                if fails_prefix_check(sums, min_over_vertices(form.q_reduced, tau)):
                    continue
                cert = verify_separator(spectral, form.u_reduced, form.q_reduced, sums)
                # a separator whose artifact would not audit counts as not found
                if cert is not None and _within_ceiling(cert):
                    return Verdict("unreachable", instance_hash, tuple(warnings),
                                   certificate=cert, simple_form=form)
    return Verdict("unknown", instance_hash, tuple(warnings), exhausted={
        "max_steps": budgets.max_steps,
        "candidates_tried": tried,
        "max_candidates": budgets.max_candidates,
        "enumeration": [budgets.max_degree, budgets.max_height],
    })


# ---------------------------------------------------------------------------
# out-of-process audit
# ---------------------------------------------------------------------------


def audit(sys: LtiSystem, artifact: dict) -> bool:
    """Recompute everything the artifact claims, from scratch."""
    from .instances import (
        ParseError,
        certificate_from_json,
        instance_sha256,
        reduced_system_to_json,
        witness_from_json,
    )

    if not isinstance(artifact, dict):
        raise ParseError(None, "artifact must be a JSON object")
    expected = instance_sha256(sys)
    stored = artifact.get("instance_sha256")
    if stored != expected:
        raise AuditHashError(f"artifact hash {stored} != instance hash {expected}")

    kind = artifact.get("verdict") or artifact.get("kind")
    if kind == "unknown":
        return True
    if kind in ("reachable", "witness"):
        data = artifact.get("witness", artifact)
        witness = witness_from_json(data)
        try:
            return verify_witness(sys, witness)
        except Exception:
            return False
    if kind in ("unreachable", "certificate"):
        data = artifact.get("certificate", artifact)
        cert = certificate_from_json(data)
        report = check_simple(sys)
        if report.failing_conditions():
            return False
        try:
            spectral, form = _prepare_certification(sys, report)
        except DimensionCeilingError:
            return False
        # every stored field is checked, so none carries an unverified
        # claim (render draws the hyperplane at the stored bound)
        if data.get("reduced_system") != reduced_system_to_json(form):
            return False
        if cert.bound != cert.sup_value:
            return False
        if cert.maximizer not in form.u_reduced.vertices:
            return False
        if cert.min_over_q is None:
            return form.q_reduced.is_empty
        if form.q_reduced.is_empty:
            return False
        if len(cert.tau) != form.dim:
            return False
        # the verification and the rebuild below share one table of vertex
        # images, not their prefix sums
        images = VertexImages(spectral.matrix, form.u_reduced.vertices)
        fresh = verify_separator(spectral, form.u_reduced, form.q_reduced, PrefixSums(images, cert.tau))
        if fresh is None:
            return False
        if fresh.sup_value != cert.sup_value:
            return False
        if fresh.min_over_q != cert.min_over_q:
            return False
        # an honest decider stores the maximizer its own verification picks
        # (the lexicographically smallest among ties); another vertex that ties
        # with it would rebuild the same sup and pass unnoticed
        if cert.maximizer != fresh.maximizer:
            return False
        # the rebuild below costs time linear in the threshold; an honest
        # decider stores the threshold its own verification derives, so a
        # larger (or negative) one is rejected before any work is spent
        if not 0 <= cert.threshold <= fresh.threshold:
            return False
        # independent audit path: the supremum rebuilt from the stored
        # maximizer and threshold alone must agree too
        redone = recompute_sup_from_certificate(spectral, cert, images)
        return redone == cert.sup_value
    return False
