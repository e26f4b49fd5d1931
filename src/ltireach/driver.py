"""The decision driver: interleaved forward search and certificate search.

`decide` is the one decision loop.  Each round runs a single forward
horizon and then a batch of separator candidates, so both semi-procedures
advance under one budget, in one thread, and the same input always gives
the same verdict.  The batch slow-starts (Levin's doubling schedule): 1
candidate after horizon 0, then 2, 4, 8, and CANDIDATE_BATCH after every
later horizon.  Before horizon h at most as many candidates are drawn as
under a fixed batch of CANDIDATE_BATCH, so no reachable target waits
longer for its witness, and each candidate is drawn at most
log2(CANDIDATE_BATCH) = 4 horizons later.  A candidate is verified as it
is drawn, and one whose prefix sums already exceed the target's minimum
(certify.fails_prefix_check) is rejected before the maximizer tournament;
every candidate reads its prefix sums from one table of control-vertex
images (certify.VertexImages), built once per decision.  The audit
derives the certificate for the stored direction without that check and
compares it whole with the stored one.  A separator whose certificate
the audit's parser would refuse (instances.minpoly_within_ceiling), or
that holds an integer too long for Python to write as text, counts as not
found.  Every positive verdict is replay-verified and every negative verdict
carries a certificate that an independent process can recheck against
the instance file (audit).

Systems that fail a structural condition (union controls, origin not
interior, spectral radius >= 1, no real-spectrum power, nonzero source,
a target with rays or lines), whose normalization needs facet
enumeration above its dimension ceiling, or whose reduced system holds
such an integer, degrade to forward-only search with an
explicit warning naming the reason; the audit fails a certificate for
such a system.  One function (_certification_inputs) tells both.
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


# the most separator candidates drawn between two forward horizons; the
# batch after horizon h is min(2^h, CANDIDATE_BATCH), so with 16 the k-th
# candidate is drawn at most 4 horizons after the fixed batch would draw it
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


def _certification_inputs(sys: LtiSystem):
    """Whether a certificate may be searched for or checked on sys, for
    decide and audit alike: (reasons, None) when it may not, each reason a
    phrase of decide's warning, else ([], (spectral data, reduced form,
    vertex-image table)).  The first failing step gives the reasons:
    check_simple's conditions, then the normalization and spectral
    decomposition (past the facet-enumeration ceiling), then the digit
    rule on the reduced system.  The report's characteristic polynomial
    is A's, so it serves when no normalization step changed the matrix;
    otherwise the reduced matrix's is formed here, once."""
    report = check_simple(sys)
    reasons = report.failing_conditions()
    if reasons:
        return reasons, None
    try:
        form = to_simple_form(sys, report)
        a = form.a_reduced
        spectral = spectral_decompose(a, report.charpoly if a is sys.a else charpoly_primitive(a))
    except DimensionCeilingError as exc:
        return [f"normalization needs facet enumeration: {exc}"], None
    vertices = form.u_reduced.vertices + form.q_reduced.vertices
    if not _printable([*a.entries, *(x for v in vertices for x in v)]):
        return ["the reduced system has integers too long to write as text"], None
    # the vertex images A^i v do not depend on tau: one table serves every candidate
    return [], (spectral, form, VertexImages(spectral.matrix, form.u_reduced.vertices))


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
    for x in (*cert.tau, cert.sup_value, cert.min_over_q):
        if isinstance(x, Fraction):
            rats.append(x)
        elif not minpoly_within_ceiling(x.minpoly.coeffs):
            return False
        else:
            rats += (*x.minpoly.coeffs, *x.isolating_interval())
    return _printable(rats)


def decide(sys: LtiSystem, budgets: Budgets = Budgets()) -> Verdict:
    """Decide whether sys reaches its target within budgets.

    Forward horizons 0, 1, 2, ... alternate with batches of 1, 2, 4, 8,
    then CANDIDATE_BATCH separator candidates.  Before horizon h at most
    the 16h candidates of a fixed batch of 16 are drawn, so a reachable
    target never waits longer for its witness; a candidate is drawn at
    most 4 horizons later than under that fixed batch.  The schedule
    moves no verdict byte: the witness is at the least reachable horizon,
    the certificate is the first candidate in stream order that verifies,
    and an unknown verdict has drawn every candidate."""
    from .instances import instance_sha256

    instance_hash = instance_sha256(sys)
    reasons, prepared = _certification_inputs(sys)
    warnings = () if not reasons else (
        "certificate search disabled (" + "; ".join(reasons) + "); forward search only",)
    candidates = iter(())
    if prepared is not None:
        spectral, form, images = prepared
        if form.q_reduced.is_empty:
            zero = PrefixSums(images, tuple(Fraction(0) for _ in range(form.dim)))
            cert = verify_separator(spectral, form.u_reduced, form.q_reduced, zero)
            assert cert is not None
            return Verdict("unreachable", instance_hash, warnings, certificate=cert, simple_form=form)
        if form.dim > 0:
            candidates = _candidate_stream(spectral, form, budgets)
    tried = 0
    candidates_done = False
    columns = StepColumns(sys)
    horizon = 0
    batch = 1
    while horizon <= budgets.max_steps or not candidates_done:
        if horizon <= budgets.max_steps:
            witness = reach_exactly(columns, horizon)
            if witness is not None:
                if not verify_witness(sys, witness):
                    raise SoundnessError("forward search produced a non-replaying witness")
                return Verdict("reachable", instance_hash, warnings, witness=witness)
            horizon += 1
        if not candidates_done:
            # each candidate is verified as it is drawn: after its last new
            # direction a stream may take long to end (a 1-D reduced system
            # has only +1 and -1), and a certificate must not wait for that
            candidates_done = True
            for tau in itertools.islice(candidates, batch):
                candidates_done = False
                tried += 1
                sums = PrefixSums(images, tau)
                if fails_prefix_check(sums, min_over_vertices(form.q_reduced, tau)):
                    continue
                cert = verify_separator(spectral, form.u_reduced, form.q_reduced, sums)
                # a separator whose artifact would not audit counts as not found
                if cert is not None and _within_ceiling(cert):
                    return Verdict("unreachable", instance_hash, warnings,
                                   certificate=cert, simple_form=form)
            batch = min(2 * batch, CANDIDATE_BATCH)
    return Verdict("unknown", instance_hash, warnings, exhausted={
        "max_steps": budgets.max_steps,
        "candidates_tried": tried,
        "max_candidates": budgets.max_candidates,
        "enumeration": [budgets.max_degree, budgets.max_height],
    })


# ---------------------------------------------------------------------------
# out-of-process audit
# ---------------------------------------------------------------------------


def read_artifact(sys: LtiSystem, artifact: dict):
    """The artifact's claim (instances.verdict_from_json), once its
    instance hash is that of sys; AuditHashError otherwise."""
    from .instances import instance_sha256, verdict_from_json

    claim = verdict_from_json(artifact)
    expected = instance_sha256(sys)
    if claim.instance_sha256 != expected:
        raise AuditHashError(f"artifact hash {claim.instance_sha256} != instance hash {expected}")
    return claim


def audit(sys: LtiSystem, artifact: dict) -> bool:
    """Recompute everything the artifact claims, from scratch.  Its reader
    refuses any key not checked here; an unknown verdict claims nothing.
    A certificate stands when it is the one decide would write for its
    direction: the audit derives the reduced system and the certificate
    for the stored tau afresh and compares each whole, so any field that
    differs, the threshold included, fails it."""
    from .instances import reduced_system_to_json

    claim = read_artifact(sys, artifact)
    if claim.verdict == "unknown":
        return True
    if claim.verdict == "reachable":
        try:
            return verify_witness(sys, claim.witness)
        except Exception:
            return False
    reasons, prepared = _certification_inputs(sys)
    if reasons:
        return False
    spectral, form, images = prepared
    if claim.reduced_system != reduced_system_to_json(form):
        return False
    cert = claim.certificate
    # the direction is untrusted input: a short one would zip silently
    if len(cert.tau) != form.dim:
        return False
    sums = PrefixSums(images, cert.tau)
    return verify_separator(spectral, form.u_reduced, form.q_reduced, sums) == cert
