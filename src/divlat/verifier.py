"""End-to-end checking of the zero/invertible split, semisimplicity,
finite-order, and coprime-root conclusions for a single problem instance.

The verdict taxonomy keeps proof and evidence apart.  Finitely many verified
root witnesses can never establish divisibility for an infinite exponent
set, so a failing conclusion normally yields INCONCLUSIVE.  The
COUNTEREXAMPLE-CANDIDATE verdict is reserved for states the verified
evidence already excludes; reaching it means a bug in this artifact, and the
test suite treats any occurrence as fatal.
"""
from __future__ import annotations

from collections import namedtuple

from ._record import Record
from .classify import _Invariants
from .divisibility import _coprime_exponents, _coprime_roots, _scan
from .exactalg import IntMatrix, QMatrix
from .numberring import IntegerRing, QuadraticOrder, lchar, mult_hypothesis
from .primes import prime_factors
from .supernat import PrimeSet, SDescriptor, additive_hypothesis, pi_S


# Report records: serialize writes each as the dict of its fields, so a
# field's name is its JSON key.


class WitnessCheck(Record):
    s: int
    valid: bool
    reason: str
    in_exponent_set: bool | None


class HypothesisChecks(Record):
    witnesses: tuple[WitnessCheck, ...]
    all_witnesses_valid: bool
    additive_ok: bool | None
    mult_ok: bool | None
    mult_trace: str | None
    s_symbolic_infinite: bool | None


class Clause1(Record):
    clean_split: bool
    reason: str
    forced_by_witnesses: bool


class Clause2(Record):
    semisimple: bool


class Clause3(Record):
    finite_order: int | None
    pi_s: PrimeSet | None
    order_coprime_to_pi_s: bool | None

    @property
    def holds(self) -> bool:
        return self.finite_order is not None and self.order_coprime_to_pi_s is not False


ConstructedRoot = namedtuple("ConstructedRoot", "n root")
ConstructedRoot.__doc__ = "A root X with X^n = T; it unpacks as the witness pair (s, X)."


class Clause4(Record):
    constructed_roots: tuple[ConstructedRoot, ...]
    applicable: bool


class TheoremReport(Record):
    hypothesis_checks: HypothesisChecks
    clause1: Clause1
    clause2: Clause2
    clause3: Clause3
    clause4: Clause4
    verdict: str
    reason: str
    notes: tuple[str, ...]


def _check_witness(inv: _Invariants, S, s, X) -> WitnessCheck:
    """The check of one witness (s, X) of the analysis of T; X^s = T is
    decided by the root search's own test, _scan."""
    T, module = inv.T, inv.module
    in_set = S.contains(s) if S is not None else None
    if s < 2:
        return WitnessCheck(s, False, "exponent below 2", in_set)
    if isinstance(X, QMatrix):
        if not X.is_integral():
            return WitnessCheck(s, False, "witness not integral", in_set)
        X = X.to_int_matrix()
    if X.rows != T.rows or X.cols != T.cols:
        return WitnessCheck(s, False, "witness shape mismatch", in_set)
    if module is not None and not module.endomorphism_ok(X):
        return WitnessCheck(s, False, "witness does not commute with the ring action", in_set)
    if _scan((X.entries,), inv, s) is None:
        return WitnessCheck(s, False, "re-multiplication failed", in_set)
    return WitnessCheck(s, True, "verified", in_set)


def verify(ring, module, T: IntMatrix, S: SDescriptor | None, witnesses) -> TheoremReport:
    """Validate hypotheses, run the full pipeline, and report clause by
    clause.  Bad witnesses do not abort the run: the pipeline continues in
    diagnostic mode and the verdict says why nothing can be concluded."""
    if isinstance(ring, QuadraticOrder):
        if module is None:
            raise ValueError("quadratic rings need an explicit module (omega action)")
        if module.order != ring:
            raise ValueError(f"the module is over {module.order}, not over the ring {ring}")
    elif isinstance(ring, IntegerRing):
        if module is not None:
            raise ValueError("a module only makes sense for a quadratic ring")
    else:
        raise TypeError(f"unsupported ring {ring!r}")
    inv = _Invariants(T, module)

    notes = [
        "witnesses are finite evidence: divisibility for the full exponent set is never proven by a run",
        "root witnesses are taken in the base ring only; extension-ring witnesses are out of scope",
    ]
    checks = tuple(_check_witness(inv, S, s, X) for s, X in witnesses)
    all_valid = all(c.valid for c in checks)
    has_valid = any(c.valid for c in checks)

    # hypotheses, and clause 3: finite order d of the image part M = T on
    # im T outside Pi_S, read off chi_M = chi_T / x^k and verified as
    # T^(d+1) = T, with no lattice built.
    d = inv.image_order
    additive_ok = mult_ok = mult_trace = pset = coprime = None
    if S is None:
        notes.append("no exponent-set descriptor supplied; hypothesis checks skipped")
    elif not S.infinite:
        notes.append("finite exponent set: hypothesis checks are evidence, not proof")
    else:
        additive_ok = additive_hypothesis(S, lchar(ring))
        mult_ok, mult_trace = mult_hypothesis(S, ring)
        pset = pi_S(S)
        if d is not None:
            coprime = not any(pset.contains(p) for p in prime_factors(d))
    clause3 = Clause3(d, pset, coprime)

    # clause 1: the split, read off its determinant alone, |det M| =
    # |chi_T(k)|, k = rank ker T (|det T| when det T != 0), with no lattice
    # built, plus what the verified witnesses already force.  T induces on
    # Z^n / ker T what it is on im T, so the quotient determinant is det M.
    g, qdet = inv.gen_kernel_rank, inv.image_det
    direct = abs(qdet) == 1
    cond_kernel = g == 0 or any(c.valid and c.s >= g for c in checks)
    cond_det = direct or any(c.valid and c.s >= qdet.bit_length() for c in checks)
    reason = ("Z^n = ker T (+) im T with invertible restriction" if direct
              else "ker T and im T intersect nontrivially" if qdet == 0
              else "ker T + im T is a proper sublattice of Z^n")
    clause1 = Clause1(direct, reason, cond_kernel and cond_det)

    # clause 2: semisimplicity of the restriction to the honest image.
    clause2 = Clause2(inv.image_semisimple)

    # clause 4: construct roots for a sample of exponents coprime to d.
    roots: tuple[ConstructedRoot, ...] = ()
    if inv.zero_plus_order is not None:
        roots = tuple(ConstructedRoot(n, X) for n, X in _coprime_roots(inv, d, _coprime_exponents(d, 4)))
    clause4 = Clause4(roots, inv.zero_plus_order is not None)

    failing = [f"({i})" for i, ok in enumerate((clause1.clean_split, clause2.semisimple, clause3.holds), 1) if not ok]
    if not failing:
        verdict, reason = "CONSISTENT", "every conclusion holds for this operator"
    elif (not clause1.clean_split and clause1.forced_by_witnesses and has_valid and all_valid
          and additive_ok is True and mult_ok is True):
        verdict = "COUNTEREXAMPLE-CANDIDATE"
        reason = (
            "verified witnesses force the split, yet the computed split fails; "
            "this state is unreachable without an artifact bug"
        )
    else:
        verdict = "INCONCLUSIVE"
        why = ("no verified witnesses" if not has_valid
               else "some witnesses failed verification" if not all_valid
               else "finite witness evidence cannot establish divisibility for the whole exponent set")
        reason = f"conclusion clause(s) {', '.join(failing)} fail; {why}"

    hyp = HypothesisChecks(checks, all_valid, additive_ok, mult_ok, mult_trace, None if S is None else S.infinite)
    return TheoremReport(hyp, clause1, clause2, clause3, clause4, verdict, reason, tuple(notes))

