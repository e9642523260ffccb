"""Kernel-image splitting of integer operators.

The kernel chain has one step: for P = T^m, ker P and im P from one Hermite
form and the determinant of their stacked bases, square as the ranks add up
to n.  It is nonzero exactly when the two meet only in 0, which by Fitting's
lemma is when the chain has stabilized, and +-1 exactly when the candidate
split M = ker T^m (+) im T^m holds over Z.  clean_split is the first step,
fitting_decompose iterates it.  Images need not be direct summands, so this
is a real test, not an assumption; the restriction of T to the image part
must also have unit determinant.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactalg import IntMatrix, Lattice, _kernel_and_image, restrict_to_lattice


@dataclass(frozen=True)
class FittingSplit:
    """Stabilized decomposition data for a square integer operator.

    ``restriction`` is the matrix of the operator on the basis of
    ``image_part`` (column-vector convention).
    """

    exponent_m: int
    gen_kernel: Lattice
    image_part: Lattice
    is_direct: bool
    restriction_invertible: bool
    restriction: IntMatrix


@dataclass(frozen=True)
class CleanSplit:
    split: bool
    kernel: Lattice
    image: Lattice
    restriction: IntMatrix | None
    reason: str


def _step(P: IntMatrix) -> tuple[Lattice, Lattice, int]:
    """ker P, im P and the determinant of their stacked bases; +-1 means
    Z^n = ker P (+) im P, as a square integer matrix has all invariant
    factors 1 exactly when its determinant is a unit."""
    if not P.is_square:
        raise ValueError("square matrix required")
    kernel, image = _kernel_and_image(P)
    n = P.rows
    rows = kernel.basis.entries + image.basis.entries
    if len(rows) != n * n:
        raise AssertionError("ranks of kernel and image do not add up to n")
    return kernel, image, IntMatrix(n, n, rows).det()


def fitting_decompose(T: IntMatrix, module=None) -> FittingSplit:
    """Stop at the first m where ker T^m and im T^m meet only in 0, which by
    Fitting's lemma is the first m with ker T^m = ker T^(m+1), and report
    the split honestly.

    Unlike the abstract statement this mirrors, onto-ness of the induced map
    is never presumed: ``is_direct`` can come back False.
    """
    kernel, image, det = _step(T)
    if module is not None:
        module.require_endomorphism(T)
    m, power = 1, T
    while not det:
        power, m = power * T, m + 1
        if m > T.rows:
            raise AssertionError("kernel chain failed to stabilize within n steps")
        kernel, image, det = _step(power)
    restriction = restrict_to_lattice(T, image)
    if restriction.rows == 0:
        invertible = True  # rank-0 restriction: vacuously an automorphism
    elif module is not None:
        sub = module.submodule(image)
        det_el = sub.det_as_ring_element(restriction)
        invertible = module.order.norm(det_el) in (1, -1)
        if invertible != (abs(restriction.det()) == 1):
            raise AssertionError("ring and integer determinants disagree on invertibility")
    else:
        invertible = abs(restriction.det()) == 1
    for i in range(kernel.rank):
        if not kernel.contains(T.apply(kernel.basis.row(i))):
            raise AssertionError("kernel part not invariant")
    return FittingSplit(m, kernel, image, abs(det) == 1, invertible, restriction)


def clean_split(T: IntMatrix) -> CleanSplit:
    """Decide whether Z^n = ker T (+) im T already at the first power, with
    T invertible on the image part; returns the certifying bases.  The
    chain's first step decides: a stacked determinant of +-1 is the split,
    0 a nontrivial intersection, anything else a proper sublattice."""
    kernel, image, det = _step(T)
    if abs(det) != 1:
        if det == 0:
            reason = "ker T and im T intersect nontrivially"
        else:
            reason = "ker T + im T is a proper sublattice of Z^n"
        return CleanSplit(False, kernel, image, None, reason)
    restriction = restrict_to_lattice(T, image)
    # With a direct full split the image satisfies im T = T(im T), so the
    # restriction is automatically an automorphism.
    if restriction.rows and abs(restriction.det()) != 1:
        raise AssertionError("restriction to the image part is not invertible")
    return CleanSplit(True, kernel, image, restriction,
                      "Z^n = ker T (+) im T with invertible restriction")
