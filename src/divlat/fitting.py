"""Kernel-image splitting of integer operators.

Iterated kernels stabilize after at most n steps.  The resulting candidate
split M = ker T^m (+) im T^m is then decided honestly over Z: the stacked
bases must form a unimodular matrix (images need not be direct summands, so
this is a real test, not an assumption), and the restriction of T to the
image part must have unit determinant.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    IntMatrix,
    Lattice,
    image_lattice,
    kernel_saturated,
    restrict_to_lattice,
)


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
    change_of_basis: IntMatrix | None
    restriction: IntMatrix | None
    reason: str


def _stack(a: Lattice, b: Lattice) -> IntMatrix:
    rows = [a.basis.row(i) for i in range(a.rank)] + [b.basis.row(i) for i in range(b.rank)]
    return IntMatrix.from_rows(rows, cols=a.ambient_rank)


def _direct_and_full(a: Lattice, b: Lattice) -> tuple[bool, IntMatrix]:
    """Whether a + b is direct and equals the ambient Z^n, certified by the
    stacked bases being square with determinant +-1 (a square integer matrix
    has all invariant factors 1 exactly when its determinant is a unit)."""
    stacked = _stack(a, b)
    if stacked.rows != a.ambient_rank:
        return False, stacked
    return abs(stacked.det()) == 1, stacked


def fitting_decompose(T: IntMatrix, module=None) -> FittingSplit:
    """Stabilize ker T, ker T^2, ... and report the split honestly.

    Unlike the abstract statement this mirrors, onto-ness of the induced map
    is never presumed: ``is_direct`` can come back False.
    """
    if not T.is_square:
        raise ValueError("fitting_decompose requires a square matrix")
    n = T.rows
    if n == 0:
        raise ValueError("empty operator")
    if module is not None:
        module.require_endomorphism(T)
    m = 1
    power = T
    kernel = kernel_saturated(T)
    while True:
        next_power = power * T
        next_kernel = kernel_saturated(next_power)
        if next_kernel == kernel:
            break
        kernel, power, m = next_kernel, next_power, m + 1
        if m > n:
            raise AssertionError("kernel chain failed to stabilize within n steps")
    image = image_lattice(power)
    direct, _ = _direct_and_full(kernel, image)
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
    return FittingSplit(m, kernel, image, direct, invertible, restriction)


def clean_split(T: IntMatrix, module=None) -> CleanSplit:
    """Decide whether Z^n = ker T (+) im T already at the first power, with
    T invertible on the image part; returns the certifying bases."""
    if not T.is_square:
        raise ValueError("clean_split requires a square matrix")
    if T.rows == 0:
        raise ValueError("empty operator")
    if module is not None:
        module.require_endomorphism(T)
    kernel = kernel_saturated(T)
    image = image_lattice(T)
    direct, stacked = _direct_and_full(kernel, image)
    if not direct:
        inter = kernel.intersect(image)
        if inter.rank:
            reason = "ker T and im T intersect nontrivially"
        else:
            reason = "ker T + im T is a proper sublattice of Z^n"
        return CleanSplit(False, kernel, image, None, None, reason)
    restriction = restrict_to_lattice(T, image)
    # With a direct full split the image satisfies im T = T(im T), so the
    # restriction is automatically an automorphism.
    if restriction.rows and abs(restriction.det()) != 1:
        raise AssertionError("restriction to the image part is not invertible")
    return CleanSplit(True, kernel, image, stacked, restriction,
                      "Z^n = ker T (+) im T with invertible restriction")
