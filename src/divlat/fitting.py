"""Fitting's lemma for integer operators: the public entry points to the
split that classify._Invariants computes off its kernel chain."""
from __future__ import annotations

from .classify import FittingSplit, _Invariants
from .exactalg import IntMatrix


def fitting_decompose(T: IntMatrix, module=None) -> FittingSplit:
    """The split at the first m where ker T^m and im T^m meet only in 0;
    is_direct can come back False."""
    return _Invariants(T, module).fitting


def clean_split(T: IntMatrix) -> FittingSplit:
    """The split at m = 1; is_direct tells whether Z^n = ker T (+) im T."""
    return _Invariants(T).split
