"""Scalar/array-polymorphic arithmetic for the analytic cost layer.

The cycle expressions in :mod:`repro.hardware.compute_units` and
:mod:`repro.hardware.memory` are used two ways: per task with plain Python
ints (the simulator's scalar path) and per candidate batch with numpy vectors
(:mod:`repro.core.analytic`).  ``+``, ``*`` and ``//`` already broadcast;
:func:`cdiv` is ceiling division written in those operators, so ints stay
ints and the scalar path's task cycle counts are exact.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["ArrayLike", "cdiv"]

#: Either a plain Python number or a numpy array of them.
ArrayLike = Union[int, float, bool, np.ndarray]


def cdiv(numerator: ArrayLike, denominator: ArrayLike) -> ArrayLike:
    """Ceiling division, elementwise for arrays, exact ints for ints."""
    return -(-numerator // denominator)
