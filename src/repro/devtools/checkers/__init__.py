"""The four project-invariant checkers, in gate order."""

from __future__ import annotations

from repro.devtools.base import Checker
from repro.devtools.checkers.determinism import DeterminismChecker
from repro.devtools.checkers.forksafety import ForkSafetyChecker
from repro.devtools.checkers.hygiene import HygieneChecker
from repro.devtools.checkers.locks import LockDisciplineChecker

__all__ = ["all_checkers"]


def all_checkers() -> list[Checker]:
    """Fresh checker instances (checkers are stateless between modules)."""
    return [
        LockDisciplineChecker(),
        DeterminismChecker(),
        ForkSafetyChecker(),
        HygieneChecker(),
    ]
