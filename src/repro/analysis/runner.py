"""What the suite-parametrized harnesses share.

A harness sweeps the suite of the :class:`~repro.exec.ExperimentRunner` it is
given (without one, a default runner over Table 1);
:func:`suite_title_suffix` names a non-default suite in its title.
"""

from __future__ import annotations

__all__ = ["suite_title_suffix"]


def suite_title_suffix(suite: str) -> str:
    """Title suffix naming a non-default suite (empty for ``table1``, keeping
    the paper artefacts byte-identical to the pre-suite output)."""
    return "" if suite == "table1" else f" — suite {suite}"
