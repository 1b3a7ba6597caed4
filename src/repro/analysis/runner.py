"""Shared experiment driver — now implemented by :mod:`repro.exec`.

The :class:`ExperimentRunner` that tunes and simulates every (method, network)
pair moved into the execution layer (:mod:`repro.exec.runner`) when parallel
sweeps and the persistent result cache were added; this module remains as the
import path the analysis harnesses and downstream users were written against,
plus the two small helpers the suite-parametrized harnesses share.
"""

from __future__ import annotations

from repro.exec.runner import DEFAULT_METHOD_ORDER, ExperimentRunner, MethodRun
from repro.workloads.suites import WorkloadSuite, get_suite

__all__ = [
    "MethodRun",
    "ExperimentRunner",
    "DEFAULT_METHOD_ORDER",
    "resolve_runner",
    "suite_title_suffix",
]


def resolve_runner(
    runner: ExperimentRunner | None,
    suite: str | WorkloadSuite | None,
    **runner_kwargs,
) -> ExperimentRunner:
    """The runner a harness should sweep: the given one, or a default.

    ``suite`` only parameterizes the *default* runner; a supplied runner
    already carries its suite, so passing a different one alongside it is
    rejected instead of being silently ignored.
    """
    if runner is not None:
        if suite is not None and get_suite(suite).name != runner.suite_name:
            raise ValueError(
                f"runner already sweeps suite {runner.suite_name!r}; "
                f"pass suite={suite!r} only when no runner is supplied"
            )
        return runner
    return ExperimentRunner(suite=suite, **runner_kwargs)


def suite_title_suffix(suite: str) -> str:
    """Title suffix naming a non-default suite (empty for ``table1``, keeping
    the paper artefacts byte-identical to the pre-suite output)."""
    return "" if suite == "table1" else f" — suite {suite}"
