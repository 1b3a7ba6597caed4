"""Project-invariant static analysis (``mas-lint``).

The repo's headline guarantees — sweeps bit-identical across ``--jobs``
counts and store backends, a thread-safe :class:`~repro.service.server.
StoreService` behind a multi-client fleet, schema versions named by their
constants — are invariants that generic linters cannot see.  This package machine-checks
them on every commit with four AST-based, project-specific checkers:

``lock-discipline``
    Attributes mutated under a class's ``threading.Lock``/``RLock`` must
    never be touched outside it; helpers that rely on the caller's lock
    carry a ``*_locked`` name suffix and may only be called under the lock.
``determinism``
    No unseeded randomness (``random.*`` module calls, legacy
    ``np.random.*`` global API) and no wall-clock reads outside the
    obs/metrics/retry allowlist — a stray clock or RNG in the
    simulation, cost or search layers breaks bit-identity.
``fork-safety``
    Classes holding non-picklable resources (sqlite connections, sockets,
    locks, pools, file handles) need ``__getstate__``/``__reduce__``; bound
    methods must not be submitted to process pools.
``hygiene``
    No integer schema-version literals outside the schema constants, no
    bare ``except:``, and no ``except Exception`` that swallows an error
    without re-raising, logging or an explicit suppression tag.

Run it with ``python -m repro.devtools.lint <paths>`` or ``mas-attention
lint``; findings are suppressed inline with
``# mas-lint: disable=<check>(<reason>)`` — the reason is mandatory.
See ``docs/dev_tooling.md``.
"""

from repro.devtools.findings import Finding

__all__ = ["Finding", "LintResult", "lint_paths"]


def __getattr__(name: str):
    # Lazy: importing the driver here would shadow `python -m
    # repro.devtools.lint` (runpy warns when the submodule is pre-imported).
    if name in ("LintResult", "lint_paths"):
        from repro.devtools import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
