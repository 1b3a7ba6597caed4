"""Central registry of every ``MAS_*`` environment variable.

Environment variables are the repo's cross-process configuration surface —
cache URIs shared by sweep workers, suite overrides in CI, worker counts —
and they historically grew one ``os.environ.get`` at a time, each with its
own default, stripping rule and (maybe) a docs mention.  This module makes
the set machine-checkable:

* every variable is *declared* here once, with its name, default and a
  one-line doc string;
* every *read* goes through :func:`value` / :func:`int_value`, which refuse
  names that were never registered — a typo'd variable is a loud error, not
  a silently ignored knob;
* the registry renders itself into the reference table in
  ``docs/env_vars.md`` (:func:`render_markdown_table`), and the ``mas-lint``
  ``env-registry`` checker cross-references code, registry and docs so none
  of the three can drift.

Reading ``os.environ`` directly for a ``MAS_*`` name anywhere else in the
project is a lint error (see :mod:`repro.devtools`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EnvVar",
    "REGISTRY",
    "int_value",
    "register",
    "render_markdown_table",
    "value",
]


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable: its name, default and purpose."""

    name: str
    default: str | None
    doc: str


#: Every declared variable, keyed by name, in registration order.
REGISTRY: dict[str, EnvVar] = {}


def register(name: str, default: str | None, doc: str) -> EnvVar:
    """Declare a variable.  Names must be unique, uppercase and ``MAS_``-prefixed."""
    if not name.startswith("MAS_") or name != name.upper():
        raise ValueError(f"environment variable {name!r} must be an uppercase MAS_* name")
    if name in REGISTRY:
        raise ValueError(f"environment variable {name!r} is already registered")
    if not doc.strip():
        raise ValueError(f"environment variable {name!r} needs a doc string")
    var = EnvVar(name=name, default=default, doc=" ".join(doc.split()))
    REGISTRY[name] = var
    return var


def _var(name: str) -> EnvVar:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(
            f"environment variable {name!r} is not registered in repro.utils.env "
            f"(known: {known})"
        ) from None


def value(name: str) -> str | None:
    """The stripped value of registered variable ``name``.

    An unset, empty or whitespace-only variable falls back to the registered
    default (which may be ``None``), so ``MAS_X= cmd`` and an unset ``MAS_X``
    behave identically everywhere.
    """
    var = _var(name)
    raw = os.environ.get(name, "").strip()
    return raw or var.default


def int_value(name: str, fallback: int | None = None) -> int:
    """:func:`value` parsed as an integer.

    ``fallback`` applies when the variable is unset and the registry holds no
    default.  A set-but-malformed value raises ``ValueError`` naming the
    variable, so a typo'd ``MAS_X=four`` fails loudly instead of defaulting.
    """
    text = value(name)
    if text is None:
        if fallback is None:
            raise ValueError(f"${name} is unset and has no registered default")
        return fallback
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"${name}={text!r} is not an integer") from exc


def render_markdown_table() -> str:
    """The registry as the markdown table published in ``docs/env_vars.md``.

    The docs file embeds this output verbatim; ``tests/test_devtools_lint.py``
    asserts the two stay identical, and the lint driver cross-checks the
    names, so registering a variable without re-rendering the table fails CI.
    """
    rows = [
        "| Variable | Default | Purpose |",
        "| --- | --- | --- |",
    ]
    for var in REGISTRY.values():
        default = f"`{var.default}`" if var.default is not None else "*(unset)*"
        rows.append(f"| `{var.name}` | {default} | {var.doc} |")
    return "\n".join(rows)


# ---------------------------------------------------------------------- #
# The registry.  Library knobs first, then the test suite's CI knob.
# ---------------------------------------------------------------------- #
register(
    "MAS_CACHE_URI",
    None,
    "Default result-store URI for every runner and `cache` subcommand: "
    "`dir:/path`, a plain directory or `http://host:8787`, optionally with "
    "`?max_entries=/?max_bytes=` eviction caps. `--cache`/`--cache-dir` flags win.",
)
register(
    "MAS_SEARCH_WORKERS",
    "1",
    "Candidate-evaluation workers inside each pair's tiling search "
    "(1 = serial). Results are bit-identical at any worker count.",
)
register(
    "MAS_TRACE",
    None,
    "Span-trace output path (JSONL, appended). When set, every sweep, "
    "search generation, store operation and HTTP request records a span; "
    "`mas-attention obs summarize|convert|validate` consume the file. "
    "Unset (the default) disables tracing entirely.",
)
register(
    "MAS_TEST_SUITE",
    None,
    "Replaces the test suite's sweep-suite matrix with one suite spec "
    "(e.g. `table1-batched@seq<=256`); used by CI to pin a non-default suite.",
)
