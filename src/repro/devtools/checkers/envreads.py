"""``env-registry``: every ``MAS_*`` environment read goes through the registry.

:mod:`repro.utils.env` is the single source of truth for the project's
environment contract — each ``MAS_*`` variable is registered once with its
default and documentation, and the docs table is rendered from the registry
(the lint driver cross-checks ``docs/env_vars.md`` against it).  Scattered
``os.environ.get("MAS_...")`` reads are how defaults drift between the CLI,
the runner and the tests, so this checker flags:

* any direct ``os.environ.get(...)`` / ``os.getenv(...)`` /
  ``os.environ[...]`` read of a ``MAS_*`` name (literal or module-level
  constant) outside ``repro/utils/env.py`` itself, and
* any ``MAS_*`` string literal that names a variable missing from the
  registry — catching reads *and* docs/test references to variables that
  were never registered.

Writes (``os.environ["MAS_X"] = ...``, ``monkeypatch.setenv``) are fine:
tests and the CLI legitimately *set* variables; only reads must funnel
through :func:`repro.utils.env.value`.
"""

from __future__ import annotations

import ast
import re

from repro.devtools.base import Checker, ModuleSource, dotted_name
from repro.devtools.findings import Finding

__all__ = ["EnvRegistryChecker"]

_MAS_NAME_RE = re.compile(r"^MAS_[A-Z][A-Z0-9_]*$")


class EnvRegistryChecker(Checker):
    id = "env-registry"
    description = (
        "MAS_* environment variables are read via repro.utils.env only, "
        "and every referenced name exists in its registry"
    )
    skip_substrings = ("repro/utils/env.py",)  # the registry itself

    def __init__(self) -> None:
        from repro.utils.env import REGISTRY

        self._registered = frozenset(REGISTRY)

    def check(self, module: ModuleSource) -> list[Finding]:
        constants = self._module_constants(module.tree)
        findings: list[Finding] = []
        direct_read_lines: set[int] = set()
        for node in ast.walk(module.tree):
            env_name = self._direct_env_read(node, constants)
            if env_name is not None:
                direct_read_lines.add(node.lineno)
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"direct environment read of {env_name} — go through "
                        f"repro.utils.env.value() so the default "
                        f"and docs stay in one place",
                    )
                )
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _MAS_NAME_RE.match(node.value)
                and not node.value.endswith("_ENV")  # constant *names* in __all__
                and node.value not in self._registered
                and node.lineno not in direct_read_lines
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{node.value} is not in the repro.utils.env registry — "
                        f"register it (name, default, doc) before referencing it",
                    )
                )
        return findings

    # ------------------------------------------------------------------ #
    @staticmethod
    def _module_constants(tree: ast.Module) -> dict[str, str]:
        """Module-level ``NAME = "MAS_..."`` constants, for indirect reads."""
        constants: dict[str, str] = {}
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
                and _MAS_NAME_RE.match(stmt.value.value)
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = stmt.value.value
        return constants

    def _direct_env_read(
        self, node: ast.AST, constants: dict[str, str]
    ) -> str | None:
        """The MAS_* name read by ``node``, when it is a direct env read."""
        key: ast.expr | None = None
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee in ("os.environ.get", "os.getenv", "environ.get", "getenv"):
                key = node.args[0] if node.args else None
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            owner = dotted_name(node.value)
            if owner in ("os.environ", "environ"):
                key = node.slice
        if key is None:
            return None
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            name = key.value
        elif isinstance(key, ast.Name) and key.id in constants:
            name = constants[key.id]
        else:
            return None
        return name if _MAS_NAME_RE.match(name) else None
