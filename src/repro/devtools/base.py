"""Checker plumbing: parsed modules, the checker base class, AST helpers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.findings import Finding

__all__ = [
    "Checker",
    "ModuleSource",
    "dotted_name",
    "self_attr",
]


@dataclass
class ModuleSource:
    """One parsed source file, handed to every checker.

    ``rel`` is the resolved path in POSIX form — checkers match their
    per-path allowlists against it with substring tests, so an allowlist
    entry like ``"repro/service/server.py"`` works from any checkout root.
    """

    path: Path
    text: str
    tree: ast.Module
    rel: str = field(init=False)

    def __post_init__(self) -> None:
        self.rel = self.path.resolve().as_posix()

    @classmethod
    def parse(cls, path: Path) -> "ModuleSource":
        text = path.read_text()
        return cls(path=path, text=text, tree=ast.parse(text, filename=str(path)))


class Checker:
    """Base class: one invariant, one ``check()`` pass over a module.

    Subclasses set ``id`` (the name used in reports and suppression tags),
    its one-line ``description`` (a checker reporting several ids overrides
    :meth:`descriptions` instead) and optionally ``skip_substrings`` —
    resolved-path substrings of modules the check deliberately does not
    apply to (e.g. the metrics code is allowed to read the clock).  Skipped
    paths are an architectural statement, not an escape hatch; one-off
    exemptions belong in inline ``# mas-lint: disable=...`` tags with a
    reason.
    """

    id: str = ""
    description: str = ""
    skip_substrings: tuple[str, ...] = ()

    def descriptions(self) -> dict[str, str]:
        """One line per check id this checker reports, keyed by the id."""
        return {self.id: self.description}

    def skips(self, module: ModuleSource) -> bool:
        return any(fragment in module.rel for fragment in self.skip_substrings)

    def check(self, module: ModuleSource) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError

    def run(self, module: ModuleSource) -> list[Finding]:
        if self.skips(module):
            return []
        return self.check(module)

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            check=self.id,
            message=message,
        )


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    The workhorse of every call-site classifier: ``sqlite3.connect(...)``
    resolves to ``"sqlite3.connect"``, a bare ``open(...)`` to ``"open"``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.expr) -> str | None:
    """``"x"`` when ``node`` is exactly ``self.x``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
