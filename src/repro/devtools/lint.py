"""mas-lint driver: discover files, run checkers, apply suppressions, report.

Usage (both spellings take the same arguments; the second is the CI gate,
and the first lints ``src/repro tests`` when given no path)::

    mas-attention lint src/repro tests [--format json] [--list-checks]
    python -m repro.devtools.lint src/repro tests [--format json] [--list-checks]

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error.  Directory
arguments are walked recursively for ``*.py``, skipping ``__pycache__`` and
``lint_fixtures`` directories (the fixtures *seed* violations — they are
linted only when named explicitly, which is what the self-tests do).
Unparseable files surface as ``parse-error`` findings rather than crashing
the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.base import Checker, ModuleSource
from repro.devtools.checkers import all_checkers
from repro.devtools.findings import Finding
from repro.devtools.suppress import BAD_SUPPRESSION, parse_suppressions

__all__ = ["LintResult", "known_checks", "lint_paths", "main"]

#: Check id for files the parser rejects.
PARSE_ERROR = "parse-error"

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "lint_fixtures"})


def known_checks(checkers: list[Checker] | None = None) -> frozenset[str]:
    """Every id a suppression tag may name."""
    ids: set[str] = {BAD_SUPPRESSION, PARSE_ERROR}
    for checker in checkers if checkers is not None else all_checkers():
        ids.update(checker.descriptions())
    return frozenset(ids)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def sorted(self) -> list[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def format_human(self) -> str:
        lines = [finding.format() for finding in self.sorted()]
        noun = "finding" if len(lines) == 1 else "findings"
        lines.append(
            f"mas-lint: {len(self.findings)} {noun} in "
            f"{self.files_checked} files"
        )
        return "\n".join(lines)

    def as_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "findings": [finding.as_dict() for finding in self.sorted()],
            },
            indent=2,
        )


def _discover(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path)
                if any(part in _SKIP_DIRS for part in relative.parts[:-1]):
                    continue
                files.append(candidate)
        else:
            # Explicitly named files are always linted, fixtures included.
            files.append(path)
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def lint_paths(
    paths: list[Path] | list[str],
    checkers: list[Checker] | None = None,
) -> LintResult:
    """Lint files/directories and return every unsuppressed finding."""
    roots = [Path(p) for p in paths]
    active = checkers if checkers is not None else all_checkers()
    known = known_checks(active)
    result = LintResult()
    for path in _discover(roots):
        result.files_checked += 1
        try:
            module = ModuleSource.parse(path)
        except (SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            result.findings.append(
                Finding(
                    path=str(path),
                    line=line,
                    col=1,
                    check=PARSE_ERROR,
                    message=f"file does not parse: {exc}",
                )
            )
            continue
        suppressions = parse_suppressions(str(path), module.text, known)
        for checker in active:
            for finding in checker.run(module):
                if not suppressions.suppresses(finding):
                    result.findings.append(finding)
        result.findings.extend(suppressions.findings)
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="mas-lint: project-invariant static analysis",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (dirs recurse)"
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list the checks, one line each, and exit (no paths needed)",
    )
    return parser


def main(argv: list[str] | None = None, default_paths: Sequence[str] = ()) -> int:
    """Run the driver on ``argv``; ``default_paths`` are linted when it names none."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_checks:
        for checker in all_checkers():
            for check_id, description in checker.descriptions().items():
                print(f"{check_id}: {description}")
        print(f"{BAD_SUPPRESSION}: suppression tags must name a known check and a reason")
        print(f"{PARSE_ERROR}: every linted file must parse")
        return 0
    paths = args.paths or list(default_paths)
    if not paths:
        parser.error("the following arguments are required: paths")  # exits 2
    roots = [Path(p) for p in paths]
    missing = [str(p) for p in roots if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")  # exits 2
    result = lint_paths(roots)
    output = result.as_json() if args.format == "json" else result.format_human()
    print(output)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
