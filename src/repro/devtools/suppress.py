"""Inline suppression tags: ``# mas-lint: disable=<check>(<reason>)``.

A tag suppresses matching findings on its own line; a tag on a *standalone*
comment line also covers the line directly below it, so long statements can
carry their tag on the preceding line.  Several checks can share one tag,
separated by commas::

    conn = sqlite3.connect(path)  # mas-lint: disable=fork-safety(rebuilt per worker)

    # mas-lint: disable=determinism(LRU timestamp, not a result)
    now = time.time()

The reason is **mandatory** — a tag without one does not suppress anything
and is itself reported as ``bad-suppression``, which is how the CI gate
guarantees every silenced finding carries a written justification.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.devtools.findings import Finding

__all__ = ["BAD_SUPPRESSION", "Suppressions", "parse_suppressions"]

#: Check id of the "malformed/unjustified suppression tag" findings.
BAD_SUPPRESSION = "bad-suppression"

_TAG_RE = re.compile(r"#\s*mas-lint:\s*disable=(?P<items>.+?)\s*$")
_ITEM_RE = re.compile(
    r"^\s*(?P<check>[a-z][a-z0-9-]*)\s*(?:\(\s*(?P<reason>[^()]*?)\s*\))?\s*$"
)


@dataclass(frozen=True)
class _Tag:
    line: int
    check: str
    reason: str | None


def _split_items(text: str) -> list[str]:
    """Split ``a(x, y), b(z)`` on the commas *between* items, not inside ()."""
    items, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    return [item for item in (i.strip() for i in items) if item]


class Suppressions:
    """The parsed tags of one file, plus the findings the tags themselves raise."""

    def __init__(self, path: str, known_checks: frozenset[str]) -> None:
        self._path = path
        self._known = known_checks
        self._by_line: dict[int, set[str]] = {}
        self.findings: list[Finding] = []

    def _add_tag(self, tag: _Tag, *, covers_next_line: bool) -> None:
        if tag.check not in self._known:
            self.findings.append(
                Finding(
                    path=self._path,
                    line=tag.line,
                    col=1,
                    check=BAD_SUPPRESSION,
                    message=(
                        f"unknown check {tag.check!r} in mas-lint tag "
                        f"(known: {', '.join(sorted(self._known))})"
                    ),
                )
            )
            return
        if not tag.reason:
            self.findings.append(
                Finding(
                    path=self._path,
                    line=tag.line,
                    col=1,
                    check=BAD_SUPPRESSION,
                    message=(
                        f"suppression of {tag.check!r} carries no reason — write "
                        f"# mas-lint: disable={tag.check}(<why this is safe>)"
                    ),
                )
            )
            return
        lines = [tag.line] + ([tag.line + 1] if covers_next_line else [])
        for line in lines:
            self._by_line.setdefault(line, set()).add(tag.check)

    def suppresses(self, finding: Finding) -> bool:
        return finding.check in self._by_line.get(finding.line, ())


def _comment_tokens(text: str) -> list[tuple[int, int, str]]:
    """``(line, col, comment_text)`` for every real COMMENT token.

    Tokenizing (rather than regex-scanning lines) keeps tag syntax quoted
    inside strings and docstrings — like the examples in this module — from
    registering as tags or as malformed ones.
    """
    comments: list[tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        # The parse-error finding for this file covers it.
        pass
    return comments


def parse_suppressions(
    path: str, text: str, known_checks: frozenset[str]
) -> Suppressions:
    """Scan ``text`` for mas-lint tags and return the per-line suppression map."""
    suppressions = Suppressions(path, known_checks)
    for lineno, col, comment in _comment_tokens(text):
        match = _TAG_RE.search(comment)
        if match is None:
            continue
        standalone = col == 0 or not text.splitlines()[lineno - 1][:col].strip()
        for item in _split_items(match.group("items")):
            parsed = _ITEM_RE.match(item)
            if parsed is None:
                suppressions.findings.append(
                    Finding(
                        path=path,
                        line=lineno,
                        col=1,
                        check=BAD_SUPPRESSION,
                        message=f"malformed mas-lint tag item {item!r}",
                    )
                )
                continue
            tag = _Tag(line=lineno, check=parsed.group("check"), reason=parsed.group("reason"))
            suppressions._add_tag(tag, covers_next_line=standalone)
    return suppressions
