"""The finding type shared by every checker and the driver."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One ``file:line`` diagnostic produced by a checker; any finding fails
    the gate."""

    path: str
    line: int
    col: int
    check: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.check)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.check}: {self.message}"
