"""Shared utilities: unit helpers, validation, deterministic RNG and serialization."""

from repro.utils.units import (
    GB,
    GHZ,
    KB,
    MB,
    bytes_to_human,
    cycles_to_seconds,
)
from repro.utils.validation import (
    check_positive_int,
    ceil_div,
    require,
)
from repro.utils.rng import make_rng
from repro.utils.serialization import to_jsonable, dump_json

__all__ = [
    "GB",
    "GHZ",
    "KB",
    "MB",
    "bytes_to_human",
    "cycles_to_seconds",
    "check_positive_int",
    "ceil_div",
    "require",
    "make_rng",
    "to_jsonable",
    "dump_json",
]
