"""Unit tests for :mod:`repro.utils` (units, validation, rng, serialization)."""

from __future__ import annotations

import dataclasses
import enum
import json

import numpy as np
import pytest

from repro.utils.rng import make_rng
from repro.utils.serialization import dump_json, to_jsonable
from repro.utils.units import GB, KB, MB, bytes_to_human, cycles_to_seconds
from repro.utils.validation import ceil_div, check_positive_int, require


class TestUnits:
    def test_binary_prefixes(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_cycles_to_seconds(self):
        assert cycles_to_seconds(3.75e9, 3.75e9) == pytest.approx(1.0)

    def test_cycles_to_seconds_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            cycles_to_seconds(100, 0)

    def test_bytes_to_human(self):
        assert bytes_to_human(512) == "512 B"
        assert bytes_to_human(5 * MB) == "5.00 MiB"
        assert bytes_to_human(3 * GB) == "3.00 GiB"


class TestValidation:
    def test_require_passes_and_fails(self):
        require(True, "never raised")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 5) == 0
        with pytest.raises(ValueError):
            ceil_div(5, 0)
        with pytest.raises(ValueError):
            ceil_div(-1, 2)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).standard_normal(10)
        b = make_rng(7).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(10)
        b = make_rng(2).standard_normal(10)
        assert not np.allclose(a, b)


class _Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class _Point:
    x: int
    y: float
    label: str


class TestSerialization:
    def test_scalars_pass_through(self):
        assert to_jsonable(None) is None
        assert to_jsonable(3) == 3
        assert to_jsonable("s") == "s"

    def test_numpy_and_enum_and_dataclass(self):
        assert to_jsonable(np.int64(4)) == 4
        assert to_jsonable(np.float32(0.5)) == pytest.approx(0.5)
        assert to_jsonable(_Color.RED) == "red"
        assert to_jsonable(_Point(1, 2.0, "p")) == {"x": 1, "y": 2.0, "label": "p"}
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_containers_recurse(self):
        payload = {"a": [_Point(0, 0.0, "o"), (1, 2)], "b": {"c": np.int32(9)}}
        assert to_jsonable(payload) == {
            "a": [{"x": 0, "y": 0.0, "label": "o"}, [1, 2]],
            "b": {"c": 9},
        }

    def test_unserializable_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_dump_and_load_roundtrip(self, tmp_path):
        path = dump_json({"x": [1, 2, 3]}, tmp_path / "sub" / "out.json")
        assert path.exists()
        assert json.loads(path.read_text()) == {"x": [1, 2, 3]}
