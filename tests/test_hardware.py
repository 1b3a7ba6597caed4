"""Unit tests for :mod:`repro.hardware` (config, cost models, energy, buffer, presets)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.hardware.compute_units import (
    elementwise_cycles,
    elementwise_vec_ops,
    matmul_cycles,
    matmul_macs,
    softmax_cycles,
    softmax_vec_ops,
)
from repro.hardware.config import (
    DmaSpec,
    HardwareConfig,
    MacUnitSpec,
    MemoryLevelSpec,
    VecUnitSpec,
)
from repro.hardware.energy import AccessCounters, EnergyBreakdown, EnergyModel
from repro.hardware.memory import dma_cycles, dma_cycles_batch
from repro.hardware.presets import (
    PRESETS,
    constrained_edge_device,
    davinci_like_npu,
    get_preset,
    simulated_edge_device,
)
from repro.schedulers.registry import list_schedulers, make_scheduler
from repro.utils.units import GHZ, KB, MB


class TestSpecs:
    def test_mac_spec_validation(self):
        with pytest.raises(ValueError):
            MacUnitSpec(rows=0)
        with pytest.raises(ValueError):
            MacUnitSpec(fill_overhead_cycles=-1)

    def test_vec_spec_validation(self):
        with pytest.raises(ValueError):
            VecUnitSpec(throughput_ops_per_cycle=0)

    def test_memory_level_validation(self):
        with pytest.raises(ValueError):
            MemoryLevelSpec(read_pj_per_byte=-1, write_pj_per_byte=1)
        with pytest.raises(ValueError):
            MemoryLevelSpec(read_pj_per_byte=1, write_pj_per_byte=-1)

    def test_dma_spec_validation(self):
        with pytest.raises(ValueError):
            DmaSpec(bytes_per_cycle=0)
        with pytest.raises(ValueError):
            DmaSpec(setup_cycles=-1)


class TestHardwareConfig:
    def test_paper_defaults(self, edge_hw):
        """Defaults match the Section 5.1 simulated architecture."""
        assert edge_hw.frequency_hz == pytest.approx(3.75 * GHZ)
        assert edge_hw.num_cores == 2
        assert edge_hw.mac.rows == 16 and edge_hw.mac.cols == 16
        assert edge_hw.l1_bytes == 5 * MB
        # The paper's 30 GB/s DRAM channel.
        assert edge_hw.dma.bytes_per_cycle * edge_hw.frequency_hz == pytest.approx(30e9)

    def test_with_l1_bytes(self, edge_hw):
        shrunk = edge_hw.with_l1_bytes(256 * KB)
        assert shrunk.l1_bytes == 256 * KB
        assert shrunk.dram == edge_hw.dram
        assert edge_hw.l1_bytes == 5 * MB  # original untouched (frozen dataclass)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_cores=0)
        with pytest.raises(ValueError):
            HardwareConfig(frequency_hz=0)
        with pytest.raises(ValueError):
            HardwareConfig(l1_bytes=0)


def _numeric_fields(obj, prefix=()):
    """The path and value of every numeric field of ``obj``, nested specs included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _numeric_fields(value, prefix + (f.name,))
        elif isinstance(value, (int, float)):
            yield prefix + (f.name,), value


def _with_field(obj, path, value):
    """A copy of ``obj`` with the field at ``path`` set to ``value``."""
    head, *rest = path
    if rest:
        value = _with_field(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


@pytest.mark.parametrize(
    "path", [path for path, _ in _numeric_fields(HardwareConfig())], ids=".".join
)
def test_every_device_parameter_moves_a_result(path, tiny_hw, small_workload):
    """The device holds no value the simulator ignores: changing any numeric
    field changes the cycles, energy or latency of at least one scheduler's
    default-tiling simulation.  An int steps by one, a float doubles and the
    L1 capacity halves."""
    value = dict(_numeric_fields(tiny_hw))[path]
    if path == ("l1_bytes",):
        changed = _with_field(tiny_hw, path, value // 2)
    else:
        changed = _with_field(tiny_hw, path, value * 2 if isinstance(value, float) else value + 1)

    def outcome(hardware, name):
        result = make_scheduler(name, hardware).simulate(small_workload)
        return result.cycles, result.energy_pj, result.latency_seconds

    assert any(outcome(tiny_hw, name) != outcome(changed, name) for name in list_schedulers())


class TestComputeCosts:
    def test_matmul_macs(self):
        assert matmul_macs(4, 8, 2) == 64
        with pytest.raises(ValueError):
            matmul_macs(0, 1, 1)

    def test_matmul_cycles_scales_with_passes(self):
        spec = MacUnitSpec(rows=16, cols=16, fill_overhead_cycles=0)
        base = matmul_cycles(spec, 16, 64, 16)
        assert base == 64
        # Four output tiles -> four passes.
        assert matmul_cycles(spec, 32, 64, 32) == 4 * base

    def test_matmul_cycles_fill_overhead(self):
        without = matmul_cycles(MacUnitSpec(fill_overhead_cycles=0), 16, 64, 16)
        with_overhead = matmul_cycles(MacUnitSpec(fill_overhead_cycles=16), 16, 64, 16)
        assert with_overhead == without + 16

    def test_softmax_cycles_row_structure(self):
        spec = VecUnitSpec(throughput_ops_per_cycle=32, softmax_ops_per_element=16,
                           row_overhead_cycles=8)
        one_row = softmax_cycles(spec, 1, 64)
        assert one_row == 64 * 16 // 32 + 8
        assert softmax_cycles(spec, 10, 64) == 10 * one_row

    def test_softmax_vec_ops(self):
        spec = VecUnitSpec(softmax_ops_per_element=18)
        assert softmax_vec_ops(4, 32, spec) == 4 * 32 * 18

    def test_elementwise(self):
        spec = VecUnitSpec(throughput_ops_per_cycle=8)
        assert elementwise_cycles(spec, 64, 2) == 16
        assert elementwise_vec_ops(64, 2) == 128


class TestMemory:
    def test_dma_cycles_bandwidth_and_setup(self, edge_hw):
        assert dma_cycles(edge_hw, 0) == 0
        expected = 8192 // int(edge_hw.dma.bytes_per_cycle) + edge_hw.dma.setup_cycles
        assert dma_cycles(edge_hw, 8192) == expected

    def test_dma_cycles_fractional_bandwidth(self):
        hw = HardwareConfig(dma=DmaSpec(bytes_per_cycle=0.5, setup_cycles=0))
        assert dma_cycles(hw, 100) == 200

    def test_dma_cycles_non_integral_bandwidth_above_one(self):
        """2.5 B/cycle moves 100 bytes in 40 cycles, in both forms."""
        hw = HardwareConfig(dma=DmaSpec(bytes_per_cycle=2.5, setup_cycles=0))
        assert dma_cycles(hw, 100) == 40
        assert dma_cycles(hw, 101) == 41
        assert dma_cycles_batch(hw, np.array([0, 100, 101])).tolist() == [0, 40, 41]

    def test_dma_cycles_rejects_negative(self, edge_hw):
        with pytest.raises(ValueError):
            dma_cycles(edge_hw, -1)


class TestEnergy:
    def test_counters_reject_negative(self):
        with pytest.raises(ValueError):
            AccessCounters(dram_bytes_read=-1)

    def test_energy_model_linear_in_counters(self, edge_hw):
        model = EnergyModel(edge_hw)
        counters = AccessCounters(
            dram_bytes_read=1000, dram_bytes_written=500,
            l1_bytes_read=2000, l1_bytes_written=2000,
            l0_bytes_read=100, l0_bytes_written=100,
            mac_ops=10_000, vec_ops=5_000, total_cycles=1_000,
        )
        breakdown = model.compute(counters)
        assert breakdown.dram_pj == pytest.approx(
            1000 * edge_hw.dram.read_pj_per_byte + 500 * edge_hw.dram.write_pj_per_byte
        )
        assert breakdown.mac_pe_pj == pytest.approx(10_000 * edge_hw.mac_pj_per_op)
        assert breakdown.leakage_pj == pytest.approx(1_000 * edge_hw.leakage_pj_per_cycle)
        assert breakdown.total_pj == pytest.approx(
            breakdown.dram_pj + breakdown.l1_pj + breakdown.l0_pj
            + breakdown.mac_pe_pj + breakdown.vec_pe_pj + breakdown.leakage_pj
        )

    def test_breakdown_views(self):
        b = EnergyBreakdown(dram_pj=1, l1_pj=2, l0_pj=3, mac_pe_pj=4, vec_pe_pj=5, leakage_pj=6)
        assert b.pe_pj == 9
        assert b.total_pj == pytest.approx(21)


class TestPresets:
    def test_registry_contents(self):
        assert set(PRESETS) == {"edge-sim", "davinci-like", "edge-constrained"}
        for name in PRESETS:
            assert isinstance(get_preset(name), HardwareConfig)
        with pytest.raises(KeyError):
            get_preset("tpu-v5")

    def test_simulated_edge_matches_default(self):
        assert simulated_edge_device() == HardwareConfig(name="edge-sim")

    def test_davinci_preset_differs(self):
        davinci = davinci_like_npu()
        assert davinci.num_cores == 3
        assert davinci.l1_bytes < simulated_edge_device().l1_bytes
        assert davinci.frequency_hz < simulated_edge_device().frequency_hz

    def test_constrained_preset_shrinks_l1_only(self):
        constrained = constrained_edge_device(128 * KB)
        assert constrained.l1_bytes == 128 * KB
        assert constrained.mac == simulated_edge_device().mac

    def test_presets_are_fresh_instances(self):
        a, b = simulated_edge_device(), simulated_edge_device()
        assert a == b
        assert dataclasses.replace(a, num_cores=4) != b
