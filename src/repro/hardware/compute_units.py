"""Analytical cycle/operation cost models for the MAC and VEC compute units.

These functions are the cost primitives of the simulator: every scheduler
converts its tiled workload into tasks whose cycle counts come from here, so
relative results between schedulers depend only on these shared models.

The two cycle models the analytic layer also needs, MatMul and softmax, exist
in two forms that share one expression body: the validated scalar form used
per-task by :class:`repro.core.costs.TileCosts`, and a ``*_batch`` form that
accepts numpy arrays for any dimension argument and is consumed by
:class:`repro.core.analytic.BatchedCostModel`.  Because both call the same
expression, the scalar and vectorized cost layers cannot drift.
"""

from __future__ import annotations

from repro.hardware.config import MacUnitSpec, VecUnitSpec
from repro.utils.arrays import ArrayLike, cdiv
from repro.utils.validation import check_positive_int, require


def matmul_macs(m: int, k: int, n: int) -> int:
    """Number of multiply-accumulate operations of an ``(m x k) @ (k x n)`` MatMul."""
    check_positive_int(m, "m")
    check_positive_int(k, "k")
    check_positive_int(n, "n")
    return m * k * n


def matmul_cycles_batch(spec: MacUnitSpec, m: ArrayLike, k: ArrayLike, n: ArrayLike) -> ArrayLike:
    """:func:`matmul_cycles` over ints or numpy arrays (no validation)."""
    passes = cdiv(m, spec.rows) * cdiv(n, spec.cols)
    per_pass = cdiv(k, spec.macs_per_pe_per_cycle) + spec.fill_overhead_cycles
    return passes * per_pass


def matmul_cycles(spec: MacUnitSpec, m: int, k: int, n: int) -> int:
    """Cycles for an ``(m x k) @ (k x n)`` MatMul on an output-stationary PE array.

    The array produces one ``rows x cols`` output tile per pass; each pass
    streams the ``k`` reduction dimension through the array and pays a fixed
    fill/drain overhead.
    """
    check_positive_int(m, "m")
    check_positive_int(k, "k")
    check_positive_int(n, "n")
    return matmul_cycles_batch(spec, m, k, n)


def softmax_vec_ops(rows: int, cols: int, spec: VecUnitSpec) -> int:
    """Element-operations charged for a row-wise softmax over a ``rows x cols`` tile."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    return rows * cols * spec.softmax_ops_per_element


def softmax_cycles_batch(spec: VecUnitSpec, rows: ArrayLike, cols: ArrayLike) -> ArrayLike:
    """:func:`softmax_cycles` over ints or numpy arrays (no validation)."""
    per_row_ops = cols * spec.softmax_ops_per_element
    per_row_cycles = cdiv(per_row_ops, spec.throughput_ops_per_cycle)
    return rows * (per_row_cycles + spec.row_overhead_cycles)


def softmax_cycles(spec: VecUnitSpec, rows: int, cols: int) -> int:
    """Cycles for a row-wise softmax over a ``rows x cols`` tile on the VEC unit.

    Each row pays the element-wise/reduction work at the unit's effective
    throughput plus a fixed per-row overhead for reduction latency.
    """
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    return softmax_cycles_batch(spec, rows, cols)


def elementwise_cycles(spec: VecUnitSpec, num_elements: int, ops_per_element: int = 1) -> int:
    """Cycles for a generic element-wise kernel of ``num_elements`` on the VEC unit.

    Used by the FuseMax dataflow for its online-softmax correction operators
    (running-max update, rescale of the output accumulator, running-sum update).
    """
    check_positive_int(num_elements, "num_elements")
    check_positive_int(ops_per_element, "ops_per_element")
    require(spec.throughput_ops_per_cycle > 0, "throughput must be positive")
    return cdiv(num_elements * ops_per_element, spec.throughput_ops_per_cycle)


def elementwise_vec_ops(num_elements: int, ops_per_element: int = 1) -> int:
    """Element-operations for a generic element-wise kernel."""
    check_positive_int(num_elements, "num_elements")
    check_positive_int(ops_per_element, "ops_per_element")
    return num_elements * ops_per_element
