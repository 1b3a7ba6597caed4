"""DMA transfer cost between DRAM and the L1 buffer."""

from __future__ import annotations

import numpy as np

from repro.hardware.config import HardwareConfig
from repro.utils.arrays import ArrayLike, cdiv
from repro.utils.validation import require


def _transfer_cycles(config: HardwareConfig, num_bytes: ArrayLike) -> ArrayLike:
    """Shared scalar/array expression for a non-empty transfer's cycle count:
    ``ceil(num_bytes / bytes_per_cycle)`` at any positive bandwidth, plus the
    setup cost."""
    transfer = cdiv(num_bytes, config.dma.bytes_per_cycle)
    transfer = transfer.astype(np.int64) if isinstance(transfer, np.ndarray) else int(transfer)
    return transfer + config.dma.setup_cycles


def dma_cycles(config: HardwareConfig, num_bytes: int) -> int:
    """Cycles for a DRAM<->L1 DMA transfer of ``num_bytes`` bytes.

    The transfer is limited by the DRAM channel bandwidth and pays a fixed
    per-transfer setup cost (descriptor programming, bus arbitration).
    Zero-byte transfers are free.
    """
    require(num_bytes >= 0, "num_bytes must be >= 0")
    if num_bytes == 0:
        return 0
    return _transfer_cycles(config, num_bytes)


def dma_cycles_batch(config: HardwareConfig, num_bytes: np.ndarray) -> np.ndarray:
    """:func:`dma_cycles` over a numpy array of transfer sizes.

    Evaluates the same expression as the scalar form elementwise, including
    the zero-byte-transfers-are-free rule.
    """
    return np.where(num_bytes == 0, 0, _transfer_cycles(config, num_bytes))
