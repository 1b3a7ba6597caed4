"""Unfused reference attention and softmax variants.

Every scheduler's task-graph replay (:mod:`repro.numerics.replay`) is
checked against :func:`reference_attention`; the replay computes its QK and
SM tasks with :func:`attention_scores` and :func:`stable_softmax`, so the
comparison isolates *ordering* differences (tiling, streaming, online
accumulation) rather than differences in the softmax formula itself.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "naive_softmax",
    "stable_softmax",
    "online_softmax",
    "reference_attention",
    "attention_scores",
]


def naive_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax without max-subtraction (overflows for large logits; testing only)."""
    e = np.exp(x)
    return e / np.sum(e, axis=axis, keepdims=True)


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax: subtract the row max before exponentiating."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def online_softmax(x: np.ndarray, tile: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Online (running) softmax over the last axis, processing ``tile`` columns at a time.

    Returns ``(probs, running_max, running_sum)`` where ``probs`` equals
    :func:`stable_softmax` up to floating-point error.  This is the
    single-pass formulation FuseMax (and FlashAttention) builds on: the row
    maximum and normalizer are accumulated incrementally and previously
    computed exponentials are rescaled whenever the maximum grows.
    """
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    n = x.shape[-1]
    running_max = np.full(x.shape[:-1], -np.inf, dtype=x.dtype)
    running_sum = np.zeros(x.shape[:-1], dtype=np.result_type(x.dtype, np.float64))
    exp_chunks: list[np.ndarray] = []
    starts: list[int] = []

    for start in range(0, n, tile):
        chunk = x[..., start : start + tile]
        chunk_max = np.max(chunk, axis=-1)
        new_max = np.maximum(running_max, chunk_max)
        # Rescale the running sum (and previously emitted exponentials) to the
        # new maximum, then fold in the current chunk.
        correction = np.exp(running_max - new_max)
        correction = np.where(np.isfinite(correction), correction, 0.0)
        running_sum = running_sum * correction
        exp_chunk = np.exp(chunk - new_max[..., None])
        running_sum = running_sum + np.sum(exp_chunk, axis=-1)
        for i, prev in enumerate(exp_chunks):
            exp_chunks[i] = prev * correction[..., None]
        exp_chunks.append(exp_chunk)
        starts.append(start)
        running_max = new_max

    probs = np.concatenate(exp_chunks, axis=-1) / running_sum[..., None]
    return probs.astype(x.dtype, copy=False), running_max, running_sum.astype(x.dtype, copy=False)


def attention_scores(q: np.ndarray, k: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Scaled score matrix ``C = scale * Q K^T`` for ``(..., N, E)`` inputs."""
    if scale is None:
        scale = 1.0 / float(np.sqrt(q.shape[-1]))
    return scale * np.einsum("...qe,...ke->...qk", q, k)


def reference_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Unfused exact attention ``O = softmax(scale * Q K^T) V``.

    Accepts any leading batch dimensions; the last two axes are
    ``(sequence, embedding)``.  This is the golden reference every
    scheduler's replay is checked against.
    """
    if q.shape[-1] != k.shape[-1] or k.shape != v.shape:
        raise ValueError(
            f"incompatible shapes: q={q.shape}, k={k.shape}, v={v.shape}"
        )
    scores = attention_scores(q, k, scale)
    probs = stable_softmax(scores, axis=-1)
    return np.einsum("...qk,...ke->...qe", probs, v)
