"""Stable Diffusion 1.5 reduced-UNet workload (Section 5.2.2).

The paper's end-to-end experiment runs a reduced UNet of Stable Diffusion 1.5
on the mobile device.  The UNet contains 15 attention units; the largest one
has 2 heads, a sequence length of 4096 and an embedding size of 64.  The paper
does not list every unit, so we reconstruct the canonical SD-1.5 UNet
self-attention shapes at the standard 512x512 resolution (latent 64x64) across
the down/mid/up blocks and scale head counts down to match the "reduced" UNet
description (largest unit: 2 heads, N=4096, E=64).

The substitution is documented in DESIGN.md: the end-to-end number only
depends on the list of attention shapes and the share of model latency spent
in attention, both of which are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_positive_int, require
from repro.workloads.attention import AttentionWorkload


@dataclass(frozen=True)
class AttentionUnit:
    """One attention unit inside the UNet.

    ``seq_kv`` distinguishes the two unit kinds of every transformer block:
    ``None`` (the default) is plain self-attention over the latent grid, while
    a value models text-conditioned *cross*-attention — queries keep the
    latent-grid length ``seq`` and keys/values come from the encoder context
    (77 CLIP tokens for SD 1.5).
    """

    name: str
    heads: int
    seq: int
    emb: int
    seq_kv: int | None = None

    @property
    def is_cross_attention(self) -> bool:
        return self.seq_kv is not None and self.seq_kv != self.seq

    def workload(self) -> AttentionWorkload:
        """Attention workload of this unit."""
        if self.seq_kv is None:
            return AttentionWorkload.self_attention(
                heads=self.heads, seq=self.seq, emb=self.emb, name=self.name
            )
        return AttentionWorkload(
            batch=1,
            heads=self.heads,
            seq_q=self.seq,
            seq_kv=self.seq_kv,
            emb=self.emb,
            name=self.name,
        )


@dataclass(frozen=True)
class StableDiffusionUNetWorkload:
    """A reduced SD-1.5 UNet: its attention units plus a non-attention latency share.

    Attributes
    ----------
    units:
        The attention units, ordered as executed.
    non_attention_fraction:
        Fraction of the baseline end-to-end latency spent outside attention
        (convolutions, norms, ...).  The paper reports a 29.4% runtime
        reduction for the largest attention unit translating to a 6% end-to-end
        reduction, which pins the attention share of total latency.
    """

    units: tuple[AttentionUnit, ...]
    non_attention_fraction: float = 0.78

    def __post_init__(self) -> None:
        require(len(self.units) > 0, "UNet must contain at least one attention unit")
        require(
            0.0 <= self.non_attention_fraction < 1.0,
            "non_attention_fraction must lie in [0, 1)",
        )

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def largest_unit(self) -> AttentionUnit:
        """The attention unit with the most score elements (the 2x4096x64 one)."""
        return max(self.units, key=lambda u: u.heads * u.seq * u.seq)

    def workloads(self) -> list[AttentionWorkload]:
        """Attention workloads for every unit."""
        return [u.workload() for u in self.units]


def sd15_reduced_unet() -> StableDiffusionUNetWorkload:
    """The reduced SD-1.5 UNet used in Section 5.2.2 (15 attention units).

    Resolutions follow the SD-1.5 UNet ladder for 512x512 images (latent grid
    64x64 -> N=4096 at the outermost level, halving per block down to 8x8 ->
    N=64 at the mid block).  Head counts are reduced so that the largest unit
    matches the paper's description (2 heads, N=4096, E=64).
    """
    down = [
        AttentionUnit("down.0.attn0", heads=2, seq=4096, emb=64),
        AttentionUnit("down.0.attn1", heads=2, seq=4096, emb=64),
        AttentionUnit("down.1.attn0", heads=2, seq=1024, emb=64),
        AttentionUnit("down.1.attn1", heads=2, seq=1024, emb=64),
        AttentionUnit("down.2.attn0", heads=2, seq=256, emb=64),
        AttentionUnit("down.2.attn1", heads=2, seq=256, emb=64),
    ]
    mid = [AttentionUnit("mid.attn0", heads=2, seq=64, emb=64)]
    up = [
        AttentionUnit("up.1.attn0", heads=2, seq=256, emb=64),
        AttentionUnit("up.1.attn1", heads=2, seq=256, emb=64),
        AttentionUnit("up.1.attn2", heads=2, seq=256, emb=64),
        AttentionUnit("up.2.attn0", heads=2, seq=1024, emb=64),
        AttentionUnit("up.2.attn1", heads=2, seq=1024, emb=64),
        AttentionUnit("up.2.attn2", heads=2, seq=1024, emb=64),
        AttentionUnit("up.3.attn0", heads=2, seq=4096, emb=64),
        AttentionUnit("up.3.attn1", heads=2, seq=4096, emb=64),
    ]
    units = tuple(down + mid + up)
    assert len(units) == 15, "the reduced UNet must contain exactly 15 attention units"
    return StableDiffusionUNetWorkload(units=units)


#: Context length of the SD-1.5 text encoder (CLIP ViT-L/14: 77 tokens).
SD15_TEXT_TOKENS = 77


def sd15_cross_attention_units() -> tuple[AttentionUnit, ...]:
    """Text-conditioned cross-attention units of the reduced SD-1.5 UNet.

    Every transformer block of the UNet pairs its self-attention with a
    cross-attention over the CLIP text embedding: queries keep the block's
    latent-grid length (4096 down to 64 across the resolution ladder) while
    keys/values are the 77 text tokens.  One unit per distinct level is
    enough for a sweep registry — the repeated blocks of
    :func:`sd15_reduced_unet` share these shapes exactly.
    """
    return tuple(
        AttentionUnit(name, heads=2, seq=seq, emb=64, seq_kv=SD15_TEXT_TOKENS)
        for name, seq in (
            ("sd.down.0.xattn", 4096),
            ("sd.down.1.xattn", 1024),
            ("sd.down.2.xattn", 256),
            ("sd.mid.xattn", 64),
        )
    )
