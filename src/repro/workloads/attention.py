"""Attention workload description.

A workload is the shape of one multi-head attention inference:
``Q, K, V in R^{B x H x N x E}`` (Section 4 of the paper).  The class also
exposes the derived quantities every scheduler and analysis needs: per-operator
FLOPs, tensor sizes in bytes, and arithmetic-intensity style ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.validation import check_positive_int, require

#: Bytes per element of FP16, the paper's precision and every workload's.
FP16_BYTES = 2


@dataclass(frozen=True)
class AttentionWorkload:
    """Shape of a (self- or cross-) attention layer inference.

    Attributes
    ----------
    batch:
        Batch size ``B``.
    heads:
        Number of attention heads ``H``.
    seq_q:
        Query sequence length ``N_q``.
    seq_kv:
        Key/value sequence length ``N_kv`` (equal to ``seq_q`` for
        self-attention).
    emb:
        Per-head embedding size ``E`` (head dimension).
    dtype_bytes:
        Bytes per element; :data:`FP16_BYTES` by default.
    name:
        Optional human-readable label.
    """

    batch: int = 1
    heads: int = 12
    seq_q: int = 512
    seq_kv: int = 512
    emb: int = 64
    dtype_bytes: int = FP16_BYTES
    name: str = ""

    def __post_init__(self) -> None:
        check_positive_int(self.batch, "batch")
        check_positive_int(self.heads, "heads")
        check_positive_int(self.seq_q, "seq_q")
        check_positive_int(self.seq_kv, "seq_kv")
        check_positive_int(self.emb, "emb")
        check_positive_int(self.dtype_bytes, "dtype_bytes")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def self_attention(
        cls,
        heads: int,
        seq: int,
        emb: int,
        batch: int = 1,
        name: str = "",
    ) -> "AttentionWorkload":
        """Self-attention workload where ``seq_q == seq_kv``."""
        return cls(
            batch=batch,
            heads=heads,
            seq_q=seq,
            seq_kv=seq,
            emb=emb,
            name=name,
        )

    @classmethod
    def gqa(
        cls,
        q_heads: int,
        kv_heads: int,
        seq: int,
        emb: int,
        batch: int = 1,
        name: str = "",
    ) -> "AttentionWorkload":
        """Grouped-query (GQA/MQA) attention, folded into an exact dense shape.

        ``q_heads`` query heads share ``kv_heads`` K/V heads (``kv_heads=1``
        is multi-query attention).  The returned workload has ``kv_heads``
        head blocks whose query axis stacks each group's ``q_heads/kv_heads``
        query heads: because softmax and both matmuls operate row-wise over
        queries, this folding is arithmetically *exact* — identical MACs,
        softmax elements and output bytes — while K/V tensors carry only the
        shared ``kv_heads`` copies, which is precisely the memory-traffic
        advantage GQA exists for.  ``max_seq`` (and so suite ``@seq<=``
        filters) consequently sees the folded query length
        ``(q_heads/kv_heads) * seq``.
        """
        check_positive_int(q_heads, "q_heads")
        check_positive_int(kv_heads, "kv_heads")
        require(
            q_heads % kv_heads == 0,
            f"q_heads ({q_heads}) must be a multiple of kv_heads ({kv_heads})",
        )
        group = q_heads // kv_heads
        return cls(
            batch=batch,
            heads=kv_heads,
            seq_q=group * seq,
            seq_kv=seq,
            emb=emb,
            name=name,
        )

    def with_seq(self, seq_q: int, seq_kv: int | None = None) -> "AttentionWorkload":
        """Copy of this workload with different sequence length(s)."""
        return replace(self, seq_q=seq_q, seq_kv=seq_kv if seq_kv is not None else seq_q)

    def with_batch(self, batch: int) -> "AttentionWorkload":
        """Copy of this workload with a different batch size."""
        return replace(self, batch=batch)

    def renamed(self, name: str) -> "AttentionWorkload":
        """Copy of this workload with a different display name."""
        return replace(self, name=name)

    @property
    def is_cross_attention(self) -> bool:
        """Whether queries and keys/values have different sequence lengths."""
        return self.seq_q != self.seq_kv

    @property
    def max_seq(self) -> int:
        """The longer of the two sequence lengths (suite ``seq`` filters key on it)."""
        return max(self.seq_q, self.seq_kv)

    # ------------------------------------------------------------------ #
    # Derived sizes
    # ------------------------------------------------------------------ #
    @property
    def num_head_blocks(self) -> int:
        """Number of independent (batch, head) attention problems."""
        return self.batch * self.heads

    @property
    def q_elements(self) -> int:
        return self.batch * self.heads * self.seq_q * self.emb

    @property
    def kv_elements(self) -> int:
        return self.batch * self.heads * self.seq_kv * self.emb

    @property
    def score_elements(self) -> int:
        """Elements of the intermediate ``C = QK^T`` (and ``P``) matrix."""
        return self.batch * self.heads * self.seq_q * self.seq_kv

    @property
    def output_elements(self) -> int:
        return self.q_elements

    @property
    def q_bytes(self) -> int:
        return self.q_elements * self.dtype_bytes

    @property
    def k_bytes(self) -> int:
        return self.kv_elements * self.dtype_bytes

    @property
    def v_bytes(self) -> int:
        return self.kv_elements * self.dtype_bytes

    @property
    def score_bytes(self) -> int:
        return self.score_elements * self.dtype_bytes

    @property
    def output_bytes(self) -> int:
        return self.output_elements * self.dtype_bytes

    @property
    def input_bytes(self) -> int:
        """Bytes of Q, K and V combined (the mandatory DRAM reads)."""
        return self.q_bytes + self.k_bytes + self.v_bytes

    # ------------------------------------------------------------------ #
    # Work
    # ------------------------------------------------------------------ #
    @property
    def qk_macs(self) -> int:
        """MAC operations of ``C = QK^T``."""
        return self.batch * self.heads * self.seq_q * self.seq_kv * self.emb

    @property
    def pv_macs(self) -> int:
        """MAC operations of ``O = PV``."""
        return self.qk_macs

    @property
    def total_macs(self) -> int:
        return self.qk_macs + self.pv_macs

    @property
    def softmax_elements(self) -> int:
        """Input elements processed by the row-wise softmax."""
        return self.score_elements

    def describe(self) -> str:
        """One-line human readable description of the shape."""
        label = self.name or "attention"
        return (
            f"{label}: B={self.batch} H={self.heads} Nq={self.seq_q} "
            f"Nkv={self.seq_kv} E={self.emb} ({self.dtype_bytes}B/elem)"
        )
