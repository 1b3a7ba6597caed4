"""Named workload suites: Table-1-style registries beyond batch-1 self-attention.

A :class:`WorkloadSuite` is a named, ordered collection of
``(entry_name, AttentionWorkload)`` rows — the generalization of the Table-1
network registry that the execution layer (:mod:`repro.exec`), the CLI and the
analysis harnesses sweep over.  Six suites are built in:

===================  =========================================================
Suite                Contents
===================  =========================================================
``table1``           the twelve batch-1 self-attention shapes of Table 1; the
                     default everywhere — entry names and order are exactly
                     the Table-1 network names
``table1-batched``   the Table-1 shapes at serving batch sizes 4, 8 and 16
``cross-attention``  encoder-decoder shapes with ``seq_q != seq_kv``: the
                     reduced SD-1.5 UNet's text-conditioned cross-attention
                     ladder (77 CLIP-token context, promoted out of the
                     Section 5.2.2 harness) plus T5-style decoder
                     cross-attention over a full encoder sequence
``long-context``     2K-32K sequence lengths at two representative head/emb
                     configurations (BERT-Base- and Llama3-8B-like)
``decode-step``      autoregressive serving: one decoded query (``seq_q=1``)
                     attending a full KV cache of the network's Table-1
                     sequence length, for every Table-1 shape
``gqa``              GQA/MQA head-sharing shapes (``kv_heads < q_heads``):
                     Llama-3/Mistral-style grouped-query and Falcon/Gemma-
                     style multi-query configurations, folded into exact
                     dense workloads via :meth:`AttentionWorkload.gqa`
===================  =========================================================

Inline *suite specs* derive new suites from a built-in on the fly::

    get_suite("table1")                   # a built-in
    get_suite("table1@batch=8")           # every entry at batch 8
    get_suite("long-context@seq<=8192")   # filter by max(seq_q, seq_kv)
    get_suite("table1@batch=4,seq<=256")  # modifiers compose left to right
    get_suite("gqa@batch=4")              # modifiers work on every suite

Any other set of shapes is a :class:`WorkloadSuite` built in Python and
passed wherever a spec is accepted (``ExperimentRunner(suite=...)``).

Derived entries are renamed deterministically (``"ViT-B/14 @b8"``) and the
entry's workload always carries the entry name, so the same shape reached
through different suites — ``table1@batch=8`` versus the batch-8 third of
``table1-batched`` — is byte-for-byte the same workload and therefore hits the
same persistent tuning-cache key (see
:func:`repro.exec.cache.tuning_cache_key`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.utils.validation import check_positive_int, require
from repro.workloads.attention import AttentionWorkload
from repro.workloads.networks import get_network, list_networks, resolve_name
from repro.workloads.stable_diffusion import sd15_cross_attention_units

__all__ = [
    "SuiteEntry",
    "WorkloadSuite",
    "TABLE1_BATCH_SIZES",
    "LONG_CONTEXT_SEQS",
    "GQA_CONFIGS",
    "list_suites",
    "get_suite",
    "parse_suite_spec",
]

#: Batch sizes of the ``table1-batched`` suite.
TABLE1_BATCH_SIZES: tuple[int, ...] = (4, 8, 16)

#: Sequence lengths of the ``long-context`` suite.
LONG_CONTEXT_SEQS: tuple[int, ...] = (2048, 4096, 8192, 16384, 32768)

#: ``(entry, q_heads, kv_heads, seq, emb)`` rows of the ``gqa`` suite —
#: representative published grouped-query / multi-query serving configs.
GQA_CONFIGS: tuple[tuple[str, int, int, int, int], ...] = (
    ("llama3-8b.gqa", 32, 8, 2048, 128),
    ("llama3-70b.gqa", 64, 8, 2048, 128),
    ("mistral-7b.gqa", 32, 8, 1024, 128),
    ("gemma-2b.mqa", 8, 1, 1024, 256),
    ("falcon-7b.mqa", 71, 1, 512, 64),
    ("starcoder2-15b.mqa", 48, 1, 1024, 128),
)


@dataclass(frozen=True)
class SuiteEntry:
    """One named row of a suite: an entry name plus its attention workload.

    The workload's display name is normalized to the entry name, so every
    consumer (seeds, cache keys, reports) sees one consistent spelling.
    """

    name: str
    workload: AttentionWorkload

    def __post_init__(self) -> None:
        require(bool(self.name.strip()), "suite entry name must be non-empty")
        if self.workload.name != self.name:
            object.__setattr__(self, "workload", self.workload.renamed(self.name))


@dataclass(frozen=True)
class WorkloadSuite:
    """A named, ordered collection of attention workloads to sweep over."""

    name: str
    description: str
    entries: tuple[SuiteEntry, ...]

    def __post_init__(self) -> None:
        require(bool(self.name.strip()), "suite name must be non-empty")
        require(len(self.entries) > 0, f"suite {self.name!r} must contain entries")
        names = [entry.name for entry in self.entries]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        require(not duplicates, f"suite {self.name!r} has duplicate entries {duplicates}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def entry_names(self) -> list[str]:
        """Entry names in suite order."""
        return [entry.name for entry in self.entries]

    def get_entry(self, name: str) -> SuiteEntry:
        """Look up an entry by exact, alias or case-insensitive prefix match.

        Uses the same resolution rules as
        :func:`repro.workloads.networks.get_network`, so ``&``-joined Table-1
        names keep resolving from either side inside any suite.
        """
        resolved = resolve_name(name, self.entry_names(), kind=f"{self.name} entry")
        for entry in self.entries:
            if entry.name == resolved:
                return entry
        raise AssertionError(f"resolved name {resolved!r} missing")  # pragma: no cover

    def workload_for(self, name: str) -> AttentionWorkload:
        """The workload of one entry (same lookup rules as :meth:`get_entry`)."""
        return self.get_entry(name).workload

    def rows(self) -> list[dict[str, int | str]]:
        """The suite as dict rows (for reports and the CLI ``suites`` command)."""
        return [
            {
                "entry": e.name,
                "batch": e.workload.batch,
                "heads": e.workload.heads,
                "seq_q": e.workload.seq_q,
                "seq_kv": e.workload.seq_kv,
                "emb": e.workload.emb,
            }
            for e in self.entries
        ]

    # ------------------------------------------------------------------ #
    # Derivations (the suite-spec modifiers)
    # ------------------------------------------------------------------ #
    def with_batch(self, batch: int) -> "WorkloadSuite":
        """Every entry at batch size ``batch``, renamed ``"<entry> @b<batch>"``.

        The rename is deterministic, so two suites that derive the same batch
        from the same base produce identical entries — the foundation of
        cross-suite cache reuse.
        """
        check_positive_int(batch, "batch")
        return WorkloadSuite(
            name=f"{self.name}@batch={batch}",
            description=f"{self.description} (batch {batch})",
            entries=tuple(
                SuiteEntry(f"{e.name} @b{batch}", e.workload.with_batch(batch))
                for e in self.entries
            ),
        )

    def filter_seq(self, op: str, seq: int) -> "WorkloadSuite":
        """Entries whose ``max(seq_q, seq_kv)`` satisfies ``<op> seq``.

        ``op`` is one of ``"<="``, ``">="`` or ``"="``; an empty result is an
        error (a typo'd bound should not silently sweep nothing).
        """
        check_positive_int(seq, "seq")
        tests = {
            "<=": lambda n: n <= seq,
            ">=": lambda n: n >= seq,
            "=": lambda n: n == seq,
        }
        require(op in tests, f"unknown seq filter op {op!r}; options: {sorted(tests)}")
        kept = tuple(e for e in self.entries if tests[op](e.workload.max_seq))
        require(
            len(kept) > 0,
            f"suite {self.name!r} has no entries with max_seq {op} {seq}",
        )
        return WorkloadSuite(
            name=f"{self.name}@seq{op}{seq}",
            description=f"{self.description} (seq{op}{seq})",
            entries=kept,
        )


# ---------------------------------------------------------------------- #
# Built-in suites
# ---------------------------------------------------------------------- #
def _table1() -> WorkloadSuite:
    return WorkloadSuite(
        name="table1",
        description="the twelve batch-1 self-attention shapes of Table 1",
        entries=tuple(
            SuiteEntry(name, get_network(name).workload()) for name in list_networks()
        ),
    )


def _table1_batched() -> WorkloadSuite:
    base = _table1()
    return WorkloadSuite(
        name="table1-batched",
        description=(
            "Table-1 shapes at serving batch sizes "
            + "/".join(str(b) for b in TABLE1_BATCH_SIZES)
        ),
        entries=tuple(
            entry for batch in TABLE1_BATCH_SIZES for entry in base.with_batch(batch).entries
        ),
    )


def _cross_attention() -> WorkloadSuite:
    sd_entries = [
        SuiteEntry(unit.name, unit.workload()) for unit in sd15_cross_attention_units()
    ]
    # T5-style decoder cross-attention: a decoded chunk of 128 queries attends
    # the full 512-token encoder sequence, at the Table-1 head/emb configs.
    t5_entries = [
        SuiteEntry(
            name,
            AttentionWorkload(heads=heads, seq_q=128, seq_kv=512, emb=emb, name=name),
        )
        for name, heads, emb in (
            ("t5-base.dec.xattn", 12, 64),
            ("t5-large.dec.xattn", 16, 64),
            ("t5-3b.dec.xattn", 32, 128),
        )
    ]
    return WorkloadSuite(
        name="cross-attention",
        description=(
            "encoder-decoder shapes (seq_q != seq_kv): the reduced SD-1.5 UNet "
            "text-conditioned cross-attention ladder plus T5 decoder cross-attention"
        ),
        entries=tuple(sd_entries + t5_entries),
    )


def _long_context() -> WorkloadSuite:
    configs = (("BERT-Base", 12, 64), ("Llama3-8B", 32, 128))
    return WorkloadSuite(
        name="long-context",
        description=(
            "2K-32K sequence lengths at BERT-Base- and Llama3-8B-like head/emb configs"
        ),
        entries=tuple(
            SuiteEntry(
                f"{label} @n{seq}",
                AttentionWorkload.self_attention(heads=heads, seq=seq, emb=emb),
            )
            for seq in LONG_CONTEXT_SEQS
            for label, heads, emb in configs
        ),
    )


def _decode_step() -> WorkloadSuite:
    # One decode step of autoregressive serving: a single new query token
    # attends the whole KV cache, here at the network's Table-1 sequence
    # length.  Batch stays 1 (compose with @batch=N for batched serving).
    entries = []
    for name in list_networks():
        cfg = get_network(name)
        entries.append(
            SuiteEntry(
                f"{name} @dec",
                AttentionWorkload(heads=cfg.heads, seq_q=1, seq_kv=cfg.seq, emb=cfg.emb),
            )
        )
    return WorkloadSuite(
        name="decode-step",
        description=(
            "seq_q=1 decode-step serving shapes: one query token attending the "
            "full Table-1-length KV cache, per network"
        ),
        entries=tuple(entries),
    )


def _gqa() -> WorkloadSuite:
    return WorkloadSuite(
        name="gqa",
        description=(
            "GQA/MQA head-sharing shapes (kv_heads < q_heads), folded into "
            "exact dense workloads (kv_heads head blocks, grouped query axis)"
        ),
        entries=tuple(
            SuiteEntry(
                name,
                AttentionWorkload.gqa(
                    q_heads=q_heads, kv_heads=kv_heads, seq=seq, emb=emb, name=name
                ),
            )
            for name, q_heads, kv_heads, seq, emb in GQA_CONFIGS
        ),
    )


_BUILTIN_SUITES = {
    "table1": _table1,
    "table1-batched": _table1_batched,
    "cross-attention": _cross_attention,
    "long-context": _long_context,
    "decode-step": _decode_step,
    "gqa": _gqa,
}


def list_suites() -> list[str]:
    """Names of the built-in suites, the default (``table1``) first."""
    return list(_BUILTIN_SUITES)


# ---------------------------------------------------------------------- #
# Suite specs
# ---------------------------------------------------------------------- #
_MODIFIER_RE = re.compile(r"^(?P<field>batch|seq)(?P<op><=|>=|=)(?P<value>\d+)$")


def parse_suite_spec(spec: str) -> WorkloadSuite:
    """Build a suite from an inline spec string.

    Grammar: ``<suite>[@<modifier>[,<modifier>...]...]`` where ``<suite>`` is
    a built-in name (prefix match allowed) and each modifier is ``batch=N``
    (re-batch every entry) or ``seq<=N`` / ``seq>=N`` / ``seq=N`` (filter by
    ``max(seq_q, seq_kv)``).  Modifiers apply left to right.

    A derived suite is named ``<built-in>@<modifiers>``: the resolved
    built-in name, then the modifiers without spaces, joined by ``,``.  Every
    spelling of one derivation therefore names the same suite —
    ``long@seq<=2048`` is ``long-context@seq<=2048``, and
    ``table1@batch=4@seq<=256`` is ``table1@batch=4,seq<=256`` — which is
    what runners, reports and ``cache ls --suite`` compare.
    """
    require(bool(spec.strip()), "suite spec must be non-empty")
    base_name, sep, rest = spec.partition("@")
    resolved = resolve_name(base_name.strip(), list_suites(), kind="suite")
    suite = _BUILTIN_SUITES[resolved]()
    if not sep:
        return suite
    modifiers = [
        m.strip().replace(" ", "") for chunk in rest.split("@") for m in chunk.split(",")
    ]
    for modifier in modifiers:
        match = _MODIFIER_RE.match(modifier)
        if match is None:
            raise ValueError(
                f"bad suite modifier {modifier!r} in spec {spec!r}; "
                "expected batch=N, seq=N, seq<=N or seq>=N"
            )
        value = int(match["value"])
        if match["field"] == "batch":
            if match["op"] != "=":
                raise ValueError(f"batch modifier only supports '=', got {modifier!r}")
            suite = suite.with_batch(value)
        else:
            suite = suite.filter_seq(match["op"], value)
    return replace(suite, name=f"{resolved}@{','.join(modifiers)}")


def get_suite(spec: str | WorkloadSuite) -> WorkloadSuite:
    """Resolve a suite: a :class:`WorkloadSuite` passes through, a string is
    parsed as a suite spec (built-in name, prefix thereof, or inline spec)."""
    if isinstance(spec, WorkloadSuite):
        return spec
    return parse_suite_spec(spec)
