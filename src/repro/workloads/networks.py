"""The Table-1 network registry.

Table 1 of the paper lists the attention-layer hyper-parameters of the
transformer networks used throughout the evaluation.  ``EmbK,V`` is the
per-head embedding (head dimension); the hidden size is ``heads * emb`` except
for the ViT variants where the patch embedding differs slightly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.utils.validation import check_positive_int
from repro.workloads.attention import AttentionWorkload


@dataclass(frozen=True)
class NetworkConfig:
    """One row of Table 1: the attention-layer shape of a network."""

    name: str
    heads: int
    seq: int
    hidden: int
    emb: int

    def __post_init__(self) -> None:
        check_positive_int(self.heads, "heads")
        check_positive_int(self.seq, "seq")
        check_positive_int(self.hidden, "hidden")
        check_positive_int(self.emb, "emb")

    def workload(self, batch: int = 1) -> AttentionWorkload:
        """Instantiate the attention workload for this network."""
        return AttentionWorkload.self_attention(
            heads=self.heads,
            seq=self.seq,
            emb=self.emb,
            batch=batch,
            name=self.name,
        )


# Table 1: Network Configuration and Hyper-Parameters.
_TABLE1: tuple[NetworkConfig, ...] = (
    NetworkConfig("BERT-Base & T5-Base", heads=12, seq=512, hidden=768, emb=64),
    NetworkConfig("BERT-Large & T5-Large", heads=16, seq=512, hidden=1024, emb=64),
    NetworkConfig("BERT-Small", heads=8, seq=512, hidden=512, emb=64),
    NetworkConfig("Llama3-8B & T5-3B (T5-XL)", heads=32, seq=512, hidden=4096, emb=128),
    NetworkConfig("T5-Mini & T5-Small", heads=8, seq=512, hidden=256, emb=32),
    NetworkConfig("ViT-B/14", heads=12, seq=196, hidden=768, emb=64),
    NetworkConfig("ViT-L/14", heads=16, seq=196, hidden=1024, emb=64),
    NetworkConfig("ViT-H/14", heads=16, seq=196, hidden=1280, emb=80),
    NetworkConfig("ViT-B/16", heads=12, seq=256, hidden=768, emb=64),
    NetworkConfig("ViT-L/16", heads=16, seq=256, hidden=1024, emb=64),
    NetworkConfig("ViT-H/16", heads=16, seq=256, hidden=1280, emb=80),
    NetworkConfig("XLM", heads=8, seq=512, hidden=1024, emb=128),
)

NETWORKS: dict[str, NetworkConfig] = {cfg.name: cfg for cfg in _TABLE1}


def list_networks() -> list[str]:
    """Names of all Table-1 networks in paper order."""
    return [cfg.name for cfg in _TABLE1]


_PAREN_RE = re.compile(r"^(?P<head>[^(]*)\((?P<alt>[^)]*)\)(?P<rest>.*)$")
_TAG_RE = re.compile(r"(?: @\S+)+$")


def name_aliases(name: str) -> tuple[str, ...]:
    """Alternative lookup names of a registry entry.

    Table-1 rows that share a shape are registered under one ``&``-joined name
    (``"BERT-Base & T5-Base"``); each part is accepted as an alias, and a
    parenthesized alternative spelling inside a part (``"T5-3B (T5-XL)"``)
    yields both the bare part and the alternative.  A derived suite's trailing
    tag (``" @b8"``, ``" @n2048"``) is re-attached to *every* alias, so
    batched entries stay addressable from either side too
    (``"BERT-Base @b8"`` and ``"T5-Base @b8"`` both work).
    """
    tag_match = _TAG_RE.search(name)
    tag = tag_match.group(0) if tag_match else ""
    base = name[: len(name) - len(tag)].rstrip() if tag else name
    aliases: list[str] = []
    for part in base.split("&"):
        part = part.strip()
        if not part or part == base:
            continue
        aliases.append(part)
        match = _PAREN_RE.match(part)
        if match:
            rest = match["rest"].rstrip()
            aliases.append((match["head"].strip() + rest).strip())
            aliases.append((match["alt"].strip() + rest).strip())
    return tuple(dict.fromkeys(alias + tag for alias in aliases if alias))


def resolve_name(query: str, names: Iterable[str], kind: str = "network") -> str:
    """Resolve ``query`` against ``names`` by exact, alias or prefix match.

    Resolution order: exact name, then case-insensitive exact name or alias
    (aliases are the ``&``-split parts, see :func:`name_aliases`), then
    case-insensitive prefix of a name or alias.  A query matching several
    distinct entries raises a ``KeyError`` (ambiguous), as does an unknown one.
    """
    candidates = list(names)
    if query in candidates:
        return query
    lowered = query.lower()

    def lookup_names(name: str) -> list[str]:
        return [name, *name_aliases(name)]

    exact = [
        n for n in candidates if any(lowered == a.lower() for a in lookup_names(n))
    ]
    if len(exact) == 1:
        return exact[0]
    if exact:
        raise KeyError(f"ambiguous {kind} name {query!r}; matches: {exact}")
    prefix = [
        n
        for n in candidates
        if any(a.lower().startswith(lowered) for a in lookup_names(n))
    ]
    if len(prefix) == 1:
        return prefix[0]
    if not prefix:
        raise KeyError(f"unknown {kind} {query!r}; available: {candidates}")
    raise KeyError(f"ambiguous {kind} name {query!r}; matches: {prefix}")


def get_network(name: str) -> NetworkConfig:
    """Look up a Table-1 network by exact, alias or case-insensitive prefix match.

    ``&``-joined rows resolve from either side: ``"T5-Base"`` and
    ``"BERT-Base"`` both find ``"BERT-Base & T5-Base"``, and parenthesized
    alternative spellings work too (``"T5-XL"`` finds the T5-3B row).
    """
    return NETWORKS[resolve_name(name, list_networks())]


def table1_rows() -> list[dict[str, int | str]]:
    """Table 1 as a list of dict rows (for reports and the CLI)."""
    return [
        {
            "network": cfg.name,
            "heads": cfg.heads,
            "seq": cfg.seq,
            "hidden": cfg.hidden,
            "emb_kv": cfg.emb,
        }
        for cfg in _TABLE1
    ]
