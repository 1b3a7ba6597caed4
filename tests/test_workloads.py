"""Unit tests for :mod:`repro.workloads` (attention shapes, Table 1, suites, SD-1.5 UNet)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.workloads.attention import AttentionWorkload
from repro.workloads.networks import (
    NETWORKS,
    get_network,
    list_networks,
    name_aliases,
    table1_rows,
)
from repro.workloads.stable_diffusion import (
    sd15_cross_attention_units,
    sd15_reduced_unet,
)
from repro.workloads.suites import (
    GQA_CONFIGS,
    LONG_CONTEXT_SEQS,
    TABLE1_BATCH_SIZES,
    SuiteEntry,
    WorkloadSuite,
    get_suite,
    list_suites,
    parse_suite_spec,
)


class TestAttentionWorkload:
    def test_self_attention_constructor(self):
        wl = AttentionWorkload.self_attention(heads=12, seq=512, emb=64, name="bert")
        assert wl.seq_q == wl.seq_kv == 512
        assert wl.name == "bert"
        assert wl.num_head_blocks == 12

    def test_derived_sizes(self):
        wl = AttentionWorkload(batch=2, heads=4, seq_q=128, seq_kv=256, emb=32, dtype_bytes=2)
        assert wl.q_elements == 2 * 4 * 128 * 32
        assert wl.kv_elements == 2 * 4 * 256 * 32
        assert wl.score_elements == 2 * 4 * 128 * 256
        assert wl.q_bytes == wl.q_elements * 2
        assert wl.input_bytes == wl.q_bytes + wl.k_bytes + wl.v_bytes
        assert wl.output_bytes == wl.q_bytes

    def test_work_counts(self):
        wl = AttentionWorkload(batch=1, heads=2, seq_q=64, seq_kv=64, emb=16)
        assert wl.qk_macs == 2 * 64 * 64 * 16
        assert wl.pv_macs == wl.qk_macs
        assert wl.total_macs == 2 * wl.qk_macs
        assert wl.softmax_elements == wl.score_elements

    def test_with_seq_and_with_batch(self):
        wl = AttentionWorkload.self_attention(heads=2, seq=64, emb=16)
        longer = wl.with_seq(256)
        assert longer.seq_q == longer.seq_kv == 256
        cross = wl.with_seq(64, 128)
        assert cross.seq_q == 64 and cross.seq_kv == 128
        assert wl.with_batch(4).batch == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            AttentionWorkload(heads=0)
        with pytest.raises(ValueError):
            AttentionWorkload(seq_q=-1)

    def test_describe_contains_shape(self):
        text = AttentionWorkload.self_attention(heads=8, seq=512, emb=128, name="XLM").describe()
        assert "XLM" in text and "H=8" in text and "Nq=512" in text


class TestTable1Registry:
    def test_all_twelve_networks_present(self):
        assert len(list_networks()) == 12
        assert len(NETWORKS) == 12

    @pytest.mark.parametrize(
        "name, heads, seq, hidden, emb",
        [
            ("BERT-Base & T5-Base", 12, 512, 768, 64),
            ("BERT-Large & T5-Large", 16, 512, 1024, 64),
            ("BERT-Small", 8, 512, 512, 64),
            ("Llama3-8B & T5-3B (T5-XL)", 32, 512, 4096, 128),
            ("T5-Mini & T5-Small", 8, 512, 256, 32),
            ("ViT-B/14", 12, 196, 768, 64),
            ("ViT-L/14", 16, 196, 1024, 64),
            ("ViT-H/14", 16, 196, 1280, 80),
            ("ViT-B/16", 12, 256, 768, 64),
            ("ViT-L/16", 16, 256, 1024, 64),
            ("ViT-H/16", 16, 256, 1280, 80),
            ("XLM", 8, 512, 1024, 128),
        ],
    )
    def test_table1_values(self, name, heads, seq, hidden, emb):
        """Every row of Table 1 is reproduced exactly."""
        cfg = get_network(name)
        assert (cfg.heads, cfg.seq, cfg.hidden, cfg.emb) == (heads, seq, hidden, emb)

    def test_prefix_lookup(self):
        assert get_network("BERT-Base").heads == 12
        assert get_network("llama3").emb == 128
        with pytest.raises(KeyError):
            get_network("GPT-7")
        with pytest.raises(KeyError, match="ambiguous"):
            get_network("ViT")

    def test_exact_lookup(self):
        assert get_network("XLM").name == "XLM"
        assert get_network("BERT-Base & T5-Base").name == "BERT-Base & T5-Base"

    def test_alias_lookup_resolves_amp_joined_rows(self):
        """Every side of an ``&``-joined Table-1 row is a valid lookup name."""
        assert get_network("T5-Base").name == "BERT-Base & T5-Base"
        assert get_network("t5-large").name == "BERT-Large & T5-Large"
        assert get_network("T5-Small").name == "T5-Mini & T5-Small"
        assert get_network("T5-3B").name == "Llama3-8B & T5-3B (T5-XL)"
        assert get_network("T5-XL").name == "Llama3-8B & T5-3B (T5-XL)"
        assert get_network("Llama3-8B").name == "Llama3-8B & T5-3B (T5-XL)"

    def test_alias_prefix_lookup(self):
        assert get_network("BERT-L").name == "BERT-Large & T5-Large"
        assert get_network("t5-mi").name == "T5-Mini & T5-Small"

    def test_ambiguous_alias_lookup(self):
        with pytest.raises(KeyError, match="ambiguous"):
            get_network("T5")  # T5-Base, T5-Large, T5-3B, T5-Mini, ...
        with pytest.raises(KeyError, match="ambiguous"):
            get_network("BERT")

    def test_unknown_lookup_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_network("GPT-7")

    def test_name_aliases(self):
        assert name_aliases("XLM") == ()
        assert name_aliases("BERT-Base & T5-Base") == ("BERT-Base", "T5-Base")
        assert set(name_aliases("Llama3-8B & T5-3B (T5-XL)")) == {
            "Llama3-8B",
            "T5-3B (T5-XL)",
            "T5-3B",
            "T5-XL",
        }
        # Derived-suite tags are re-attached to every alias, first part included.
        tagged = name_aliases("Llama3-8B & T5-3B (T5-XL) @b8")
        assert {"Llama3-8B @b8", "T5-3B @b8", "T5-XL @b8"} <= set(tagged)
        assert "BERT-Base @b4" in name_aliases("BERT-Base & T5-Base @b4")

    def test_workload_instantiation(self):
        wl = get_network("XLM").workload(batch=2)
        assert wl.heads == 8 and wl.seq_q == 512 and wl.emb == 128 and wl.batch == 2
        assert wl.name == "XLM"

    def test_table1_rows_shape(self):
        rows = table1_rows()
        assert len(rows) == 12
        assert set(rows[0]) == {"network", "heads", "seq", "hidden", "emb_kv"}


class TestStableDiffusionWorkload:
    def test_fifteen_units(self):
        unet = sd15_reduced_unet()
        assert unet.num_units == 15

    def test_largest_unit_matches_paper(self):
        """The largest attention layer has 2 heads, N=4096, E=64 (Section 5.2.2)."""
        largest = sd15_reduced_unet().largest_unit
        assert largest.heads == 2 and largest.seq == 4096 and largest.emb == 64

    def test_workloads_generated_for_all_units(self):
        unet = sd15_reduced_unet()
        workloads = unet.workloads()
        assert len(workloads) == 15
        assert all(w.seq_q == w.seq_kv for w in workloads)

    def test_non_attention_fraction_bounds(self):
        unet = sd15_reduced_unet()
        assert 0.0 <= unet.non_attention_fraction < 1.0


class TestWorkloadSuites:
    def test_four_builtin_suites(self):
        assert len(list_suites()) >= 4
        assert set(list_suites()) >= {
            "table1",
            "table1-batched",
            "cross-attention",
            "long-context",
        }

    @pytest.mark.parametrize(
        "name",
        [
            "table1",
            "table1-batched",
            "cross-attention",
            "long-context",
            "decode-step",
            "gqa",
        ],
    )
    def test_suite_invariants(self, name):
        """Unique entry names, positive shape fields, name-normalized workloads."""
        suite = get_suite(name)
        names = suite.entry_names()
        assert len(names) == len(set(names)) == len(suite) > 0
        for entry in suite:
            wl = entry.workload
            assert wl.name == entry.name
            assert min(wl.batch, wl.heads, wl.seq_q, wl.seq_kv, wl.emb, wl.dtype_bytes) > 0

    def test_table1_suite_matches_network_registry(self):
        """The default suite *is* Table 1: same names, same order, same shapes."""
        suite = get_suite("table1")
        assert suite.entry_names() == list_networks()
        for name in list_networks():
            assert suite.workload_for(name) == get_network(name).workload()

    def test_table1_batched_covers_every_batch(self):
        suite = get_suite("table1-batched")
        assert len(suite) == len(list_networks()) * len(TABLE1_BATCH_SIZES)
        assert {e.workload.batch for e in suite} == set(TABLE1_BATCH_SIZES)
        for batch in TABLE1_BATCH_SIZES:
            assert f"ViT-B/14 @b{batch}" in suite.entry_names()

    def test_cross_attention_entries_are_cross(self):
        suite = get_suite("cross-attention")
        assert len(suite) >= 4
        for entry in suite:
            assert entry.workload.seq_q != entry.workload.seq_kv
            assert entry.workload.is_cross_attention

    def test_cross_attention_promotes_sd_unet_shapes(self):
        """The SD ladder entries match the promoted cross-attention units."""
        suite = get_suite("cross-attention")
        for unit in sd15_cross_attention_units():
            assert suite.workload_for(unit.name) == unit.workload()
            assert unit.is_cross_attention

    def test_long_context_sweeps_2k_to_32k(self):
        suite = get_suite("long-context")
        seqs = sorted({e.workload.seq_q for e in suite})
        assert seqs == sorted(LONG_CONTEXT_SEQS)
        assert min(seqs) == 2048 and max(seqs) == 32768
        assert all(e.workload.seq_q == e.workload.seq_kv for e in suite)

    def test_decode_step_is_one_query_over_table1_kv(self):
        """decode-step: seq_q=1, KV cache at the network's Table-1 length."""
        suite = get_suite("decode-step")
        assert len(suite) == len(list_networks())
        for name in list_networks():
            entry = suite.get_entry(f"{name} @dec")
            cfg = get_network(name)
            wl = entry.workload
            assert wl.seq_q == 1
            assert wl.seq_kv == cfg.seq
            assert wl.heads == cfg.heads and wl.emb == cfg.emb
            assert wl.batch == 1
            assert wl.is_cross_attention  # seq_q != seq_kv by construction

    def test_decode_step_aliases_and_modifiers(self):
        suite = get_suite("decode-step")
        # &-joined Table-1 names resolve from either side, tag included
        assert suite.get_entry("T5-Base @dec").name == "BERT-Base & T5-Base @dec"
        # composes with @batch=N for batched serving sweeps
        batched = get_suite("decode-step@batch=8")
        entry = batched.get_entry("XLM @dec @b8")
        assert entry.workload.batch == 8 and entry.workload.seq_q == 1
        # seq filters key on the KV length (max of the two seqs)
        short = get_suite("decode-step@seq<=256")
        assert all(e.workload.seq_kv <= 256 for e in short)
        assert len(short) > 0

    def test_decode_step_cache_keys_distinct_from_prefill(self):
        """A decode entry never collides with the full self-attention shape."""
        from repro.exec import tuning_cache_key
        from repro.hardware.presets import simulated_edge_device

        hw = simulated_edge_device()
        decode = get_suite("decode-step").workload_for("XLM @dec")
        prefill = get_suite("table1").workload_for("XLM")
        keys = {tuning_cache_key(hw, "mas", wl, "mcts+ga", 10, 0) for wl in (decode, prefill)}
        assert len(keys) == 2

    def test_with_batch_round_trip(self):
        suite = get_suite("table1")
        batched = suite.with_batch(8)
        entry = batched.get_entry("ViT-B/14 @b8")
        expected = get_network("ViT-B/14").workload().with_batch(8)
        assert entry.workload == expected.renamed("ViT-B/14 @b8")
        # re-batching back restores the original shape (names stay tagged)
        assert entry.workload.with_batch(1) == (
            get_network("ViT-B/14").workload().renamed("ViT-B/14 @b8")
        )

    def test_entry_lookup_alias_and_errors(self):
        suite = get_suite("table1-batched")
        assert suite.get_entry("T5-Base @b4").name == "BERT-Base & T5-Base @b4"
        assert suite.get_entry("BERT-Base @b4").name == "BERT-Base & T5-Base @b4"
        with pytest.raises(KeyError, match="ambiguous"):
            suite.get_entry("ViT-B/14")  # @b4 / @b8 / @b16
        with pytest.raises(KeyError, match="unknown"):
            suite.get_entry("GPT-7")

    def test_duplicate_entry_names_rejected(self):
        entry = SuiteEntry("dup", AttentionWorkload.self_attention(heads=2, seq=64, emb=16))
        with pytest.raises(ValueError, match="duplicate"):
            WorkloadSuite(name="bad", description="", entries=(entry, entry))

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSuite(name="empty", description="", entries=())


class TestSuiteSpecs:
    def test_builtin_and_prefix(self):
        assert get_suite("table1").name == "table1"
        assert get_suite("cross").name == "cross-attention"
        assert get_suite("long").name == "long-context"
        # a derived suite is named by its resolved built-in, however spelled
        suite = get_suite("long-context@seq<=2048")
        for spelling in ("long@seq<=2048", "Long-Context@ seq <= 2048"):
            also = get_suite(spelling)
            assert also.name == suite.name == "long-context@seq<=2048"
            assert also.entries == suite.entries

    def test_suite_passthrough(self):
        suite = get_suite("table1")
        assert get_suite(suite) is suite

    def test_batch_modifier(self):
        suite = parse_suite_spec("table1@batch=8")
        assert suite.name == "table1@batch=8"
        assert all(e.workload.batch == 8 for e in suite)
        assert suite.entry_names() == [f"{n} @b8" for n in list_networks()]

    def test_seq_filters(self):
        le = parse_suite_spec("long-context@seq<=8192")
        assert {e.workload.seq_q for e in le} == {2048, 4096, 8192}
        ge = parse_suite_spec("long-context@seq>=16384")
        assert {e.workload.seq_q for e in ge} == {16384, 32768}
        eq = parse_suite_spec("long-context@seq=4096")
        assert {e.workload.seq_q for e in eq} == {4096}

    def test_seq_filter_keys_on_max_seq(self):
        """Cross-attention entries filter on max(seq_q, seq_kv)."""
        suite = parse_suite_spec("cross-attention@seq<=128")
        assert suite.entry_names() == ["sd.mid.xattn"]  # seq_q=64 but seq_kv=77

    def test_modifiers_compose(self):
        suite = parse_suite_spec("table1@batch=4,seq<=256")
        assert all(e.workload.batch == 4 for e in suite)
        assert all(e.workload.max_seq <= 256 for e in suite)
        assert len(suite) == 6  # the six ViT rows
        assert suite.name == "table1@batch=4,seq<=256"
        for spelling in ("table1@batch=4@seq<=256", "table1@batch=4, seq<=256"):
            also = parse_suite_spec(spelling)
            assert also.entry_names() == suite.entry_names()
            assert also.name == suite.name

    @pytest.mark.parametrize(
        ("spelling", "name"),
        [
            ("cross", "cross-attention"),
            ("TABLE1-BATCHED", "table1-batched"),
            ("table1-b@seq>=512", "table1-batched@seq>=512"),
            ("decode@batch=4", "decode-step@batch=4"),
            ("gqa @ batch=2", "gqa@batch=2"),
            ("long @seq=4096", "long-context@seq=4096"),
            ("cross-attention@seq<=128@batch=2", "cross-attention@seq<=128,batch=2"),
            ("table1@ batch = 2 , seq >= 512 @ batch=4", "table1@batch=2,seq>=512,batch=4"),
            ("Table1@seq<=256", "table1@seq<=256"),
        ],
    )
    def test_every_spelling_names_one_suite(self, spelling, name):
        """A suite is named by the canonical spec of its derivation — resolved
        built-in, spaces dropped, modifiers joined by ',' in order — and that
        name parses back to the same suite."""
        suite = get_suite(spelling)
        assert suite.name == name
        canonical = parse_suite_spec(name)
        assert canonical.name == name
        assert canonical.entries == suite.entries

    def test_bad_specs_rejected(self):
        with pytest.raises(KeyError, match="unknown suite"):
            parse_suite_spec("table9")
        with pytest.raises(ValueError, match="modifier"):
            parse_suite_spec("table1@heads=4")
        with pytest.raises(ValueError, match="batch"):
            parse_suite_spec("table1@batch<=4")
        with pytest.raises(ValueError):
            parse_suite_spec("table1@batch=0")
        with pytest.raises(ValueError, match="no entries"):
            parse_suite_spec("table1@seq<=1")

    def test_identical_entries_across_suites(self):
        """The same shape derived through different suites is the same entry —
        the invariant cross-suite cache reuse rests on."""
        via_spec = get_suite("table1@batch=8").get_entry("ViT-B/14 @b8")
        via_batched = get_suite("table1-batched").get_entry("ViT-B/14 @b8")
        assert via_spec == via_batched
        assert via_spec.workload == via_batched.workload


class TestGqaSuite:
    def test_gqa_folding_is_arithmetically_exact(self):
        """The folded workload carries exactly the MHA arithmetic of q_heads
        query heads over kv_heads shared K/V heads."""
        q_heads, kv_heads, seq, emb = 32, 8, 2048, 128
        folded = AttentionWorkload.gqa(q_heads, kv_heads, seq=seq, emb=emb)
        # per-query-head work is unchanged: all q_heads heads' MACs are there
        assert folded.qk_macs == q_heads * seq * seq * emb
        assert folded.softmax_elements == q_heads * seq * seq
        assert folded.q_bytes == q_heads * seq * emb * folded.dtype_bytes
        # ... but K/V carry only the kv_heads shared copies (the GQA win)
        assert folded.k_bytes == kv_heads * seq * emb * folded.dtype_bytes
        assert folded.num_head_blocks == kv_heads

    def test_gqa_constructor_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            AttentionWorkload.gqa(q_heads=10, kv_heads=3, seq=64, emb=64)
        with pytest.raises(ValueError):
            AttentionWorkload.gqa(q_heads=0, kv_heads=1, seq=64, emb=64)
        mqa = AttentionWorkload.gqa(q_heads=8, kv_heads=1, seq=64, emb=64)
        assert mqa.heads == 1 and mqa.seq_q == 8 * 64 and mqa.seq_kv == 64

    def test_gqa_suite_matches_its_configs(self):
        suite = get_suite("gqa")
        assert len(suite) == len(GQA_CONFIGS)
        for name, q_heads, kv_heads, seq, emb in GQA_CONFIGS:
            assert q_heads > kv_heads  # head sharing is the suite's point
            wl = suite.workload_for(name)
            assert wl == AttentionWorkload.gqa(
                q_heads, kv_heads, seq=seq, emb=emb, name=name
            )
            assert wl.heads == kv_heads < q_heads

    def test_gqa_composes_with_modifiers(self):
        batched = get_suite("gqa@batch=4")
        assert all(e.workload.batch == 4 for e in batched)
        assert "llama3-8b.gqa @b4" in batched.entry_names()
        # seq filters key on the *folded* query length (documented behaviour)
        short = get_suite("gqa@seq<=8192")
        assert len(short) > 0
        assert all(e.workload.max_seq <= 8192 for e in short)
        with pytest.raises(ValueError, match="no entries"):
            parse_suite_spec("gqa@seq<=64")


class TestPythonSuites:
    """Any other set of shapes is a :class:`WorkloadSuite` built in Python."""

    @staticmethod
    def prod() -> WorkloadSuite:
        return WorkloadSuite(
            name="prod",
            description="serving shapes",
            entries=(
                SuiteEntry("BERT-Base", get_network("BERT-Base").workload()),
                SuiteEntry("chat", AttentionWorkload.gqa(32, 8, seq=4096, emb=128, batch=4)),
                SuiteEntry("embed", AttentionWorkload.self_attention(heads=16, seq=512, emb=64)),
            ),
        )

    def test_entries_resolve_and_derive_like_builtins(self):
        suite = self.prod()
        assert get_suite(suite) is suite
        bert = get_network("BERT-Base").workload()
        assert suite.workload_for("BERT-Base") == bert.renamed("BERT-Base")
        assert suite.workload_for("chat") == AttentionWorkload.gqa(
            32, 8, seq=4096, emb=128, batch=4, name="chat"
        )
        # chat's folded query length (4 x 4096) fails the filter
        short = suite.filter_seq("<=", 512)
        assert short.name == "prod@seq<=512"
        assert short.entry_names() == ["BERT-Base", "embed"]
        batched = suite.with_batch(8)
        assert batched.name == "prod@batch=8"
        assert all(e.workload.batch == 8 for e in batched)
        assert batched.entry_names() == ["BERT-Base @b8", "chat @b8", "embed @b8"]

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_suite_name_rejected(self, blank):
        with pytest.raises(ValueError, match="suite name must be non-empty"):
            replace(self.prod(), name=blank)

    @pytest.mark.parametrize("blank", ["", "   "])
    def test_blank_entry_name_rejected(self, blank):
        with pytest.raises(ValueError, match="entry name must be non-empty"):
            SuiteEntry(blank, AttentionWorkload(heads=2, seq_q=64, seq_kv=64))
