"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads.suites import list_suites


def _header_cells(out: str, title: str) -> list[str]:
    """The header cells of the printed table whose title contains ``title``."""
    lines = out.splitlines()
    (index,) = [i for i, line in enumerate(lines) if title in line]
    return [cell.strip() for cell in lines[index + 1].split(" | ")]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["networks"],
            ["compare", "BERT-Base"],
            ["table2", "--budget", "10", "--networks", "ViT-B/14"],
            ["fig5", "--no-search"],
            ["limits", "--emb", "128"],
            ["sdunet"],
            ["ablation", "overwrite"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_exec_flags_parse(self):
        args = build_parser().parse_args(
            ["table2", "--jobs", "4", "--cache", "/tmp/c", "--no-cache"]
        )
        assert args.jobs == 4 and args.cache_uri == "/tmp/c" and args.no_cache
        defaults = build_parser().parse_args(["fig6"])
        assert defaults.jobs == 1 and not defaults.no_cache
        # --cache is the one flag naming a store
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--cache-dir", "/tmp/c"])

    def test_cache_uri_flag_parses(self):
        args = build_parser().parse_args(["table2", "--cache", "http://cachehost:8787"])
        assert args.cache_uri == "http://cachehost:8787"
        assert build_parser().parse_args(["fig7"]).cache_uri is None

    def test_sweeps_and_cache_group_resolve_env_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        """With $MAS_CACHE_URI set, a sweep and `cache stats` use one store."""
        monkeypatch.setenv("MAS_CACHE_URI", f"dir:{tmp_path}/env")
        assert main(["table2", "--budget", "4", "--networks", "ViT-B/14"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries : 5" in out and f"dir:{tmp_path}/env" in out

    def test_explicit_cache_dir_beats_env_uri(self, tmp_path, monkeypatch):
        """$MAS_CACHE_URI is the *fallback*: an explicit --cache directory wins."""
        monkeypatch.setenv("MAS_CACHE_URI", f"dir:{tmp_path}/env")
        explicit = tmp_path / "explicit"
        assert (
            main(
                ["table2", "--budget", "4", "--networks", "ViT-B/14",
                 "--cache", str(explicit)]
            )
            == 0
        )
        assert len(list(explicit.glob("*.json"))) == 5
        assert not (tmp_path / "env").exists()

    def test_search_flags_parse(self):
        args = build_parser().parse_args(["table2", "--stream"])
        assert args.stream
        defaults = build_parser().parse_args(["fig7"])
        assert not defaults.stream
        # Each tiling search runs in its pair's process: no worker flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--search-workers", "2"])


class TestCommands:
    def test_networks_lists_table1(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "BERT-Base" in out and "XLM" in out and "Table 1" in out

    def test_compare_runs_all_methods(self, capsys):
        assert main(["compare", "ViT-B/14"]) == 0
        out = capsys.readouterr().out
        for method in ("layerwise", "flat", "mas"):
            assert method in out

    def test_limits_command(self, capsys):
        assert main(["limits"]) == 0
        assert "FLAT / MAS" in capsys.readouterr().out

    def test_table2_fast_path_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "t2.json"
        code = main(
            ["table2", "--no-search", "--networks", "ViT-B/14", "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "MAS vs flat" in out
        payload = json.loads(json_path.read_text())
        assert "rows" in payload and payload["rows"]
        assert all(len(row) == len(payload["columns"]) for row in payload["rows"])
        assert payload["columns"] == _header_cells(out, "Table 2")

    def test_dram_command_standard_only(self, capsys):
        code = main(["dram", "--no-search", "--networks", "ViT-B/14"])
        assert code == 0
        assert "DRAM accesses" in capsys.readouterr().out

    def test_dram_json_holds_the_constrained_table(self, capsys, tmp_path):
        """The JSON holds every row the text prints, the constrained-L1 table
        where the overwrite path fires included."""
        json_path = tmp_path / "dram.json"
        code = main(["dram", "--no-search", "--networks", "BERT-Base", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "constrained L1" in out
        payload = json.loads(json_path.read_text())
        (standard,) = payload["rows"]
        (constrained,) = payload["constrained_rows"]
        assert standard[0] == constrained[0] == "BERT-Base & T5-Base"
        assert standard[-1] == 0 and constrained[-1] > 0  # overwrite events
        assert len(standard) == len(constrained) == len(payload["columns"])
        assert payload["columns"] == _header_cells(out, "standard edge device")
        assert payload["columns"] == _header_cells(out, "constrained L1")

    def test_table2_streaming_progress(self, capsys):
        code = main(
            ["table2", "--budget", "5", "--networks", "ViT-B/14", "--stream"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "[1/6]" in captured.err and "[6/6]" in captured.err
        assert "cycles" in captured.err

    def test_timeline_command(self, capsys):
        code = main(["timeline", "ViT-B/14", "--methods", "flat", "mas", "--width", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "core0.mac" in out and "core0.vec" in out and "legend" in out

    def test_timeline_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["timeline", "ViT-B/14", "--methods", "warp"])

    def test_lint_takes_the_drivers_arguments(self, capsys):
        """``mas-attention lint`` hands its arguments to the mas-lint driver, so
        ``--list-checks`` needs no path and prints the driver's lines."""
        from repro.devtools import lint

        assert lint.main(["--list-checks"]) == 0
        expected = capsys.readouterr().out
        assert main(["lint", "--list-checks"]) == 0
        assert capsys.readouterr().out == expected

    def test_unknown_argument_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["networks", "--bogus"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_sweep_command(self, capsys):
        code = main(["sweep", "vec_throughput", "--network", "ViT-B/14", "--no-search"])
        assert code == 0
        assert "MAS speedup" in capsys.readouterr().out


class TestSuiteCli:
    def test_suite_flags_parse(self):
        args = build_parser().parse_args(
            ["table2", "--suite", "table1-batched", "--batch", "8"]
        )
        assert args.suite == "table1-batched" and args.batch == 8
        defaults = build_parser().parse_args(["table3"])
        assert defaults.suite is None and defaults.batch is None
        for command in ("table2", "table3", "fig5", "fig6", "fig7", "dram"):
            parsed = build_parser().parse_args([command, "--suite", "long-context"])
            assert parsed.suite == "long-context"

    def test_suite_help_names_every_builtin(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # no line breaks inside a name
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        help_line = next(line for line in out.splitlines() if "--suite SUITE " in line)
        for name in list_suites():
            assert name in help_line, name

    def test_suites_command_lists_builtins(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table1-batched", "cross-attention", "long-context"):
            assert name in out

    def test_suites_command_expands_a_spec(self, capsys):
        assert main(["suites", "table1@batch=8"]) == 0
        out = capsys.readouterr().out
        assert "ViT-B/14 @b8" in out and "table1@batch=8" in out

    def test_suites_command_lists_exactly_the_builtins(self, capsys):
        assert main(["suites"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split("|")[0].strip() for line in lines if "|" in line]
        assert names == [
            "Suite",  # the header row
            "table1",
            "table1-batched",
            "cross-attention",
            "long-context",
            "decode-step",
            "gqa",
        ]

    def test_suites_command_titles_a_spec_by_its_canonical_name(self, capsys):
        assert main(["suites", "long @ seq<=2048"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Suite long-context@seq<=2048: ")
        assert "BERT-Base @n2048" in out and "Llama3-8B @n2048" in out

    def test_suites_command_rejects_unknown(self):
        with pytest.raises(KeyError):
            main(["suites", "table9"])

    def test_table2_suite_table1_output_identical_to_default(self, capsys):
        assert main(["table2", "--no-search", "--networks", "ViT-B/14"]) == 0
        default_out = capsys.readouterr().out
        assert main(["table2", "--no-search", "--networks", "ViT-B/14", "--suite", "table1"]) == 0
        assert capsys.readouterr().out == default_out
        assert "suite" not in default_out

    def test_table2_cross_attention_suite(self, capsys):
        code = main(["table2", "--no-search", "--suite", "cross-attention@seq<=128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sd.mid.xattn" in out and "cross-attention" in out

    def test_table2_batch_shorthand(self, capsys):
        code = main(
            ["table2", "--no-search", "--batch", "8", "--networks", "ViT-B/14 @b8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ViT-B/14 @b8" in out and "table1@batch=8" in out

    def test_streaming_works_with_suites(self, capsys):
        code = main(
            ["table2", "--no-search", "--suite", "cross-attention@seq<=128", "--stream"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[1/6]" in captured.err and "sd.mid.xattn" in captured.err

    def test_suites_command_lists_decode_step(self, capsys):
        assert main(["suites", "decode-step"]) == 0
        out = capsys.readouterr().out
        assert "XLM @dec" in out and "decode-step" in out


class TestCacheCli:
    """The ``mas-attention cache`` group: stats / ls / evict / clear."""

    @pytest.fixture
    def warm_dir(self, tmp_path):
        """A small jsondir cache populated by a real (tiny) sweep."""
        cache_dir = tmp_path / "cache"
        assert (
            main(
                ["table2", "--budget", "4", "--networks", "ViT-B/14",
                 "--cache", f"dir:{cache_dir}"]
            )
            == 0
        )
        return cache_dir

    def test_cache_requires_subcommand_and_target(self, monkeypatch):
        monkeypatch.delenv("MAS_CACHE_URI", raising=False)
        with pytest.raises(SystemExit):
            main(["cache"])
        with pytest.raises(SystemExit, match="no result store"):
            main(["cache", "stats"])
        # a whitespace-only target is as good as none: same clear error
        with pytest.raises(SystemExit, match="no result store"):
            main(["cache", "stats", "--cache", "  "])

    def test_stats_and_ls(self, warm_dir, capsys):
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", f"dir:{warm_dir}"]) == 0
        out = capsys.readouterr().out
        assert "entries : 5" in out and "backend : jsondir" in out and "stale   : 0" in out

        assert main(["cache", "ls", "--cache", str(warm_dir)]) == 0
        out = capsys.readouterr().out
        assert "ViT-B/14" in out and "mas" in out and "table1" in out

        assert main(["cache", "ls", "--cache", str(warm_dir), "--scheduler", "mas"]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out

    def test_ls_suite_finds_entries_swept_under_another_spelling(self, tmp_path, capsys):
        """Entries record the suite's canonical name, so ``ls --suite`` with
        that name finds a sweep whose ``--suite`` was spelled otherwise."""
        cache_dir = tmp_path / "cache"
        assert (
            main(
                ["table2", "--budget", "4", "--suite", "Table1 @ batch = 2",
                 "--networks", "ViT-B/14 @b2", "--cache", f"dir:{cache_dir}"]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "ls", "--cache", str(cache_dir), "--suite", "table1@batch=2"]) == 0
        out = capsys.readouterr().out
        assert "5 entries" in out and "ViT-B/14 @b2" in out

    def test_ls_suite_filter_matches_any_spelling_of_a_spec(self, tmp_path, capsys):
        """``ls --suite`` resolves a spec filter to the suite's canonical name,
        so every spelling of it lists the same entries; a name that is no spec
        is matched as typed."""
        cache_dir = tmp_path / "cache"
        assert (
            main(
                ["table2", "--budget", "4", "--suite", "table1@batch=2",
                 "--networks", "ViT-B/14 @b2", "--cache", f"dir:{cache_dir}"]
            )
            == 0
        )
        capsys.readouterr()
        listings = []
        for spelling in ("table1@batch=2", "table1@ batch=2", "Table1 @ batch = 2"):
            assert main(["cache", "ls", "--cache", str(cache_dir), "--suite", spelling]) == 0
            listings.append(capsys.readouterr().out)
        assert "5 entries" in listings[0] and "ViT-B/14 @b2" in listings[0]
        assert listings[1] == listings[0] and listings[2] == listings[0]
        assert main(["cache", "ls", "--cache", str(cache_dir), "--suite", "my-shapes"]) == 0
        assert "ViT-B/14" not in capsys.readouterr().out

    def test_warm_sweep_evict_clear(self, warm_dir, capsys):
        uri = f"dir:{warm_dir}"
        capsys.readouterr()
        # the store serves a warm sweep: every streamed pair is a cache hit
        assert (
            main(
                ["table2", "--budget", "4", "--networks", "ViT-B/14",
                 "--cache", uri, "--stream"]
            )
            == 0
        )
        assert capsys.readouterr().err.count("(cached)") == 5

        assert main(["cache", "evict", "--cache", uri, "--max-entries", "2"]) == 0
        assert "evicted 3 entries; 2 remain" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache", uri]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_evict_without_caps_errors(self, warm_dir):
        with pytest.raises(SystemExit, match="nothing to enforce"):
            main(["cache", "evict", "--cache", str(warm_dir)])
