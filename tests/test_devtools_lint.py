"""mas-lint self-tests: every checker catches its seeded bad fixture, clean
fixtures pass, the real tree lints clean, and the gate semantics (suppression
tags, exit codes) hold."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from repro.devtools import lint
from repro.devtools.findings import Finding
from repro.devtools.suppress import BAD_SUPPRESSION, parse_suppressions

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = TESTS_DIR / "lint_fixtures"
SRC_REPRO = REPO_ROOT / "src" / "repro"


def run_lint(*paths):
    return lint.lint_paths([Path(p) for p in paths])


def checks_of(result):
    return [f.check for f in result.sorted()]


# --------------------------------------------------------------------------- #
# per-checker fixtures: bad is caught, good is clean
# --------------------------------------------------------------------------- #
def test_bad_locks_fixture_caught():
    result = run_lint(FIXTURES / "bad_locks.py")
    findings = [f for f in result.sorted() if f.check == "lock-discipline"]
    assert len(findings) == 6
    messages = "\n".join(f.message for f in findings)
    assert "read of lock-guarded attribute self._counts" in messages
    assert "write to lock-guarded attribute self._counts" in messages
    assert "write to lock-guarded attribute self.total" in messages
    assert "under-lock helper self._drain_locked()" in messages
    # the keyed-lock idiom (scope contexts from a KeyedLocks pool) is
    # understood the same way: accesses outside .key()/.store() are races
    assert "read of lock-guarded attribute self._versions" in messages
    assert "write to lock-guarded attribute self._versions" in messages
    assert checks_of(result) == ["lock-discipline"] * 6


def test_bad_determinism_fixture_caught():
    result = run_lint(FIXTURES / "bad_determinism.py")
    assert checks_of(result) == ["determinism"] * 5
    messages = "\n".join(f.message for f in result.findings)
    assert "random.random()" in messages
    assert "random.gauss()" in messages
    assert "time.time()" in messages
    assert "datetime.now()" in messages
    assert "np.random.rand()" in messages


def test_bad_determinism_obs_adjacent_fixture_caught():
    """Clock reads outside ``repro/obs/`` stay flagged despite the allowlist."""
    result = run_lint(FIXTURES / "bad_determinism_obs_adjacent.py")
    assert checks_of(result) == ["determinism"] * 2
    messages = "\n".join(f.message for f in result.findings)
    assert "time.time()" in messages
    assert "time.perf_counter()" in messages


def test_determinism_obs_allowlist_is_path_scoped(tmp_path):
    """The same file copied under a ``repro/obs/`` directory lints clean —
    the allowlist is a path match, not a judgement about the code itself."""
    fixture = FIXTURES / "bad_determinism_obs_adjacent.py"
    obs_dir = tmp_path / "repro" / "obs"
    obs_dir.mkdir(parents=True)
    clone = obs_dir / "clocks.py"
    clone.write_text(fixture.read_text())
    result = run_lint(clone)
    assert not [f for f in result.findings if f.check == "determinism"], (
        result.format_human()
    )


def test_bad_forksafety_fixture_caught():
    result = run_lint(FIXTURES / "bad_forksafety.py")
    assert checks_of(result) == ["fork-safety"] * 2
    messages = "\n".join(f.message for f in result.findings)
    assert "class Holder" in messages and "connect" in messages
    assert "bound method self.step" in messages


def test_bad_hygiene_fixture_caught():
    result = run_lint(FIXTURES / "bad_hygiene.py")
    assert checks_of(result) == [
        "schema-literal",
        "schema-literal",
        "schema-literal",
        "bare-except",
        "swallowed-exception",
    ]
    what = "\n".join(f.message for f in result.findings)
    assert "schema-version comparison" in what
    assert '{"schema": <int>} literal' in what
    assert "schema= keyword" in what


def test_schema_literal_hint_names_real_constants():
    """The schema-literal finding points at constants that exist, in the
    modules it names."""
    result = run_lint(FIXTURES / "bad_hygiene.py")
    message = next(f.message for f in result.findings if f.check == "schema-literal")
    named = re.findall(r"\b([A-Z_]+_SCHEMA_VERSION) \((repro(?:\.\w+)+)\)", message)
    assert {name for name, _ in named} == {"ENTRY_SCHEMA_VERSION", "KEY_SCHEMA_VERSION"}
    for name, module in named:
        assert isinstance(getattr(importlib.import_module(module), name), int)


def test_bad_suppression_fixture_caught():
    result = run_lint(FIXTURES / "bad_suppression.py")
    by_check = checks_of(result)
    # neither tag suppresses: both clock reads still surface
    assert by_check.count("determinism") == 2
    assert by_check.count(BAD_SUPPRESSION) == 2
    messages = "\n".join(f.message for f in result.findings)
    assert "carries no reason" in messages
    assert "unknown check 'no-such-check'" in messages


@pytest.mark.parametrize(
    "name",
    ["good_locks", "good_determinism", "good_forksafety", "good_env", "good_hygiene"],
)
def test_good_fixtures_clean(name):
    result = run_lint(FIXTURES / f"{name}.py")
    assert result.ok, result.format_human()


# --------------------------------------------------------------------------- #
# the real tree is clean, and the race checker still bites on a seeded bug
# --------------------------------------------------------------------------- #
def test_src_repro_lints_clean():
    result = run_lint(SRC_REPRO)
    assert result.ok, result.format_human()
    assert result.files_checked > 50


def test_tests_dir_lints_clean_and_skips_fixtures():
    result = run_lint(TESTS_DIR)
    assert result.ok, result.format_human()
    # discovery must not descend into the seeded-violation fixtures
    assert not any("lint_fixtures" in f.path for f in result.findings)


def test_service_metrics_out_of_lock_mutation_is_caught(tmp_path):
    """Injecting an unguarded mutation into the service's real lock-guarded
    metrics trips the race checker — the exact regression the
    lock-discipline check exists for."""
    source = (SRC_REPRO / "service" / "server.py").read_text()
    anchor = "    def snapshot(self) -> dict[str, Any]:"
    assert source.count(anchor) == 1
    injected = source.replace(
        anchor,
        "    def reset(self):\n"
        "        self._counts = dict.fromkeys(self.COUNTERS, 0)\n"
        "\n" + anchor,
        1,
    )
    target = tmp_path / "server_racy.py"
    target.write_text(injected)
    result = run_lint(target)
    races = [f for f in result.findings if f.check == "lock-discipline"]
    assert len(races) == 1
    assert "self._counts" in races[0].message
    assert "reset" in races[0].message
    # the pristine source stays race-free under the same checker (the copy
    # loses its path-based determinism allowlist, so compare this check only)
    pristine = tmp_path / "server_clean.py"
    pristine.write_text(source)
    clean_result = run_lint(pristine)
    assert not [f for f in clean_result.findings if f.check == "lock-discipline"]


# --------------------------------------------------------------------------- #
# suppression semantics
# --------------------------------------------------------------------------- #
KNOWN = frozenset({"determinism", "fork-safety"})


def _finding(line, check="determinism"):
    return Finding(path="x.py", line=line, col=1, check=check, message="m")


def test_same_line_tag_suppresses():
    text = "import time\nnow = time.time()  # mas-lint: disable=determinism(timing a log line)\n"
    sup = parse_suppressions("x.py", text, KNOWN)
    assert sup.findings == []
    assert sup.suppresses(_finding(2))
    assert not sup.suppresses(_finding(1))
    assert not sup.suppresses(_finding(2, check="fork-safety"))


def test_standalone_tag_covers_next_line():
    text = (
        "# mas-lint: disable=determinism(timestamp for humans)\n"
        "now = time.time()\n"
        "later = time.time()\n"
    )
    sup = parse_suppressions("x.py", text, KNOWN)
    assert sup.suppresses(_finding(2))
    assert not sup.suppresses(_finding(3))


def test_comma_separated_tags_share_a_line():
    text = "x = 1  # mas-lint: disable=determinism(why one), fork-safety(why two)\n"
    sup = parse_suppressions("x.py", text, KNOWN)
    assert sup.findings == []
    assert sup.suppresses(_finding(1, "determinism"))
    assert sup.suppresses(_finding(1, "fork-safety"))


def test_reasonless_tag_reports_and_does_not_suppress():
    text = "now = time.time()  # mas-lint: disable=determinism\n"
    sup = parse_suppressions("x.py", text, KNOWN)
    assert [f.check for f in sup.findings] == [BAD_SUPPRESSION]
    assert not sup.suppresses(_finding(1))


def test_tag_syntax_inside_strings_is_ignored():
    text = 'doc = "# mas-lint: disable=determinism(quoted, not a comment)"\n'
    sup = parse_suppressions("x.py", text, KNOWN)
    assert sup.findings == []
    assert not sup.suppresses(_finding(1))


# --------------------------------------------------------------------------- #
# driver: parse errors, output formats, exit codes, CLI subcommand
# --------------------------------------------------------------------------- #
def test_parse_error_is_a_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = run_lint(broken)
    assert checks_of(result) == ["parse-error"]


def test_json_output_round_trips(tmp_path, capsys):
    code = lint.main([str(FIXTURES / "bad_hygiene.py"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert {f["check"] for f in payload["findings"]} == {
        "schema-literal", "bare-except", "swallowed-exception",
    }
    assert all(set(f) == {"path", "line", "col", "check", "message"}
               for f in payload["findings"])


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint.main([str(clean)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        lint.main([str(tmp_path / "missing.py")])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_list_checks(capsys):
    """``--list-checks`` needs no path and prints one distinct line per id;
    without it a path is still required."""
    assert lint.main(["--list-checks"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = ["lock-discipline", "determinism", "fork-safety",
              "schema-literal", "bare-except", "swallowed-exception",
              BAD_SUPPRESSION, "parse-error"]
    assert [line.split(":", 1)[0] for line in lines] == checks
    assert len({line.split(":", 1)[1] for line in lines}) == len(checks)
    with pytest.raises(SystemExit) as excinfo:
        lint.main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_schema_literal_description_names_its_exempt_modules():
    """The ``schema-literal`` line names every source module the check
    exempts, and only the three hygiene ids share the checker."""
    from repro.devtools.checkers import hygiene

    descriptions = hygiene.HygieneChecker().descriptions()
    assert set(descriptions) == {"schema-literal", "bare-except", "swallowed-exception"}
    exempt = [
        path.removesuffix(".py").replace("/", ".")
        for path in hygiene._SCHEMA_LITERAL_EXEMPT
        if path.startswith("repro/")
    ]
    assert exempt == ["repro.store.schema", "repro.exec.cache"]
    for module in exempt:
        assert module in descriptions["schema-literal"]


def test_human_output_prints_path_line_col_check_message(capsys):
    """A human-format finding reads ``path:line:col: check: message``, and a
    summary line follows the findings."""
    fixture = FIXTURES / "bad_hygiene.py"
    assert lint.main([str(fixture)]) == 1
    *findings, summary = capsys.readouterr().out.splitlines()
    assert summary == f"mas-lint: {len(findings)} findings in 1 files"
    line = re.compile(
        rf"{re.escape(str(fixture))}:\d+:\d+: "
        r"(schema-literal|bare-except|swallowed-exception): \S"
    )
    assert len(findings) == 5 and all(line.match(text) for text in findings)
    assert _finding(3).format() == "x.py:3:1: determinism: m"


def test_cli_lint_subcommand(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", str(FIXTURES / "good_hygiene.py")]) == 0
    assert cli_main(["lint", str(FIXTURES / "bad_hygiene.py")]) == 1
    out = capsys.readouterr().out
    assert "schema-version comparison" in out


def test_docs_option_is_gone(tmp_path, capsys):
    """Neither entry point takes ``--docs``: no check reads a docs table."""
    from repro.cli import main as cli_main

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    for run in (lint.main, lambda argv: cli_main(["lint", *argv])):
        with pytest.raises(SystemExit) as excinfo:
            run([str(clean), "--docs", str(tmp_path / "env_vars.md")])
        assert excinfo.value.code == 2
    assert "--docs" in capsys.readouterr().err
