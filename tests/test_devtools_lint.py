"""mas-lint self-tests: every checker catches its seeded bad fixture, clean
fixtures pass, the real tree lints clean, and the gate semantics (suppression
tags, docs cross-check, exit codes) hold."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import lint
from repro.devtools.findings import Finding, Severity
from repro.devtools.suppress import BAD_SUPPRESSION, parse_suppressions
from repro.utils import env

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = TESTS_DIR / "lint_fixtures"
SRC_REPRO = REPO_ROOT / "src" / "repro"
DOCS_TABLE = REPO_ROOT / "docs" / "env_vars.md"


def run_lint(*paths, docs=DOCS_TABLE):
    return lint.lint_paths([Path(p) for p in paths], docs_path=docs)


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


def test_bad_env_fixture_caught():
    result = run_lint(FIXTURES / "bad_env.py")
    assert checks_of(result) == ["env-registry"] * 4
    direct = [f for f in result.findings if "direct environment read" in f.message]
    assert len(direct) == 3
    # both the literal and the module-constant indirection are resolved
    assert any("MAS" + "_FIXTURE_WORKERS" in f.message for f in direct)
    assert any("MAS_CACHE_URI" in f.message for f in direct)
    unregistered = [f for f in result.findings if "not in the repro.utils.env registry" in f.message]
    assert len(unregistered) == 1


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
    return Finding(
        path="x.py", line=line, col=1, check=check,
        severity=Severity.ERROR, message="m",
    )


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
# env registry and the docs cross-check
# --------------------------------------------------------------------------- #
def test_env_value_precedence(monkeypatch):
    monkeypatch.delenv("MAS_TEST_SUITE", raising=False)
    assert env.value("MAS_TEST_SUITE") is None  # registry default
    monkeypatch.setenv("MAS_TEST_SUITE", "gqa")
    assert env.value("MAS_TEST_SUITE") == "gqa"
    monkeypatch.setenv("MAS_TEST_SUITE", "   ")  # blank == unset
    assert env.value("MAS_TEST_SUITE") is None


def test_env_unknown_name_rejected():
    with pytest.raises(KeyError):
        env.value("MAS_" + "NO_SUCH_VARIABLE")


def test_docs_table_matches_registry():
    text = DOCS_TABLE.read_text()
    assert env.render_markdown_table() in text


def test_env_docs_drift_is_flagged(tmp_path):
    docs = tmp_path / "env_vars.md"
    rows = env.render_markdown_table().splitlines()
    # drop one registered row (a variable no other row mentions), add a phantom
    dropped = [r for r in rows if not r.startswith("| `MAS_TEST_SUITE` ")]
    dropped.append("| `MAS_" "PHANTOM` | *(unset)* | not actually registered |")
    docs.write_text("\n".join(dropped) + "\n")
    clean = tmp_path / "empty.py"
    clean.write_text("")
    result = run_lint(clean, docs=docs)
    messages = {f.check: f.message for f in result.findings}
    assert len(result.findings) == 2
    assert set(messages) == {"env-docs"}
    joined = "\n".join(f.message for f in result.findings)
    assert "MAS_TEST_SUITE is registered" in joined
    assert "MAS_" "PHANTOM appears in the docs table" in joined


# --------------------------------------------------------------------------- #
# driver: parse errors, output formats, exit codes, CLI subcommand
# --------------------------------------------------------------------------- #
def test_parse_error_is_a_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = run_lint(broken)
    assert checks_of(result) == ["parse-error"]


def test_json_output_round_trips(tmp_path, capsys):
    code = lint.main([str(FIXTURES / "bad_hygiene.py"), "--format", "json",
                      "--docs", str(DOCS_TABLE)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert {f["check"] for f in payload["findings"]} == {
        "schema-literal", "bare-except", "swallowed-exception",
    }
    assert all({"path", "line", "col", "severity", "message"} <= set(f)
               for f in payload["findings"])


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint.main([str(clean), "--docs", str(DOCS_TABLE)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        lint.main([str(tmp_path / "missing.py")])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_list_checks(capsys):
    assert lint.main(["--list-checks", "unused"]) == 0
    out = capsys.readouterr().out
    for check in ("lock-discipline", "determinism", "fork-safety",
                  "env-registry", "schema-literal", "bare-except",
                  "swallowed-exception", BAD_SUPPRESSION, "env-docs",
                  "parse-error"):
        assert f"{check}:" in out


def test_cli_lint_subcommand(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", str(FIXTURES / "good_hygiene.py"),
                     "--docs", str(DOCS_TABLE)]) == 0
    assert cli_main(["lint", str(FIXTURES / "bad_hygiene.py"),
                     "--docs", str(DOCS_TABLE)]) == 1
    out = capsys.readouterr().out
    assert "schema-version comparison" in out
