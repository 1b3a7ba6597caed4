"""Perf trajectory: benchmark history, rolling baselines, regression gate.

``BENCH_search.json`` holds the *latest* result of every named benchmark in
``benchmarks/bench_parallel_runner.py`` — one snapshot, no memory.  This
module gives the numbers a time axis:

* :func:`record_runs` appends each named benchmark record as a timestamped
  run in ``BENCH_history.jsonl`` (one JSON line per benchmark per run, with
  every numeric leaf flattened to a dotted metric name);
* :func:`compare` diffs the newest run of each benchmark against a rolling
  baseline (the mean of up to ``window`` prior runs) and applies
  direction-aware regression rules — ``candidates_per_s`` dropping more
  than 20% is a regression, ``overhead_ratio`` *rising* is;
* ``mas-attention obs bench record|compare|check`` drives it from CI, with
  ``check`` exiting non-zero on any regression so the trajectory is a real
  gate instead of a one-shot assert.

Rules are ``fnmatch`` patterns over ``benchmark.metric.path`` dotted names,
so a JSON rules file can tighten or relax individual metrics without code
changes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any

__all__ = [
    "DEFAULT_RULES",
    "DEFAULT_WINDOW",
    "MetricDelta",
    "Rule",
    "TrajectoryReport",
    "compare",
    "flatten_metrics",
    "load_history",
    "load_rules",
    "record_runs",
]

#: Prior runs averaged into the rolling baseline.
DEFAULT_WINDOW = 5


def flatten_metrics(record: Any, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of ``record`` as ``{"dotted.path": value}``.

    Booleans become 1.0/0.0 (so ``passed``/``identical_*`` flags are
    trackable); strings and lists are skipped — they are identity, not
    measurement.
    """
    flat: dict[str, float] = {}
    if isinstance(record, dict):
        for key, value in record.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, path))
    elif isinstance(record, bool):
        if prefix:
            flat[prefix] = 1.0 if record else 0.0
    elif isinstance(record, (int, float)):
        if prefix:
            flat[prefix] = float(record)
    return flat


@dataclass(frozen=True)
class Rule:
    """One regression rule: which metrics, which direction is good, how much slack."""

    pattern: str  # fnmatch over "benchmark.metric.path"
    direction: str  # "higher" (bigger is better) or "lower"
    tolerance: float  # relative slack before a delta counts as a regression

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"rule {self.pattern!r}: direction must be 'higher' or 'lower', "
                f"got {self.direction!r}"
            )
        if not 0 <= self.tolerance < 10:
            raise ValueError(f"rule {self.pattern!r}: tolerance {self.tolerance} out of range")

    def matches(self, dotted: str) -> bool:
        return fnmatchcase(dotted, self.pattern)

    def regressed(self, current: float, baseline: float) -> bool:
        if self.direction == "higher":
            return current < baseline * (1.0 - self.tolerance)
        return current > baseline * (1.0 + self.tolerance)


#: The stock gate.  Throughput-style metrics may not drop more than 20%,
#: speedups may not lose more than 25%, and the tracing overhead ratio may
#: not climb more than 10% over its rolling baseline.
DEFAULT_RULES: tuple[Rule, ...] = (
    Rule("*.candidates_per_s", "higher", 0.20),
    Rule("*ops_per_s", "higher", 0.20),
    Rule("*.speedup*", "higher", 0.25),
    Rule("*.prune_speedup_vs_legacy", "higher", 0.25),
    Rule("tracing_overhead.overhead_ratio", "lower", 0.10),
)


def load_rules(path: str | Path) -> tuple[Rule, ...]:
    """Rules from a JSON file: ``[{"pattern", "direction", "tolerance"}, ...]``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, list):
        raise ValueError(f"rules file {path} must hold a JSON list of rule objects")
    rules = []
    for entry in doc:
        if not isinstance(entry, dict) or "pattern" not in entry:
            raise ValueError(f"rules file {path}: each rule needs at least a 'pattern'")
        rules.append(
            Rule(
                pattern=str(entry["pattern"]),
                direction=str(entry.get("direction", "higher")),
                tolerance=float(entry.get("tolerance", 0.20)),
            )
        )
    return tuple(rules)


# ---------------------------------------------------------------------- #
# History file
# ---------------------------------------------------------------------- #
def record_runs(
    bench_path: str | Path,
    history_path: str | Path,
    *,
    run_id: str | None = None,
    ts: float | None = None,
    note: str | None = None,
) -> list[dict[str, Any]]:
    """Append every named benchmark in ``bench_path`` to the history file.

    Returns the appended entries.  ``ts`` defaults to the wall clock (this
    is observability code — the determinism rules don't apply to history
    timestamps) and ``run_id`` to the timestamp rendered as an ISO instant.
    Raises :class:`ValueError`, leaving the history untouched, when no
    record has a numeric leaf to track.
    """
    doc = json.loads(Path(bench_path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or not doc:
        raise ValueError(f"benchmark file {bench_path} holds no named records")
    if ts is None:
        ts = time.time()
    if run_id is None:
        run_id = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))
    entries = []
    for name, record in doc.items():
        metrics = flatten_metrics(record)
        if not metrics:
            continue
        entry: dict[str, Any] = {
            "ts": round(float(ts), 3),
            "run": run_id,
            "name": name,
            "metrics": metrics,
        }
        if note:
            entry["note"] = note
        entries.append(entry)
    if not entries:
        raise ValueError(f"benchmark file {bench_path} holds no numeric metrics to record")
    history = Path(history_path)
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries


def load_history(history_path: str | Path) -> list[dict[str, Any]]:
    """All well-formed history entries, in file (= chronological) order."""
    path = Path(history_path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # torn line from a crashed append: skip
        if isinstance(entry, dict) and "name" in entry and isinstance(entry.get("metrics"), dict):
            entries.append(entry)
    return entries


# ---------------------------------------------------------------------- #
# Comparison
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MetricDelta:
    """One gated metric's newest value against its rolling baseline."""

    benchmark: str
    metric: str
    current: float
    baseline: float
    samples: int  # prior runs behind the baseline
    rule: Rule
    regressed: bool

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return 0.0
        return (self.current - self.baseline) / self.baseline * 100.0


@dataclass(frozen=True)
class TrajectoryReport:
    """Every gated delta of the newest run, plus benchmarks without history."""

    deltas: tuple[MetricDelta, ...]
    fresh: tuple[str, ...]  # benchmarks whose newest run has no prior baseline

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(delta for delta in self.deltas if delta.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = []
        for delta in self.deltas:
            marker = "REGRESSION" if delta.regressed else "ok"
            lines.append(
                f"  [{marker:>10}] {delta.benchmark}.{delta.metric}: "
                f"{delta.current:g} vs baseline {delta.baseline:g} "
                f"({delta.delta_pct:+.1f}%, {delta.rule.direction}-is-better, "
                f"tol {delta.rule.tolerance:.0%}, n={delta.samples})"
            )
        for name in self.fresh:
            lines.append(f"  [     fresh] {name}: first recorded run, no baseline yet")
        if not lines:
            lines.append("  (no gated metrics in history)")
        verdict = "PASS" if self.ok else f"FAIL ({len(self.regressions)} regression(s))"
        return "perf trajectory: " + verdict + "\n" + "\n".join(lines)


def compare(
    entries: list[dict[str, Any]],
    *,
    window: int = DEFAULT_WINDOW,
    rules: tuple[Rule, ...] = DEFAULT_RULES,
) -> TrajectoryReport:
    """Newest run of each benchmark vs the mean of up to ``window`` priors.

    Only metrics matched by a rule are gated; a metric missing from the
    prior runs (or a benchmark seen for the first time) is reported as
    fresh rather than failed, so adding a benchmark never breaks the gate.
    """
    if window < 1:
        raise ValueError(f"baseline window must be >= 1, got {window}")
    by_name: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        by_name.setdefault(str(entry["name"]), []).append(entry)
    deltas: list[MetricDelta] = []
    fresh: list[str] = []
    for name, runs in by_name.items():
        latest = runs[-1]
        priors = runs[:-1][-window:]
        if not priors:
            fresh.append(name)
            continue
        for metric, current in sorted(latest["metrics"].items()):
            dotted = f"{name}.{metric}"
            rule = next((rule for rule in rules if rule.matches(dotted)), None)
            if rule is None:
                continue
            samples = [
                float(prior["metrics"][metric])
                for prior in priors
                if isinstance(prior["metrics"].get(metric), (int, float))
            ]
            if not samples:
                continue
            baseline = sum(samples) / len(samples)
            deltas.append(
                MetricDelta(
                    benchmark=name,
                    metric=metric,
                    current=float(current),
                    baseline=baseline,
                    samples=len(samples),
                    rule=rule,
                    regressed=rule.regressed(float(current), baseline),
                )
            )
    return TrajectoryReport(deltas=tuple(deltas), fresh=tuple(sorted(fresh)))
