"""The perf gate: perfbench on the parent commit against this checkout.

``mas-attention obs bench PARENT_DIR``, run from the root of a checkout,
runs ``perfbench/run.py --trace 0`` on ``PARENT_DIR/src`` and on this
checkout's ``src`` in :data:`PAIRS` pairs per ``BENCHMARK.json`` workload,
alternating which side runs first.  Pair *i* runs ``--seed i`` on both sides
for ``run_seconds``, and both sides run this checkout's ``perfbench/``, so
only the program differs.

The gate takes each side's median of every ``end_to_end`` metric and fails
(exit 1) when

* a metric is worse than the parent's by more than its ``bound``, in its
  ``better`` direction;
* a run of this checkout reports ``correct: false``;
* this checkout's failed/attempted share of pairs is higher than the parent's;
* a run crashes or prints no final JSON line, or a workload or a metric is
  missing on one side.

It prints both medians, the parent's interquartile range and every pair's two
``result_digest`` values.  Three pairs screen for regressions; they are too
few to claim a gain.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["PAIRS", "GateReport", "Run", "judge", "parse_run", "run_gate"]

#: (parent, change) pairs per workload.
PAIRS = 3

_SIDES = ("parent", "change")


@dataclass(frozen=True)
class Run:
    """One perfbench run: its final JSON line and result digest, or why it has none."""

    final: dict[str, Any] | None
    digest: str = "?"
    error: str | None = None


def parse_run(stdout: str, returncode: int = 0, stderr: str = "") -> Run:
    """The :class:`Run` behind one perfbench process's output."""
    digest = "?"
    for line in stdout.splitlines():
        if line.startswith("result_digest:"):
            digest = line.partition(":")[2].strip()
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:]
        return Run(None, digest, f"exit status {returncode}" + "".join(f": {t}" for t in tail))
    lines = stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1]) if lines else None
    except ValueError:
        final = None
    if not isinstance(final, dict) or not isinstance(final.get("metrics"), dict):
        return Run(None, digest, "printed no final JSON line")
    return Run(final, digest)


@dataclass(frozen=True)
class GateReport:
    """The gate's table and every reason it fails (none: it passes)."""

    lines: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} problem(s))"
        return "\n".join(
            [*self.lines, f"perf gate: {verdict}", *(f"  {f}" for f in self.failures)]
        )


def _failed_share(runs: list[Run]) -> float:
    attempted = sum(run.final.get("attempted", 0) for run in runs)
    return sum(run.final.get("failed", 0) for run in runs) / max(attempted, 1)


def judge(
    end_to_end: list[dict[str, Any]],
    parent: dict[str, list[Run]],
    change: dict[str, list[Run]],
) -> GateReport:
    """The verdict on each side's runs per workload, by ``BENCHMARK.json``'s rules."""
    lines: list[str] = []
    failures: list[str] = []
    for workload in dict.fromkeys([*parent, *change]):
        if workload not in parent or workload not in change:
            missing = "parent" if workload not in parent else "this checkout"
            failures.append(f"{workload}: no runs on the {missing} side")
            continue
        sides = {"parent": parent[workload], "change": change[workload]}
        lines.append(f"{workload}: " + " / ".join(f"{len(r)} {s} runs" for s, r in sides.items()))
        for side, runs in sides.items():
            for i, run in enumerate(runs):
                if run.error:
                    failures.append(f"{workload} {side} run {i}: {run.error}")
        for i, run in enumerate(sides["change"]):
            if run.final is not None and run.final.get("correct") is not True:
                failures.append(f"{workload} change run {i}: reports correct: false")
        good = {side: [run for run in runs if run.final] for side, runs in sides.items()}
        if not good["parent"] or not good["change"]:
            failures.append(f"{workload}: no complete run on one side, nothing to compare")
            continue
        shares = {side: _failed_share(runs) for side, runs in good.items()}
        if shares["change"] > shares["parent"]:
            failures.append(
                f"{workload}: failed share of pairs {shares['change']:.1%} "
                f"vs parent {shares['parent']:.1%}"
            )
        lines.append(
            f"  {'metric':<20} {'parent':>12} {'change':>12} {'delta':>8} "
            f"{'parent IQR':>11} {'bound':>6}"
        )
        for metric in end_to_end:
            name, unit, bound = metric["name"], metric["unit"], float(metric["bound"])
            values = {
                side: [run.final["metrics"].get(name, {}).get("value") for run in runs]
                for side, runs in good.items()
            }
            if any(value is None for side in _SIDES for value in values[side]):
                failures.append(f"{workload} {name}: missing from a run's metrics")
                continue
            before = statistics.median(values["parent"])
            after = statistics.median(values["change"])
            q1, _, q3 = (
                statistics.quantiles(values["parent"], n=4, method="inclusive")
                if len(values["parent"]) > 1
                else (before, before, before)
            )
            if metric["better"] == "higher":
                worse = after < before * (1.0 - bound)
            else:
                worse = after > before * (1.0 + bound)
            delta = (after - before) / before if before else 0.0
            lines.append(
                f"  {name:<20} {before:>12.6g} {after:>12.6g} {delta:>+8.1%} "
                f"{q3 - q1:>11.3g} {bound:>6.0%}  {unit}" + ("  WORSE" if worse else "")
            )
            if worse:
                failures.append(
                    f"{workload} {name}: {after:.6g} {unit} vs parent {before:.6g} {unit} "
                    f"({delta:+.1%}; {metric['better']} is better, bound {bound:.0%})"
                )
        for i, (p, c) in enumerate(zip(sides["parent"], sides["change"])):
            differ = "" if p.digest == c.digest else "  (differ)"
            lines.append(f"  pair {i} result_digest: parent {p.digest}  change {c.digest}{differ}")
    return GateReport(tuple(lines), tuple(failures))


def _stage(root: Path, perfbench: Path, src: Path) -> Path:
    """A checkout of ``src`` with a copy of ``perfbench`` beside it."""
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    shutil.copytree(perfbench, root / "perfbench", ignore=ignore)
    shutil.copytree(src, root / "src", ignore=ignore)
    return root


def _perfbench(root: Path, workload: str, seed: int, seconds: float) -> Run:
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    return parse_run(done.stdout, done.returncode, done.stderr)


def run_gate(checkout: str | Path, parent: str | Path) -> int:
    """Run the gate from ``checkout`` against ``parent``; 0 passes, 1 fails."""
    checkout, parent = Path(checkout).resolve(), Path(parent).resolve()
    if not (parent / "src" / "repro").is_dir():
        raise SystemExit(f"{parent}: no src/repro there to measure as the parent")
    spec_path = checkout / "BENCHMARK.json"
    if not spec_path.is_file() or not (checkout / "perfbench" / "run.py").is_file():
        raise SystemExit(
            f"{checkout}: run obs bench from the root of a checkout "
            "(it needs BENCHMARK.json and perfbench/run.py)"
        )
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    runs: dict[str, dict[str, list[Run]]] = {side: {} for side in _SIDES}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mas-perf-gate-") as tmp:
        roots = {
            side: _stage(Path(tmp) / side, checkout / "perfbench", base / "src")
            for side, base in zip(_SIDES, (parent, checkout))
        }
        for workload in (entry["name"] for entry in spec["workloads"]):
            for seed in range(PAIRS):
                for side in _SIDES if seed % 2 == 0 else _SIDES[::-1]:
                    began = time.perf_counter()
                    run = _perfbench(roots[side], workload, seed, spec["run_seconds"])
                    runs[side].setdefault(workload, []).append(run)
                    print(
                        f"{workload} seed {seed} {side:<6} {time.perf_counter() - began:6.1f} s"
                        + (f"  {run.error}" if run.error else ""),
                        flush=True,
                    )
    report = judge(spec["end_to_end"], runs["parent"], runs["change"])
    print(report.format())
    print(f"perf gate wall time: {time.perf_counter() - start:.0f} s")
    return 0 if report.ok else 1
