"""Sweep benchmark: cold and warm tuning sweeps with per-layer attribution.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload decode-step --seed 0 --seconds 27 --trace 0

``--trace 0`` times cold sweeps and warm replays and prints the end-to-end
metrics; ``--trace 1`` adds a traced sweep and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch stores live here, inside the checkout, and are removed on exit.
WORK_DIR = ROOT / ".perfbench_work"


def bootstrap() -> dict[str, str]:
    """Make ``src`` importable and clear every ``MAS_*`` knob.

    Returns the ``MAS_*`` variables that were set, for the host fingerprint.
    Exits with status 2 when the checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    cleared = {name: os.environ.pop(name) for name in sorted(os.environ) if name.startswith("MAS_")}
    sys.path.insert(0, str(SRC))
    return cleared


def fingerprint(cleared: dict[str, str]) -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "mas_env_cleared": cleared,
        "mas_env_in_effect": {k: v for k, v in os.environ.items() if k.startswith("MAS_")},
        "jobs": 1,
        "search_workers": 1,
    }


def main(argv: list[str] | None = None) -> int:
    cleared = bootstrap()
    import sweep

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(sweep.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = sweep.WORKLOADS[args.workload]
    print("fingerprint: " + json.dumps(fingerprint(cleared), sort_keys=True), flush=True)
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if args.trace:
            measurement = sweep.measure_traced(workload, args.seed, work_dir)
        else:
            measurement = sweep.measure_sweeps(workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    for note in measurement.notes:
        print(note)
    for failure in measurement.failures:
        print(f"FAILED {failure}")
    print(f"result_digest: {measurement.digest}")
    for name, (value, unit) in measurement.metrics.items():
        print(f"{name:<32} {value:>16.6g} {unit}")
    failed = len(measurement.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0 and measurement.consistent,
                "attempted": measurement.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in measurement.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
