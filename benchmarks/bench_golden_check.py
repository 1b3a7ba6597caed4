"""Golden-data check — every dataflow computes exact attention (Section 5.1).

The paper validates all methods against golden data before reporting
performance; this benchmark runs the same validation on a BERT-like shape
(reduced head count to keep the replay fast) and times it: every scheduler's
simulated task graph replays on numpy tiles against the reference attention.
"""

from __future__ import annotations

from repro.numerics.golden import golden_check
from repro.workloads.attention import AttentionWorkload


def test_golden_data_check(benchmark):
    workload = AttentionWorkload.self_attention(heads=2, seq=512, emb=64, name="golden-bert")
    result = benchmark.pedantic(
        golden_check, args=(workload,), kwargs={"tolerance": 1e-3}, rounds=1, iterations=1
    )
    print()
    print(result.summary())
    for name, err in sorted(result.max_errors.items()):
        print(f"  {name:10s} max |err| = {err:.3e}")

    benchmark.extra_info["max_errors"] = {k: float(f"{v:.3e}") for k, v in result.max_errors.items()}
    assert result.passed, result.summary()
