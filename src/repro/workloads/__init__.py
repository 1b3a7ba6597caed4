"""Attention workload definitions: generic shapes, the Table-1 network registry,
the built-in workload suites and their spec grammar (batched /
cross-attention / long-context / decode-step / GQA sweeps; any other shape
set is a :class:`WorkloadSuite` built in Python) and the Stable Diffusion 1.5
reduced-UNet end-to-end workload (Section 5.2.2)."""

from repro.workloads.attention import AttentionWorkload
from repro.workloads.networks import (
    NETWORKS,
    NetworkConfig,
    get_network,
    list_networks,
    name_aliases,
    resolve_name,
    table1_rows,
)
from repro.workloads.stable_diffusion import (
    AttentionUnit,
    StableDiffusionUNetWorkload,
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

__all__ = [
    "AttentionWorkload",
    "NETWORKS",
    "NetworkConfig",
    "get_network",
    "list_networks",
    "name_aliases",
    "resolve_name",
    "table1_rows",
    "AttentionUnit",
    "StableDiffusionUNetWorkload",
    "sd15_cross_attention_units",
    "sd15_reduced_unet",
    "SuiteEntry",
    "WorkloadSuite",
    "TABLE1_BATCH_SIZES",
    "LONG_CONTEXT_SEQS",
    "GQA_CONFIGS",
    "get_suite",
    "list_suites",
    "parse_suite_spec",
]
