"""Env-registry compliant twin: registered names, registry accessors."""

from repro.utils import env


def workers():
    return env.int_value("MAS_SEARCH_WORKERS")


def budget():
    return env.value("MAS_BENCH_BUDGET")
