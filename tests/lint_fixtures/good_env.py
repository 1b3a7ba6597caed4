"""Env-registry compliant twin: registered names, registry accessors."""

from repro.utils import env


def workers():
    return env.int_value("MAS_SEARCH_WORKERS")


def trace_path():
    return env.value("MAS_TRACE")
