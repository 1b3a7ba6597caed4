"""Env-registry compliant twin: registered names, registry accessors."""

from repro.utils import env


def cache_uri():
    return env.value("MAS_CACHE_URI")


def trace_path():
    return env.value("MAS_TRACE")
