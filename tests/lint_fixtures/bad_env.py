"""Seeded env-registry violations: direct reads and an unregistered name."""

import os

WORKERS_ENV = "MAS_FIXTURE_WORKERS"  # never registered in repro.utils.env


def workers():
    return int(os.environ.get(WORKERS_ENV, "1"))  # direct read via constant


def trace_path():
    return os.getenv("MAS_TRACE", "")  # direct read, literal


def uri():
    return os.environ["MAS_CACHE_URI"]  # direct subscript read
