"""Seeded env-registry violations: direct reads and an unregistered name."""

import os

WORKERS_ENV = "MAS_FIXTURE_WORKERS"  # never registered in repro.utils.env


def workers():
    return int(os.environ.get(WORKERS_ENV, "1"))  # direct read via constant


def interval():
    return os.getenv("MAS_OBS_INTERVAL", "2")  # direct read, literal


def uri():
    return os.environ["MAS_CACHE_URI"]  # direct subscript read
