"""Direct-read twin: MAS_* settings read where they are used, stripped, with a
blank value counting as unset."""

import os

CACHE_URI_ENV = "MAS_CACHE_URI"


def cache_uri():
    return os.environ.get(CACHE_URI_ENV, "").strip() or None


def trace_path():
    return os.environ.get("MAS_TRACE", "").strip() or None
