"""``determinism``: no unseeded randomness or wall-clock reads in the core.

The repo's acceptance bar for every parallel/caching feature is *bit
identity*: the same sweep must produce byte-identical results at any
``--jobs`` count, worker count or store backend.  Two things silently break
that:

* **unseeded randomness** — ``random.*`` module calls and the legacy
  ``np.random.*`` global API draw from ambient process state.  All library
  randomness flows through generators built by :mod:`repro.utils.rng`
  (``np.random.default_rng`` and friends are explicitly seeded there and
  only there);
* **wall-clock reads** — ``time.time()``, ``time.perf_counter()``,
  ``datetime.now()`` etc. leak the host's clock into results.

Modules whose *job* is timing are allowlisted by path: the observability
layer (``repro/obs/`` — span timestamps and latency metrics *are* the
product), the service metrics (``repro/service/server.py``) and the
retry/backoff helper (``repro/store/retry.py``).
Anything else — including test code — needs an inline tag with a reason.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Checker, ModuleSource, dotted_name
from repro.devtools.findings import Finding

__all__ = ["DeterminismChecker"]

#: ``np.random.<name>`` members that are fine anywhere: they *construct*
#: explicitly seeded generators instead of drawing from the global state.
_NP_RANDOM_SAFE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}
)

#: Clock-reading members of the ``time`` module.
_TIME_CLOCKS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
    }
)

#: Clock-reading constructors of ``datetime.datetime`` / ``datetime.date``.
_DATETIME_CLOCKS = frozenset({"now", "utcnow", "today"})


class DeterminismChecker(Checker):
    id = "determinism"
    description = (
        "no unseeded randomness (random.*, legacy np.random.*) and no "
        "wall-clock reads outside the obs/metrics/retry allowlist"
    )
    skip_substrings = (
        "repro/utils/rng.py",  # the one sanctioned RNG constructor site
        "repro/obs/",  # span timestamps and latency histograms are the product
        "repro/service/server.py",  # request latency metrics, uptime
        "repro/store/retry.py",  # backoff sleeps between attempts
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        random_aliases, numpy_aliases, time_aliases = {"random"}, {"np", "numpy"}, {"time"}
        datetime_names = {"datetime", "date"}
        from_imports: dict[str, str] = {}  # local name -> "module.member"
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "random":
                        random_aliases.add(local)
                    elif alias.name == "numpy":
                        numpy_aliases.add(local)
                    elif alias.name == "time":
                        time_aliases.add(local)
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "random",
                "time",
                "datetime",
            ):
                for alias in node.names:
                    local = alias.asname or alias.name
                    from_imports[local] = f"{node.module}.{alias.name}"
                    if node.module == "datetime" and alias.name in ("datetime", "date"):
                        datetime_names.add(local)

        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._classify(
                node, random_aliases, numpy_aliases, time_aliases, datetime_names,
                from_imports,
            )
            if message is not None:
                findings.append(self.finding(module, node, message))
        return findings

    # ------------------------------------------------------------------ #
    def _classify(
        self,
        call: ast.Call,
        random_aliases: set[str],
        numpy_aliases: set[str],
        time_aliases: set[str],
        datetime_names: set[str],
        from_imports: dict[str, str],
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            origin = from_imports.get(func.id)
            if origin is None:
                return None
            module, member = origin.split(".", 1)
            if module == "random":
                return (
                    f"unseeded random.{member}() draws from global state — "
                    "use a generator from repro.utils.rng"
                )
            if module == "time" and member in _TIME_CLOCKS:
                return (
                    f"wall-clock read time.{member}() in deterministic code — "
                    "results must not depend on the host clock"
                )
            return None

        if not isinstance(func, ast.Attribute):
            return None

        # module-attribute calls: random.x(), time.x(), datetime.now(), ...
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id in random_aliases:
                return (
                    f"unseeded random.{func.attr}() draws from global state — "
                    "use a generator from repro.utils.rng"
                )
            if owner.id in time_aliases and func.attr in _TIME_CLOCKS:
                return (
                    f"wall-clock read time.{func.attr}() in deterministic code — "
                    "results must not depend on the host clock"
                )
            if owner.id in datetime_names and func.attr in _DATETIME_CLOCKS:
                return (
                    f"wall-clock read {owner.id}.{func.attr}() in deterministic "
                    "code — results must not depend on the host clock"
                )

        # np.random.x() / numpy.random.x() and datetime.datetime.now()
        owner_name = dotted_name(owner)
        if owner_name is not None:
            parts = owner_name.split(".")
            if (
                len(parts) == 2
                and parts[0] in numpy_aliases
                and parts[1] == "random"
                and func.attr not in _NP_RANDOM_SAFE
            ):
                return (
                    f"legacy global np.random.{func.attr}() is unseeded shared "
                    "state — construct a Generator via repro.utils.rng instead"
                )
            if (
                len(parts) == 2
                and parts[0] == "datetime"
                and parts[1] in ("datetime", "date")
                and func.attr in _DATETIME_CLOCKS
            ):
                return (
                    f"wall-clock read {owner_name}.{func.attr}() in deterministic "
                    "code — results must not depend on the host clock"
                )
        return None
