"""``fork-safety``: classes holding live OS resources must say how to pickle.

The sweep runner ships pairs to ``ProcessPoolExecutor`` workers, which
means everything reachable from a submitted callable is pickled.  Two
patterns break quietly under fork/spawn:

* a class stores a **live resource** — a ``sqlite3`` connection, a socket,
  an HTTP connection, a lock, an executor — in ``self`` without defining
  ``__getstate__``/``__reduce__``.  Under ``spawn`` it fails loudly; under
  ``fork`` it *appears* to work and then corrupts the parent's handle.
  ``HttpStore`` defines ``__getstate__`` and is the model answer; classes
  that are never shipped across processes tag the class line with a reason;
* a **bound method** is submitted to a process pool
  (``pool.submit(self.run, ...)``) — that drags the whole instance, locks
  and all, through pickle.  Submit module-level functions, as
  ``exec/runner.py`` does with ``execute_pair``.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Checker, ModuleSource, dotted_name, self_attr
from repro.devtools.findings import Finding

__all__ = ["ForkSafetyChecker"]

#: Final components of constructor calls whose result is a live OS resource.
_RESOURCE_FACTORIES = frozenset(
    {
        "connect",  # sqlite3.connect, http.client-style connect helpers
        "socket",
        "create_connection",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "HTTPConnection",
        "HTTPSConnection",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "Pool",
        "open",
        "TemporaryFile",
        "NamedTemporaryFile",
    }
)

#: Constructors that specifically create a *process* pool.
_PROCESS_POOLS = frozenset({"ProcessPoolExecutor", "Pool"})

#: Pool methods that take a callable to run in a worker as first argument.
_SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply", "apply_async", "map_async", "starmap", "imap"}
)

#: Dunders whose presence means the class controls its own pickling.
_PICKLE_HOOKS = frozenset({"__getstate__", "__reduce__", "__reduce_ex__"})


def _factory_name(value: ast.expr) -> str | None:
    """The final path component when ``value`` is a resource-factory call."""
    if not isinstance(value, ast.Call):
        return None
    name = dotted_name(value.func)
    if name is None:
        return None
    last = name.rsplit(".", maxsplit=1)[-1]
    return last if last in _RESOURCE_FACTORIES else None


class ForkSafetyChecker(Checker):
    id = "fork-safety"
    description = (
        "classes storing live OS resources (connections, sockets, locks, "
        "pools, files) need __getstate__/__reduce__ or an explicit tag; "
        "never submit bound methods to a process pool"
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        findings.extend(self._check_bound_submissions(module))
        return findings

    # ------------------------------------------------------------------ #
    def _check_class(self, module: ModuleSource, cls: ast.ClassDef) -> list[Finding]:
        has_hook = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _PICKLE_HOOKS
            for stmt in cls.body
        )
        if has_hook:
            return []
        resources: list[str] = []
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(stmt):
                if not isinstance(inner, ast.Assign):
                    continue
                factory = _factory_name(inner.value)
                if factory is None:
                    continue
                for target in inner.targets:
                    attr = self_attr(target)
                    if attr is not None:
                        resources.append(f"self.{attr} = ...{factory}(...)")
        if not resources:
            return []
        held = ", ".join(sorted(set(resources)))
        return [
            self.finding(
                module,
                cls,
                f"class {cls.name} holds live OS resources ({held}) but defines "
                f"no __getstate__/__reduce__ — instances break when pickled to "
                f"process-pool workers; add a pickle hook or tag the class with "
                f"a reason it never crosses a process boundary",
            )
        ]

    # ------------------------------------------------------------------ #
    def _check_bound_submissions(self, module: ModuleSource) -> list[Finding]:
        # Names bound (via =, with-as, or self.attr) to a process-pool
        # constructor anywhere in the module.  Coarse but effective: thread
        # pools are excluded, so flagged sites really do cross a pickle.
        pool_names: set[str] = set()

        def collect(target: ast.expr, value: ast.expr) -> None:
            if not isinstance(value, ast.Call):
                return
            ctor = dotted_name(value.func)
            if ctor is None or ctor.rsplit(".", 1)[-1] not in _PROCESS_POOLS:
                return
            name = dotted_name(target)
            if name is not None:
                pool_names.add(name)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    collect(target, node.value)
            elif isinstance(node, ast.With):
                for item in node.items:
                    if item.optional_vars is not None:
                        collect(item.optional_vars, item.context_expr)

        findings: list[Finding] = []
        if not pool_names:
            return findings
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _SUBMIT_METHODS or not node.args:
                continue
            receiver = dotted_name(node.func.value)
            if receiver not in pool_names:
                continue
            fn = node.args[0]
            if isinstance(fn, ast.Attribute):
                bound = dotted_name(fn) or f"<expr>.{fn.attr}"
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"bound method {bound} submitted to process pool "
                        f"{receiver} — the whole instance (locks, connections) "
                        f"is pickled into the worker; submit a module-level "
                        f"function instead",
                    )
                )
        return findings
