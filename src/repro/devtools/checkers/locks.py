"""``lock-discipline``: lock-guarded attributes stay under the lock.

For every class that creates a ``threading.Lock``/``RLock``/``Condition``
in ``__init__``, the checker *infers* the guarded attribute set — the
``self.*`` attributes **mutated** inside ``with self.<lock>:`` blocks (or
inside ``*_locked`` helpers) anywhere outside ``__init__`` — and then flags

* any read or write of a guarded attribute outside a lock context, and
* any call of a ``*_locked`` helper from outside a lock context.

A *lock context* is the body of a ``with self.<lock>:`` statement, the body
of a ``with self.<lock>.<scope>(...):`` statement (the keyed-lock idiom — a
``KeyedLocks`` pool hands out per-key/store scopes via
``.key()``/``.keys()``/``.store()`` context managers), the body of a method
whose name ends in ``_locked`` (the project convention for helpers that
document "caller holds the lock"), or ``__init__``/``__del__`` (no
concurrent aliases exist yet/any more).  Mutation means assignment,
augmented assignment, deletion, subscript stores (``self.d[k] = v``) and
calls of well-known mutator methods (``self.d.pop(...)``, ``.clear()``,
``.append(...)``, ...).

Inference-from-mutation keeps the checker quiet on attributes that merely
*happen* to be read under the lock (an immutable config object, a store
handle) while catching the race class that matters: state the class itself
updates under its lock and then touches unprotected elsewhere — exactly the
heisenbug the ROADMAP's per-key-locking work would otherwise invite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.devtools.base import Checker, ModuleSource, self_attr
from repro.devtools.findings import Finding

__all__ = ["LockDisciplineChecker"]

#: Constructor names that create a lock object (KeyedLocks stands for a
#: striped per-key lock pool, entered via .key()/.keys()/.store()).
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "KeyedLocks"}
)

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Methods whose bodies count as lock contexts without a ``with`` statement.
_IMPLICIT_CONTEXTS = ("__init__", "__del__")


def _is_lock_factory(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name in _LOCK_FACTORIES


@dataclass(frozen=True)
class _Access:
    attr: str
    write: bool
    under_lock: bool
    node: ast.AST
    method: str


class _MethodScanner(ast.NodeVisitor):
    """Record every ``self.*`` access of one method with its lock context."""

    def __init__(self, method: ast.FunctionDef, lock_attrs: frozenset[str]) -> None:
        self._lock_attrs = lock_attrs
        self._method = method.name
        self._depth = 1 if (
            method.name.endswith("_locked") or method.name in _IMPLICIT_CONTEXTS
        ) else 0
        self.accesses: list[_Access] = []
        self.locked_calls: list[tuple[str, ast.AST, bool]] = []
        self._write_nodes: set[int] = set()

    # -- lock context tracking ----------------------------------------- #
    def _holds_lock(self, context_expr: ast.expr) -> bool:
        """``with self.<lock>:`` or ``with self.<lock>.<scope>(...):``."""
        if self_attr(context_expr) in self._lock_attrs:
            return True
        if isinstance(context_expr, ast.Call) and isinstance(
            context_expr.func, ast.Attribute
        ):
            return self_attr(context_expr.func.value) in self._lock_attrs
        return False

    def visit_With(self, node: ast.With) -> None:
        holds = any(self._holds_lock(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if holds:
            self._depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if holds:
            self._depth -= 1

    # -- writes --------------------------------------------------------- #
    def _mark_write(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mark_write(element)
            return
        if isinstance(target, ast.Starred):
            self._mark_write(target.value)
            return
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        attr = self_attr(node)
        if attr is not None:
            self._write_nodes.add(id(node))
            self._record(attr, write=True, node=node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mark_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mark_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._mark_write(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._mark_write(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = self_attr(func.value)
            if receiver is not None and func.attr in _MUTATORS:
                self._write_nodes.add(id(func.value))
                self._record(receiver, write=True, node=func.value)
            called = self_attr(func)
            if called is not None and called.endswith("_locked"):
                self.locked_calls.append((called, node, self._depth > 0))
        self.generic_visit(node)

    # -- reads ---------------------------------------------------------- #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attr(node)
        if attr is not None and id(node) not in self._write_nodes:
            self._record(attr, write=False, node=node)
        self.generic_visit(node)

    def _record(self, attr: str, write: bool, node: ast.AST) -> None:
        if attr in self._lock_attrs:
            return
        self.accesses.append(
            _Access(
                attr=attr,
                write=write,
                under_lock=self._depth > 0,
                node=node,
                method=self._method,
            )
        )


class LockDisciplineChecker(Checker):
    id = "lock-discipline"
    description = (
        "attributes mutated under a class's lock must never be accessed "
        "outside it; *_locked helpers may only be called under the lock"
    )

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    # ------------------------------------------------------------------ #
    def _check_class(self, module: ModuleSource, cls: ast.ClassDef) -> list[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = frozenset(
            attr
            for method in methods
            if method.name == "__init__"
            for stmt in ast.walk(method)
            if isinstance(stmt, ast.Assign) and _is_lock_factory(stmt.value)
            for target in stmt.targets
            if (attr := self_attr(target)) is not None
        )
        if not lock_attrs:
            return []

        scanners = {
            method.name: _MethodScanner(method, lock_attrs) for method in methods
        }
        for method in methods:
            scanners[method.name].visit(method)

        guarded = {
            access.attr
            for scanner in scanners.values()
            for access in scanner.accesses
            if access.write and access.under_lock and access.method != "__init__"
        }

        findings: list[Finding] = []
        lock_names = ", ".join(sorted(f"self.{name}" for name in lock_attrs))
        for scanner in scanners.values():
            for access in scanner.accesses:
                if access.attr in guarded and not access.under_lock:
                    kind = "write to" if access.write else "read of"
                    findings.append(
                        self.finding(
                            module,
                            access.node,
                            f"{kind} lock-guarded attribute self.{access.attr} "
                            f"outside {lock_names} in {cls.name}.{access.method} "
                            f"(guard it with the lock or move it into a *_locked "
                            f"helper)",
                        )
                    )
            for called, call_node, under in scanner.locked_calls:
                if not under:
                    findings.append(
                        self.finding(
                            module,
                            call_node,
                            f"call of under-lock helper self.{called}() outside "
                            f"{lock_names} in {cls.name} — the *_locked suffix "
                            f"means the caller must hold the lock",
                        )
                    )
        return findings
