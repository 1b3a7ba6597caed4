"""Schema and exception hygiene: three small checks with one home.

* ``schema-literal`` — integer schema-version literals (``{"schema": 3}``,
  ``entry["schema"] == 2``, ``schema=3``) outside the schema module.  Every
  schema check compares against
  :data:`repro.store.schema.ENTRY_SCHEMA_VERSION` or
  :data:`repro.exec.cache.KEY_SCHEMA_VERSION`; a stray literal silently goes
  out of date at the next bump.  The schema module itself, the cache
  module and the regular test files are path-exempt (tests legitimately
  build stale and future-schema entries), but the lint fixtures are not —
  which is how the checker's own bad-fixture test stays honest.
* ``bare-except`` — ``except:`` catches ``SystemExit``/``KeyboardInterrupt``
  and hides typos.  Catch something named.
* ``swallowed-exception`` — ``except Exception:`` whose body neither
  re-raises nor logs/records the error.  The store retry path re-raises,
  the HTTP server logs; silent ``pass`` bodies need a tag saying why losing
  the error is correct.
"""

from __future__ import annotations

import ast

from repro.devtools.base import Checker, ModuleSource, dotted_name
from repro.devtools.findings import Finding

__all__ = ["HygieneChecker"]

CHECK_SCHEMA_LITERAL = "schema-literal"
CHECK_BARE_EXCEPT = "bare-except"
CHECK_SWALLOWED = "swallowed-exception"

#: Paths where integer schema literals are the point, not a bug.
_SCHEMA_LITERAL_EXEMPT = (
    "repro/store/schema.py",  # defines the constants
    "repro/exec/cache.py",  # defines KEY_SCHEMA_VERSION
    "tests/test_",  # tests construct stale and future-schema entries
    "tests/conftest.py",
)

#: Call names in an except body that count as handling the error.
_HANDLER_CALL_NAMES = frozenset(
    {
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
        "log",
        "log_message",
        "print",
        "record",
        "fail",
        "append",
        "add",
        "put",
        "send_error",
        "send_json",
        "set_exception",
    }
)


def _is_schema_name(node: ast.expr) -> bool:
    """``entry["schema"]``, ``x.schema``, ``schema_version`` and friends."""
    if isinstance(node, ast.Subscript):
        key = node.slice
        return (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and "schema" in key.value
        )
    if isinstance(node, ast.Call):
        # entry.get("schema"), entry.get("schema", 0)
        callee = node.func
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return "schema" in node.args[0].value
        return False
    if isinstance(node, ast.Attribute):
        return "schema" in node.attr.lower()
    if isinstance(node, ast.Name):
        return "schema" in node.id.lower()
    return False


def _int_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is int  # bool is an int subclass; exclude it
    )


class HygieneChecker(Checker):
    """Three ids share one walk; suppression tags name the specific id."""

    def descriptions(self) -> dict[str, str]:
        return {
            CHECK_SCHEMA_LITERAL: (
                "no integer schema-version literals outside repro.store.schema "
                "and repro.exec.cache"
            ),
            CHECK_BARE_EXCEPT: "no bare except: name the exception type",
            CHECK_SWALLOWED: "except Exception must re-raise, log or record the error",
        }

    def check(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        schema_exempt = any(frag in module.rel for frag in _SCHEMA_LITERAL_EXEMPT)
        for node in ast.walk(module.tree):
            if not schema_exempt:
                findings.extend(self._schema_literals(module, node))
            if isinstance(node, ast.ExceptHandler):
                findings.extend(self._except_handler(module, node))
        return findings

    # -- schema literals ------------------------------------------------ #
    def _schema_literals(self, module: ModuleSource, node: ast.AST) -> list[Finding]:
        out: list[Finding] = []

        def flag(at: ast.AST, what: str) -> None:
            out.append(
                Finding(
                    path=str(module.path),
                    line=at.lineno,
                    col=at.col_offset + 1,
                    check=CHECK_SCHEMA_LITERAL,
                    message=(
                        f"integer schema-version literal in {what} — compare "
                        f"against ENTRY_SCHEMA_VERSION (repro.store.schema) or "
                        f"KEY_SCHEMA_VERSION (repro.exec.cache) so a bump "
                        f"changes one line"
                    ),
                )
            )

        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "schema"
                    and _int_literal(value)
                ):
                    flag(value, 'a {"schema": <int>} literal')
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            named = any(_is_schema_name(side) for side in sides)
            literal = next((s for s in sides if _int_literal(s)), None)
            if named and literal is not None:
                flag(literal, "a schema-version comparison")
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "schema" and _int_literal(kw.value):
                    flag(kw.value, "a schema= keyword argument")
        elif isinstance(node, ast.Assign):
            if _int_literal(node.value) and any(
                _is_schema_name(t) for t in node.targets
            ):
                # Skip the defining module's own `SCHEMA_VERSION = N` (path
                # exempt anyway); elsewhere, shadow constants drift.
                flag(node.value, "a schema-version assignment")
        return out

    # -- exception handlers --------------------------------------------- #
    def _except_handler(
        self, module: ModuleSource, handler: ast.ExceptHandler
    ) -> list[Finding]:
        if handler.type is None:
            return [
                Finding(
                    path=str(module.path),
                    line=handler.lineno,
                    col=handler.col_offset + 1,
                    check=CHECK_BARE_EXCEPT,
                    message=(
                        "bare except: catches SystemExit/KeyboardInterrupt and "
                        "hides typos — name the exception type"
                    ),
                )
            ]
        if not self._catches_broad(handler.type):
            return []
        if self._handles(handler):
            return []
        caught = dotted_name(handler.type) or "Exception"
        return [
            Finding(
                path=str(module.path),
                line=handler.lineno,
                col=handler.col_offset + 1,
                check=CHECK_SWALLOWED,
                message=(
                    f"except {caught} swallows the error: the body neither "
                    f"re-raises nor logs/records it — narrow the type, handle "
                    f"it visibly, or tag with the reason losing it is safe"
                ),
            )
        ]

    @staticmethod
    def _catches_broad(type_node: ast.expr) -> bool:
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for node in nodes:
            name = dotted_name(node)
            if name in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _handles(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Return) and node.value is not None:
                # returning a value (an error result, a fallback) is handling
                return True
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                last = callee.rsplit(".", 1)[-1].lstrip("_") if callee else None
                if last in _HANDLER_CALL_NAMES:
                    return True
        return False
