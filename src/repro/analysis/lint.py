"""Concurrency / spawn-safety linter over the repro source tree.

A small, ruff-plugin-style pass built on stdlib :mod:`ast` — each rule is a
class with a stable code, and all of them run in a single parse of each
file.  The rules encode the three concurrency contracts the codebase
depends on:

``RPA101`` — *unguarded-shared-mutation*.  In a class that owns a
    ``threading.Lock`` (or ``RLock``/``Condition``/``Semaphore``), mutating
    a ``self._*`` collection outside any ``with self._lock:`` block is a
    data race **when the same attribute is also touched under the lock
    elsewhere in the class** (the cross-reference keeps single-threaded
    helper state out of scope).  ``__init__``-family methods and the
    repo's ``*_locked`` naming convention (methods documented to be called
    with the lock already held) are exempt.

``RPA102`` — *blocking-call-in-async*.  ``time.sleep``, synchronous
    ``Connection.recv`` / ``recv_bytes`` / ``Pipe`` reads, and
    ``subprocess.run``-family calls inside an ``async def`` body stall the
    whole event loop.  Nested synchronous ``def``s inside an async
    function (the usual run-in-executor payload) are excluded.

``RPA103`` — *unpicklable-spawn-payload*.  Lambdas, closures (functions or
    classes defined inside another function) passed as a
    ``multiprocessing`` ``Process(target=…)`` or in its ``args=`` tuple
    must cross a process boundary under the ``spawn`` start method — pickling them fails at runtime, usually
    only on the platform that has no ``fork``.

Suppression: a trailing ``# repro-lint: ignore[RPA101]`` comment on the
flagged line (or a bare ``# repro-lint: ignore``) silences the finding
inline; file-level waivers go through the shared ``--waive`` JSON file
(targets match ``path:line`` with :mod:`fnmatch` globs).
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

#: Constructors whose result makes the owning class "lock-owning".
_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Method calls that mutate a collection in place.
_MUTATOR_METHODS = frozenset({
    "append", "add", "insert", "extend", "update", "remove", "discard",
    "pop", "popitem", "popleft", "appendleft", "clear", "setdefault",
})

#: Methods allowed to touch shared state without the lock: construction and
#: pickling happen before/outside concurrent visibility.
_EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__getstate__", "__setstate__", "__reduce__",
    "__del__", "__repr__",
})

#: ``module.attr`` call chains that block the event loop.
_BLOCKING_CHAINS = frozenset({
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("os", "waitpid"),
})

#: Method names that read synchronously from a multiprocessing pipe; only
#: flagged when the receiver's name suggests a connection object.
_PIPE_READERS = frozenset({"recv", "recv_bytes", "poll"})
_PIPE_NAME_HINT = re.compile(r"conn|pipe|sock", re.IGNORECASE)

_IGNORE_COMMENT = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


def _terminal_name(node: ast.expr) -> Optional[str]:
    """``foo`` for ``foo`` / ``a.b.foo`` / ``a().foo`` — the last link."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted_tail(node: ast.expr) -> Tuple[str, ...]:
    """Up to the last two links of a dotted call chain, e.g. (time, sleep)."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute) and len(parts) < 2:
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name) and len(parts) < 2:
        parts.append(current.id)
    return tuple(reversed(parts))


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` when the expression is exactly ``self.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_factory_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = _terminal_name(node.func)
    return name in _LOCK_FACTORIES


class _InlineIgnores:
    """Per-file ``# repro-lint: ignore[...]`` comment index."""

    def __init__(self, source: str):
        self._by_line: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _IGNORE_COMMENT.search(line)
            if not match:
                continue
            codes = match.group(1)
            if codes is None:
                self._by_line[lineno] = None  # bare ignore: all codes
            else:
                self._by_line[lineno] = {
                    c.strip() for c in codes.split(",") if c.strip()
                }

    def suppresses(self, lineno: int, code: str) -> bool:
        if lineno not in self._by_line:
            return False
        codes = self._by_line[lineno]
        return codes is None or code in codes


# ---------------------------------------------------------------------------
# RPA101 — unguarded shared mutation in lock-owning classes
# ---------------------------------------------------------------------------

class _ClassLockAudit:
    """Collects lock ownership and guarded/unguarded attribute touches for
    one class body, then grades the unguarded mutations."""

    def __init__(self, node: ast.ClassDef, path: str):
        self.node = node
        self.path = path
        self.lock_attrs: Set[str] = set()
        #: attr -> line numbers of in-place mutations outside a lock.
        self.unguarded_mutations: List[Tuple[str, int]] = []
        #: attrs read or written inside any ``with self.<lock>:`` block.
        self.locked_attrs: Set[str] = set()
        self._scan_lock_attrs()
        if self.lock_attrs:
            self._scan_methods()

    def _scan_lock_attrs(self) -> None:
        for method in self.node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.Assign) and _is_lock_factory_call(stmt.value):
                    for target in stmt.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            self.lock_attrs.add(attr)
                elif (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and _is_lock_factory_call(stmt.value)
                ):
                    attr = _self_attr(stmt.target)
                    if attr is not None:
                        self.lock_attrs.add(attr)

    def _is_lock_guard(self, stmt: ast.With) -> bool:
        for item in stmt.items:
            expr = item.context_expr
            # ``with self._lock:`` and ``with self._cond:`` both count.
            attr = _self_attr(expr)
            if attr in self.lock_attrs:
                return True
            # ``with self._lock.acquire_timeout(...):`` style helpers.
            if isinstance(expr, ast.Call):
                inner = expr.func
                if isinstance(inner, ast.Attribute):
                    attr = _self_attr(inner.value)
                    if attr in self.lock_attrs:
                        return True
        return False

    def _scan_methods(self) -> None:
        for method in self.node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            exempt = (
                method.name in _EXEMPT_METHODS
                or method.name.endswith("_locked")
            )
            self._scan_block(method.body, guarded=False, exempt=exempt)

    def _scan_block(self, statements: Iterable[ast.stmt], guarded: bool,
                    exempt: bool) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.With) and self._is_lock_guard(stmt):
                self._scan_block(stmt.body, guarded=True, exempt=exempt)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs run later, possibly on another thread; audit
                # them unguarded regardless of the enclosing context.
                self._scan_block(stmt.body, guarded=False, exempt=exempt)
                continue
            self._record_touches(stmt, guarded, exempt)
            for block in self._child_blocks(stmt):
                self._scan_block(block, guarded=guarded, exempt=exempt)

    @staticmethod
    def _child_blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
        blocks: List[List[ast.stmt]] = []
        for field_name in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                blocks.append(value)
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks

    def _record_touches(self, stmt: ast.stmt, guarded: bool, exempt: bool) -> None:
        mutated = self._mutations_in(stmt)
        touched = self._self_attrs_in(stmt)
        if guarded:
            self.locked_attrs.update(touched)
            return
        if exempt:
            return
        for attr, lineno in mutated:
            if attr in self.lock_attrs:
                continue
            self.unguarded_mutations.append((attr, lineno))

    def _mutations_in(self, stmt: ast.stmt) -> List[Tuple[str, int]]:
        """In-place mutations of ``self._*`` attributes in this statement,
        skipping expressions nested inside statement children (those are
        visited through :meth:`_child_blocks`)."""
        mutations: List[Tuple[str, int]] = []
        for node in self._own_expressions(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                ):
                    attr = _self_attr(func.value)
                    if attr is not None and attr.startswith("_"):
                        mutations.append((attr, node.lineno))
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                attr = _self_attr(node.value)
                if attr is not None and attr.startswith("_"):
                    mutations.append((attr, node.lineno))
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr is not None and attr.startswith("_"):
                    mutations.append((attr, stmt.lineno))
        return mutations

    def _self_attrs_in(self, stmt: ast.stmt) -> Set[str]:
        return {
            attr
            for node in self._own_expressions(stmt)
            if (attr := _self_attr(node)) is not None and attr.startswith("_")
        }

    @staticmethod
    def _own_expressions(stmt: ast.stmt) -> Iterable[ast.expr]:
        """Expression nodes belonging to ``stmt`` itself (not to nested
        statement blocks, which are walked separately)."""
        stack: List[ast.AST] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            stack.append(child)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.expr):
                yield node
            for child in ast.iter_child_nodes(node):
                if not isinstance(node, (ast.Lambda,)) and not isinstance(
                    child, (ast.stmt, ast.excepthandler)
                ):
                    stack.append(child)

    def findings(self, rel_path: str) -> List[Finding]:
        out: List[Finding] = []
        for attr, lineno in self.unguarded_mutations:
            if attr not in self.locked_attrs:
                continue
            out.append(Finding(
                code="RPA101",
                target=f"{rel_path}:{lineno}",
                message=(
                    f"{self.node.name}.{attr} is mutated here without "
                    f"holding {sorted(self.lock_attrs)[0]!s}, but the same "
                    f"attribute is accessed under the lock elsewhere in the "
                    f"class"
                ),
                source="lint",
                file=rel_path,
                line=lineno,
            ))
        return out


# ---------------------------------------------------------------------------
# RPA102 — blocking calls in async bodies
# ---------------------------------------------------------------------------

def _blocking_calls(tree: ast.AST, rel_path: str) -> List[Finding]:
    findings: List[Finding] = []

    def scan_async_body(func: ast.AsyncFunctionDef) -> None:
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue  # nested sync defs are executor payloads, not awaits
            if isinstance(node, ast.AsyncFunctionDef):
                scan_async_body(node)
                continue
            if isinstance(node, ast.Call):
                finding = grade_call(node)
                if finding is not None:
                    findings.append(finding)
            stack.extend(ast.iter_child_nodes(node))

    def grade_call(node: ast.Call) -> Optional[Finding]:
        chain = _dotted_tail(node.func)
        if chain in _BLOCKING_CHAINS:
            label = ".".join(chain)
            return Finding(
                code="RPA102",
                target=f"{rel_path}:{node.lineno}",
                message=(
                    f"blocking {label}() inside an async def stalls the "
                    f"event loop; use the asyncio equivalent or "
                    f"run_in_executor"
                ),
                source="lint",
                file=rel_path,
                line=node.lineno,
            )
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _PIPE_READERS
            and _PIPE_NAME_HINT.search(_terminal_name(func.value) or "")
        ):
            return Finding(
                code="RPA102",
                target=f"{rel_path}:{node.lineno}",
                message=(
                    f"synchronous pipe read .{func.attr}() inside an async "
                    f"def blocks the event loop; hand the connection to a "
                    f"thread or use asyncio transports"
                ),
                source="lint",
                file=rel_path,
                line=node.lineno,
            )
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            scan_async_body(node)
    return findings


# ---------------------------------------------------------------------------
# RPA103 — unpicklable spawn payloads
# ---------------------------------------------------------------------------

class _SpawnPayloadScanner(ast.NodeVisitor):
    """Flags lambdas/closures handed to Process(...)."""

    def __init__(self, rel_path: str):
        self.rel_path = rel_path
        self.findings: List[Finding] = []
        #: Names defined as defs/classes *inside* an enclosing function —
        #: i.e. closures the spawn pickler cannot import by qualified name.
        self._closure_stack: List[Set[str]] = []

    # -- scope bookkeeping
    def _nested_names(self, func) -> Set[str]:
        names: Set[str] = set()
        for stmt in ast.walk(func):
            if stmt is func:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
        return names

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._closure_stack.append(self._nested_names(node))
        self.generic_visit(node)
        self._closure_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _is_closure_name(self, name: str) -> bool:
        return any(name in scope for scope in self._closure_stack)

    # -- payload grading
    def _grade_payload(self, value: ast.expr, role: str, lineno: int) -> None:
        if isinstance(value, ast.Lambda):
            self._emit(lineno, f"lambda passed as {role}")
            return
        if isinstance(value, ast.Name) and self._is_closure_name(value.id):
            self._emit(
                lineno,
                f"locally-defined callable {value.id!r} passed as {role}",
            )
            return
        if isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                self._grade_payload(element, role, lineno)

    def _emit(self, lineno: int, what: str) -> None:
        self.findings.append(Finding(
            code="RPA103",
            target=f"{self.rel_path}:{lineno}",
            message=(
                f"{what}: the spawn start method pickles this payload and "
                f"fails at runtime on lambdas, closures and local classes"
            ),
            source="lint",
            file=self.rel_path,
            line=lineno,
        ))

    def visit_Call(self, node: ast.Call) -> None:
        callee = _terminal_name(node.func)
        if callee == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self._grade_payload(keyword.value, "Process target", node.lineno)
                elif keyword.arg == "args":
                    self._grade_payload(keyword.value, "Process args", node.lineno)
            if node.args:
                # multiprocessing.Process(group, target, ...)
                if len(node.args) >= 2:
                    self._grade_payload(node.args[1], "Process target", node.lineno)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_source(source: str, rel_path: str) -> List[Finding]:
    """All lint rules over one file's source text."""
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return [Finding(
            code="RPA103",
            target=f"{rel_path}:{exc.lineno or 0}",
            message=f"file does not parse: {exc.msg}",
            severity="error",
            source="lint",
            file=rel_path,
            line=exc.lineno or 0,
        )]
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(_ClassLockAudit(node, rel_path).findings(rel_path))
    findings.extend(_blocking_calls(tree, rel_path))
    spawn_scanner = _SpawnPayloadScanner(rel_path)
    spawn_scanner.visit(tree)
    findings.extend(spawn_scanner.findings)

    ignores = _InlineIgnores(source)
    kept = [f for f in findings if not ignores.suppresses(f.line, f.code)]
    kept.sort(key=lambda f: (f.file, f.line, f.code))
    return kept


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: Set[str] = set()
    for path in paths:
        if os.path.isfile(path) and path.endswith(".py"):
            files.add(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in names:
                    if name.endswith(".py"):
                        files.add(os.path.join(root, name))
    return sorted(files)


def lint_paths(paths: Sequence[str], base: str = ".") -> List[Finding]:
    """Run every lint rule over the ``.py`` files under ``paths``."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        rel_path = os.path.relpath(file_path, base).replace(os.sep, "/")
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            findings.append(Finding(
                code="RPA103",
                target=f"{rel_path}:0",
                message=f"cannot read file: {exc}",
                source="lint",
                file=rel_path,
            ))
            continue
        findings.extend(lint_source(source, rel_path))
    return findings


__all__ = [
    "iter_python_files",
    "lint_paths",
    "lint_source",
]
