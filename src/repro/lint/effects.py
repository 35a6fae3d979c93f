"""Conservative effect inference over the project call graph.

Every function (and method, and module body — mirroring the call
graph's node set) gets a statically inferred *effect set*:

* ``blocks`` — the function can stall its thread: sleeps, synchronous
  socket/file I/O, ``subprocess``, an un-timed ``lock.acquire()`` /
  ``event.wait()`` / ``thread.join()`` / ``queue.get()``;
* ``acquires(lock)`` — the function takes a lock or condition, named
  by its attribute path (``repro.serve.session.SessionManager._lock``);
* ``allocates(resource)`` — the function creates something that needs
  explicit release: open files, sockets, mmaps, threads, processes.

Effects then propagate through :mod:`repro.lint.callgraph`: a caller
*has* every effect of every callee the resolver can pin down, with the
shortest witness chain preserved for diagnostics — the same honesty
contract as RL001 (no dynamic dispatch, no guessing).

Two asymmetries are deliberate.  ``await``-ed calls produce **no**
effects: awaiting an asyncio primitive is cooperative, not blocking.
And calls through the sanctioned executor boundaries
(``loop.run_in_executor(...)`` / ``asyncio.to_thread(...)``) are
skipped entirely, arguments included — handing a blocking function to
an executor is exactly how async code is *supposed* to block.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.callgraph import (
    MODULE_BODY,
    CallGraph,
    build_call_graph,
    module_bindings,
)
from repro.lint.project import Project, SourceFile

EFFECT_BLOCKS = "blocks"
EFFECT_ACQUIRES = "acquires"
EFFECT_ALLOCATES = "allocates"

#: qualified names whose call can stall the calling thread.
BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "sleeps",
    "subprocess.run": "runs a child process synchronously",
    "subprocess.call": "runs a child process synchronously",
    "subprocess.check_call": "runs a child process synchronously",
    "subprocess.check_output": "runs a child process synchronously",
    "os.system": "runs a shell synchronously",
    "os.waitpid": "waits on a child process",
    "socket.create_connection": "opens a TCP connection synchronously",
    "socket.getaddrinfo": "resolves DNS synchronously",
    "socket.gethostbyname": "resolves DNS synchronously",
    "urllib.request.urlopen": "performs a synchronous HTTP request",
    "select.select": "waits on file descriptors",
    "signal.pause": "waits for a signal",
    "open": "synchronous file I/O",
    "io.open": "synchronous file I/O",
}

#: qualified names whose result owns a releasable resource.
ALLOCATING_CALLS: dict[str, str] = {
    "open": "file",
    "io.open": "file",
    "os.open": "file descriptor",
    "os.fdopen": "file",
    "os.pipe": "pipe",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "mmap.mmap": "memory map",
    "threading.Thread": "thread",
    "subprocess.Popen": "child process",
    "multiprocessing.Pipe": "pipe",
    "tempfile.TemporaryFile": "temporary file",
    "tempfile.NamedTemporaryFile": "temporary file",
}

#: constructors whose result is a lock (for recognizing module-level
#: lock globals: ``LOCK = threading.Lock()`` then ``with LOCK:``).
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

#: attribute names through which async code legitimately hands
#: blocking work to a thread — calls through these are not effects.
EXECUTOR_BOUNDARIES = frozenset({"run_in_executor", "to_thread"})

#: methods that release a resource, for lifecycle classification.
_RELEASE_METHODS = frozenset(
    {
        "close", "join", "release", "terminate", "shutdown", "kill",
        "stop", "cancel", "unlink", "cleanup",
    }
)


@dataclass(frozen=True)
class Effect:
    """One inferred effect at one source location."""

    kind: str  # EFFECT_BLOCKS / EFFECT_ACQUIRES / EFFECT_ALLOCATES
    what: str  # the API, lock path, or resource kind
    why: str  # one-line human description
    line: int
    col: int


@dataclass(frozen=True)
class Allocation:
    """One resource allocation with its lifecycle disposition."""

    resource: str
    api: str
    line: int
    col: int
    managed: bool
    how: str  # why it is (or is not) released on all paths


@dataclass(frozen=True)
class HeldAcquire:
    """Lock ``acquired`` taken while ``held`` was already held."""

    held: str
    acquired: str
    line: int
    col: int


@dataclass(frozen=True)
class HeldCall:
    """A resolved call made while ``held`` was held."""

    held: str
    callee: str
    line: int
    col: int


@dataclass(frozen=True)
class SelfAccess:
    """One ``self.<attr>`` read or write inside a method."""

    attr: str
    line: int
    col: int
    write: bool


@dataclass
class FunctionEffects:
    """The inferred effect set of one call-graph node."""

    qname: str
    module: str
    source: SourceFile
    class_qname: str | None
    is_async: bool
    effects: list[Effect] = field(default_factory=list)
    allocations: list[Allocation] = field(default_factory=list)
    held_acquires: list[HeldAcquire] = field(default_factory=list)
    held_calls: list[HeldCall] = field(default_factory=list)
    self_accesses: list[SelfAccess] = field(default_factory=list)

    def of_kind(self, kind: str) -> Iterator[Effect]:
        for effect in self.effects:
            if effect.kind == kind:
                yield effect


class EffectMap:
    """Per-function direct effects plus call-graph propagation."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self.functions: dict[str, FunctionEffects] = {}
        self._acquire_closures: dict[str, dict[str, tuple[str, ...]]] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def build(cls, project: Project, graph: CallGraph | None = None) -> "EffectMap":
        if graph is None:
            graph = build_call_graph(project)
        effect_map = cls(project, graph)
        for source in project.files:
            _EffectExtractor(effect_map, source).extract()
        return effect_map

    # -- propagation -----------------------------------------------------
    def acquires_closure(self, qname: str) -> dict[str, tuple[str, ...]]:
        """Every lock ``qname`` acquires, directly or via resolved
        callees: ``{lock path: shortest witness call chain}``."""
        cached = self._acquire_closures.get(qname)
        if cached is not None:
            return cached
        closure: dict[str, tuple[str, ...]] = {}
        # reachable_from is BFS: insertion order is shortest-first, so
        # keeping the first witness per lock keeps the shortest one.
        for node, witness in self.graph.reachable_from([qname]).items():
            fx = self.functions.get(node)
            if fx is None:
                continue
            for effect in fx.of_kind(EFFECT_ACQUIRES):
                closure.setdefault(effect.what, witness)
        self._acquire_closures[qname] = closure
        return closure

    def blocking_from(
        self, entries: list[str]
    ) -> list[tuple[FunctionEffects, tuple[str, ...], Effect]]:
        """Every ``blocks`` effect reachable from ``entries``, deduped
        by source location keeping the shortest witness chain."""
        found: dict[tuple[str, int, int], tuple[FunctionEffects, tuple[str, ...], Effect]] = {}
        for node, witness in self.graph.reachable_from(entries).items():
            fx = self.functions.get(node)
            if fx is None:
                continue
            for effect in fx.of_kind(EFFECT_BLOCKS):
                key = (fx.source.relpath, effect.line, effect.col)
                known = found.get(key)
                if known is not None and len(known[1]) <= len(witness):
                    continue
                found[key] = (fx, witness, effect)
        return [found[key] for key in sorted(found)]


def effect_map_for(project: Project) -> EffectMap:
    """The project's effect map, built once and cached on the project
    (four rules share it; the analysis is deterministic either way)."""
    cached = getattr(project, "_effect_map", None)
    if isinstance(cached, EffectMap):
        return cached
    effect_map = EffectMap.build(project)
    project._effect_map = effect_map  # type: ignore[attr-defined]
    return effect_map


def module_lock_globals(source: SourceFile) -> set[str]:
    """Module-level names bound to a lock factory call."""
    bindings = module_bindings(source)
    locks: set[str] = set()
    for statement in source.tree.body:
        if not isinstance(statement, ast.Assign):
            continue
        value = statement.value
        if not isinstance(value, ast.Call):
            continue
        target_qname = _resolve_qname(value.func, bindings)
        if target_qname not in LOCK_FACTORIES:
            continue
        for target in statement.targets:
            if isinstance(target, ast.Name):
                locks.add(target.id)
    return locks


def _resolve_qname(func: ast.expr, bindings: dict[str, str]) -> str | None:
    if isinstance(func, ast.Name):
        return bindings.get(func.id, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = bindings.get(func.value.id)
        if base is not None:
            return f"{base}.{func.attr}"
    return None


def _attr_parts(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for anything else."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.insert(0, node.id)
        return parts
    return None


def _has_timeout(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(
        kw.arg in ("timeout", "blocking", "block") for kw in call.keywords
    )


@dataclass
class _PendingAllocation:
    """An allocation bound to a local name, classified at scope exit."""

    resource: str
    api: str
    line: int
    col: int
    names: tuple[str, ...]


class _EffectExtractor(ast.NodeVisitor):
    """One file's direct effects, mirroring the call-graph scoping."""

    def __init__(self, effect_map: EffectMap, source: SourceFile) -> None:
        self.effect_map = effect_map
        self.source = source
        self.bindings = module_bindings(source)
        self.module_locks = module_lock_globals(source)
        # Scope entries mirror callgraph._GraphBuilder: (owning function
        # qname, enclosing class qname, local bindings, is-class-body).
        self._scope: list[tuple[str, str | None, dict[str, str], bool]] = []
        self._current: FunctionEffects | None = None
        self._held: list[str] = []
        self._awaited: set[int] = set()
        # What the enclosing statement does with an allocated value:
        # "with" / "escapes" / "stored" / "bare", or bound local names.
        self._disposition: list[tuple[str, tuple[str, ...]]] = [("bare", ())]
        self._pending: list[_PendingAllocation] = []

    def extract(self) -> None:
        qname = f"{self.source.module}.{MODULE_BODY}"
        self._current = self._add_function(qname, None, is_async=False)
        self._scope.append((qname, None, {}, False))
        body_node = self.source.tree
        for statement in body_node.body:
            self.visit(statement)
        self._finish_pending(body_node)
        self._scope.pop()

    # -- bookkeeping -------------------------------------------------------
    def _add_function(
        self, qname: str, class_qname: str | None, is_async: bool
    ) -> FunctionEffects:
        fx = FunctionEffects(
            qname=qname,
            module=self.source.module,
            source=self.source,
            class_qname=class_qname,
            is_async=is_async,
        )
        self.effect_map.functions[qname] = fx
        return fx

    def _note(self, kind: str, what: str, why: str, node: ast.expr) -> None:
        assert self._current is not None
        self._current.effects.append(
            Effect(
                kind=kind, what=what, why=why,
                line=node.lineno, col=node.col_offset,
            )
        )

    def _qualify(self, name: str) -> str:
        owner, _, _, _ = self._scope[-1]
        if owner.endswith("." + MODULE_BODY):
            return f"{self.source.module}.{name}"
        return f"{owner}.{name}"

    # -- scope management (mirrors callgraph._GraphBuilder) ----------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qname = self._qualify(node.name)
        owner, _, locals_, _ = self._scope[-1]
        locals_[node.name] = qname
        self._scope.append((owner, qname, dict(locals_), True))
        for statement in node.body:
            self.visit(statement)
        self._scope.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        owner, class_qname, locals_, in_class_body = self._scope[-1]
        if in_class_body and class_qname is not None:
            qname = f"{class_qname}.{node.name}"
        else:
            qname = self._qualify(node.name)
            locals_[node.name] = qname
        outer_fx = self._current
        outer_held = self._held
        outer_pending = self._pending
        self._current = self._add_function(
            qname, class_qname, isinstance(node, ast.AsyncFunctionDef)
        )
        self._held = []  # a nested def's body runs later, outside the with
        self._pending = []
        self._scope.append((qname, class_qname, dict(locals_), False))
        self._disposition.append(("bare", ()))
        for statement in node.body:
            self.visit(statement)
        self._disposition.pop()
        self._finish_pending(node)
        self._scope.pop()
        self._current = outer_fx
        self._held = outer_held
        self._pending = outer_pending

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- lock paths ---------------------------------------------------------
    def _lock_path(self, expr: ast.expr) -> str | None:
        parts = _attr_parts(expr)
        if parts is None:
            return None
        root = parts[0]
        if root == "self" and len(parts) > 1:
            _, class_qname, _, _ = self._scope[-1]
            if class_qname is not None:
                return f"{class_qname}.{'.'.join(parts[1:])}"
            return None
        if len(parts) == 1:
            # A bare name is only a lock if the module level binds it
            # to a lock factory; locals stay unresolved (no guessing).
            if root in self.module_locks:
                return f"{self.source.module}.{root}"
            return None
        base = self.bindings.get(root)
        if base is not None:
            return f"{base}.{'.'.join(parts[1:])}"
        return None

    def _note_acquire(self, lock: str, node: ast.expr) -> None:
        assert self._current is not None
        self._note(
            EFFECT_ACQUIRES, lock, f"acquires {lock.rsplit('.', 1)[-1]}", node
        )
        for held in self._held:
            if held != lock:
                self._current.held_acquires.append(
                    HeldAcquire(
                        held=held, acquired=lock,
                        line=node.lineno, col=node.col_offset,
                    )
                )

    # -- with blocks ---------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node, is_async=False)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node, is_async=True)

    def _handle_with(self, node: ast.With | ast.AsyncWith, is_async: bool) -> None:
        pushed = 0
        for item in node.items:
            ctx = item.context_expr
            lock = None if is_async else self._lock_path(ctx)
            if lock is not None:
                self._note_acquire(lock, ctx)
                self._held.append(lock)
                pushed += 1
            else:
                self._disposition.append(("with", ()))
                self.visit(ctx)
                self._disposition.pop()
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for statement in node.body:
            self.visit(statement)
        for _ in range(pushed):
            self._held.pop()

    # -- statement shapes feeding allocation disposition ----------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        names = tuple(
            target.id for target in node.targets if isinstance(target, ast.Name)
        )
        if names and len(names) == len(node.targets):
            self._disposition.append(("name", names))
        else:
            # Attribute/subscript/tuple targets: the value is stored
            # somewhere that outlives the statement — owner's problem.
            self._disposition.append(("stored", ()))
        self.visit(node.value)
        self._disposition.pop()
        for target in node.targets:
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if isinstance(node.target, ast.Name):
                self._disposition.append(("name", (node.target.id,)))
            else:
                self._disposition.append(("stored", ()))
            self.visit(node.value)
            self._disposition.pop()
        self.visit(node.target)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._disposition.append(("escapes", ()))
            self.visit(node.value)
            self._disposition.pop()

    def visit_Expr(self, node: ast.Expr) -> None:
        self._disposition.append(("bare", ()))
        self.visit(node.value)
        self._disposition.pop()

    # -- effects at call sites -------------------------------------------------
    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in EXECUTOR_BOUNDARIES:
            # The sanctioned async->thread hand-off: neither the call
            # nor the blocking function passed to it is an effect here.
            return
        if id(node) not in self._awaited:
            self._classify_call(node)
        callee = self._resolve(node)
        if callee is not None and self._held:
            assert self._current is not None
            for held in self._held:
                self._current.held_calls.append(
                    HeldCall(
                        held=held, callee=callee,
                        line=node.lineno, col=node.col_offset,
                    )
                )
        # Arguments of any call receive the allocated value: ownership
        # escapes to the callee.
        self.visit(func)
        self._disposition.append(("escapes", ()))
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)
        self._disposition.pop()

    def _resolve(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            _, _, locals_, _ = self._scope[-1]
            if func.id in locals_:
                return locals_[func.id]
            return self.bindings.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "self":
                _, class_qname, _, _ = self._scope[-1]
                if class_qname is not None:
                    return f"{class_qname}.{func.attr}"
                return None
            base = self.bindings.get(func.value.id)
            if base is not None:
                return f"{base}.{func.attr}"
        return None

    def _classify_call(self, node: ast.Call) -> None:
        func = node.func
        qname: str | None = None
        if isinstance(func, ast.Name):
            qname = self.bindings.get(func.id, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = self.bindings.get(func.value.id)
            if base is not None:
                qname = f"{base}.{func.attr}"
        if qname is not None:
            why = BLOCKING_CALLS.get(qname)
            if why is not None:
                self._note(EFFECT_BLOCKS, qname, why, node)
            resource = ALLOCATING_CALLS.get(qname)
            if resource is not None:
                self._record_allocation(node, qname, resource)
        if isinstance(func, ast.Attribute):
            self._classify_method_call(node, func)

    def _classify_method_call(self, node: ast.Call, func: ast.Attribute) -> None:
        receiver = _attr_parts(func.value)
        if receiver is None:
            return  # constants ("".join), calls, subscripts: no receiver path
        method = func.attr
        described = ".".join(receiver)
        if method == "acquire":
            lock = self._lock_path(func.value)
            if lock is not None:
                self._note_acquire(lock, node)
            if not _has_timeout(node):
                self._note(
                    EFFECT_BLOCKS, f"{described}.acquire",
                    "acquires a lock without a timeout", node,
                )
        elif method == "wait" and not _has_timeout(node):
            self._note(
                EFFECT_BLOCKS, f"{described}.wait",
                "waits on an event/condition without a timeout", node,
            )
        elif method == "join" and not node.args and not node.keywords:
            self._note(
                EFFECT_BLOCKS, f"{described}.join",
                "joins a thread without a timeout", node,
            )
        elif (
            method == "get"
            and not _has_timeout(node)
            and any("queue" in part.lower() for part in receiver)
        ):
            self._note(
                EFFECT_BLOCKS, f"{described}.get",
                "dequeues without a timeout", node,
            )

    # -- allocation lifecycle ---------------------------------------------------
    def _record_allocation(self, node: ast.Call, api: str, resource: str) -> None:
        assert self._current is not None
        self._note(EFFECT_ALLOCATES, resource, f"allocates a {resource}", node)
        shape, names = self._disposition[-1]
        if shape == "with":
            self._add_allocation(node, api, resource, True, "context-managed")
        elif shape == "escapes":
            self._add_allocation(
                node, api, resource, True, "ownership escapes to the caller"
            )
        elif shape == "stored":
            self._add_allocation(
                node, api, resource, True, "stored on an owning object"
            )
        elif shape == "name" and names:
            self._pending.append(
                _PendingAllocation(
                    resource=resource, api=api,
                    line=node.lineno, col=node.col_offset, names=names,
                )
            )
        else:
            self._add_allocation(
                node, api, resource, False,
                "the result is discarded without being released",
            )

    def _add_allocation(
        self, node: ast.Call, api: str, resource: str, managed: bool, how: str
    ) -> None:
        assert self._current is not None
        self._current.allocations.append(
            Allocation(
                resource=resource, api=api,
                line=node.lineno, col=node.col_offset,
                managed=managed, how=how,
            )
        )

    def _finish_pending(self, scope_node: ast.AST) -> None:
        assert self._current is not None
        for pending in self._pending:
            managed, how = _name_disposition(scope_node, pending.names)
            self._current.allocations.append(
                Allocation(
                    resource=pending.resource, api=pending.api,
                    line=pending.line, col=pending.col,
                    managed=managed, how=how,
                )
            )
        self._pending = []

    # -- self attribute accesses ---------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        _, class_qname, _, _ = self._scope[-1]
        if class_qname is not None and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                assert self._current is not None
                self._current.self_accesses.append(
                    SelfAccess(
                        attr=node.attr,
                        line=node.lineno, col=node.col_offset,
                        write=isinstance(node.ctx, (ast.Store, ast.Del)),
                    )
                )
        self.generic_visit(node)


def _is_name_of(expr: ast.expr, names: tuple[str, ...]) -> bool:
    """Whether ``expr`` is one of ``names`` at top level (possibly
    inside a tuple/list literal or a conditional expression)."""
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, (ast.Tuple, ast.List)):
        return any(_is_name_of(element, names) for element in expr.elts)
    if isinstance(expr, ast.IfExp):
        return _is_name_of(expr.body, names) or _is_name_of(expr.orelse, names)
    return False


def _name_disposition(
    scope_node: ast.AST, names: tuple[str, ...]
) -> tuple[bool, str]:
    """How a locally bound allocation fares over the rest of its scope."""
    in_finally: set[int] = set()
    for candidate in ast.walk(scope_node):
        if isinstance(candidate, ast.Try) and candidate.finalbody:
            for statement in candidate.finalbody:
                for sub in ast.walk(statement):
                    in_finally.add(id(sub))

    released_outside_finally = False
    for candidate in ast.walk(scope_node):
        if isinstance(candidate, ast.Name) and candidate.id in names:
            if id(candidate) in in_finally:
                return True, "released in a finally block"
        if isinstance(candidate, ast.Call):
            for arg in list(candidate.args) + [
                kw.value for kw in candidate.keywords
            ]:
                if isinstance(arg, ast.Name) and arg.id in names:
                    return True, "handed off as a call argument"
            func = candidate.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in names
                and func.attr in _RELEASE_METHODS
            ):
                released_outside_finally = True
        if isinstance(candidate, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = candidate.value
            # The *handle itself* must be what escapes: returning
            # `handle.read()` returns data, not ownership.
            if value is not None and _is_name_of(value, names):
                return True, "returned to the caller"
        if isinstance(candidate, ast.Assign):
            for target in candidate.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                    _is_name_of(candidate.value, names)
                ):
                    return True, "stored on an owning object"

    if released_outside_finally:
        return False, (
            "released only on the happy path (no with/try-finally)"
        )
    return False, "never released on any path"


__all__ = [
    "ALLOCATING_CALLS",
    "Allocation",
    "BLOCKING_CALLS",
    "EFFECT_ACQUIRES",
    "EFFECT_ALLOCATES",
    "EFFECT_BLOCKS",
    "EXECUTOR_BOUNDARIES",
    "Effect",
    "EffectMap",
    "FunctionEffects",
    "HeldAcquire",
    "HeldCall",
    "LOCK_FACTORIES",
    "SelfAccess",
    "effect_map_for",
    "module_lock_globals",
]
