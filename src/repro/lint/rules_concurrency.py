"""RL008–RL011: the concurrency rules.

PR 9 made the reproduction a long-running concurrent service: an
asyncio event loop in front, per-session worker threads behind it,
``Condition``/``RLock``/``Lock`` state in between, and a supervised
``WorkPool`` under every campaign.  That is exactly the territory where the
paper's slow-transfer pathologies have software analogues — a blocked
event loop or a lock-order inversion stalls every client the same way
a slow receiver stalls a table transfer.  These rules turn the three
classic failure shapes (event-loop stall, unguarded shared state,
leaked resource, deadlock) into lint findings with RL001-style
witness paths, built on :mod:`repro.lint.effects`.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from typing import Iterable, Iterator

from repro.lint.callgraph import MODULE_BODY
from repro.lint.effects import (
    EffectMap,
    FunctionEffects,
    effect_map_for,
)
from repro.lint.engine import Finding, Rule, register_rule
from repro.lint.project import Project, SourceFile

#: packages whose ``async def`` bodies must never block (RL008).
ASYNC_PACKAGES = ("repro.serve",)

#: long-running modules where a leaked resource accumulates (RL010).
LIFECYCLE_PACKAGES = (
    "repro.serve",
    "repro.exec",
    "repro.workloads.checkpoint",
)

#: the guarded-by annotation: on the line declaring a shared mutable
#: attribute, name the lock attribute every access must hold.
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: methods that run before the object is shared — unguarded writes
#: there are construction, not races.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__del__"}
)


def _describe(qname: str) -> str:
    if qname.endswith("." + MODULE_BODY):
        return qname[: -len(MODULE_BODY) - 1] + " (module body)"
    return qname


# ---------------------------------------------------------------------- #
# RL008                                                                   #
# ---------------------------------------------------------------------- #
@register_rule
class AsyncBlockingReachable(Rule):
    """RL008: nothing reachable from an ``async def`` body in the
    service package may block the thread — a blocked coroutine stalls
    the event loop for every connected client."""

    id = "RL008"
    summary = (
        "no blocking call reachable from async def bodies in repro.serve "
        "(run_in_executor/to_thread boundaries allowlisted)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        effects = effect_map_for(project)
        entries = sorted(
            qname
            for qname, fx in effects.functions.items()
            if fx.is_async and fx.source.in_package(ASYNC_PACKAGES)
        )
        for fx, witness, effect in effects.blocking_from(entries):
            where = _describe(fx.qname)
            if len(witness) > 1:
                chain = " -> ".join(_describe(q) for q in witness)
                message = (
                    f"{effect.what}() ({effect.why}) in {where}, "
                    f"reachable from async code via {chain}; hand the "
                    f"blocking work to loop.run_in_executor or "
                    f"asyncio.to_thread"
                )
            else:
                message = (
                    f"{effect.what}() ({effect.why}) inside async "
                    f"function {where}; a blocked coroutine stalls the "
                    f"event loop for every client — hand the work to "
                    f"loop.run_in_executor or asyncio.to_thread"
                )
            yield self.finding(fx.source, effect.line, effect.col, message)


# ---------------------------------------------------------------------- #
# RL009                                                                   #
# ---------------------------------------------------------------------- #
@register_rule
class GuardedByDiscipline(Rule):
    """RL009: every read/write of a ``# guarded-by:`` annotated
    attribute must come from a method whose effect set acquires the
    named lock (directly or via a callee)."""

    id = "RL009"
    summary = (
        "accesses to # guarded-by: annotated attributes must hold the "
        "named lock (effect-set aware)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        effects = effect_map_for(project)
        guards = _collect_guards(project)
        if not guards:
            return
        guarded_classes = {class_qname for class_qname, _ in guards}
        for qname in sorted(effects.functions):
            fx = effects.functions[qname]
            if fx.class_qname not in guarded_classes:
                continue
            method = qname.rsplit(".", 1)[-1]
            if method in _CONSTRUCTION_METHODS:
                continue
            closure: dict[str, tuple[str, ...]] | None = None
            for access in fx.self_accesses:
                guard = guards.get((fx.class_qname, access.attr))
                if guard is None:
                    continue
                lock_attr, declared_at = guard
                lock_path = f"{fx.class_qname}.{lock_attr}"
                if closure is None:
                    closure = effects.acquires_closure(qname)
                if lock_path in closure:
                    continue
                verb = "writes" if access.write else "reads"
                yield self.finding(
                    fx.source, access.line, access.col,
                    f"'{_describe(qname)}' {verb} self.{access.attr} "
                    f"without acquiring self.{lock_attr} (declared "
                    f"guarded-by at {declared_at}); take the lock, or "
                    f"route the access through a method that does",
                )


def _collect_guards(
    project: Project,
) -> dict[tuple[str, str], tuple[str, str]]:
    """``{(class qname, attr): (lock attr, "path:line" declared)}``."""
    guards: dict[tuple[str, str], tuple[str, str]] = {}
    for source in project.files:
        for class_qname, classdef in _classes(source):
            for statement in classdef.body:
                if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                    for name in _name_targets(statement):
                        _note_guard(
                            guards, source, class_qname, name,
                            statement.lineno,
                        )
                elif isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    for sub in ast.walk(statement):
                        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                            continue
                        for attr in _self_attr_targets(sub):
                            _note_guard(
                                guards, source, class_qname, attr,
                                sub.lineno,
                            )
    return guards


def _note_guard(
    guards: dict[tuple[str, str], tuple[str, str]],
    source: SourceFile,
    class_qname: str,
    attr: str,
    line: int,
) -> None:
    if line > len(source.lines):
        return
    match = GUARDED_BY_RE.search(source.lines[line - 1])
    if match is None:
        return
    guards.setdefault(
        (class_qname, attr),
        (match.group(1), f"{source.relpath}:{line}"),
    )


def _name_targets(statement: ast.Assign | ast.AnnAssign) -> Iterator[str]:
    targets = (
        statement.targets
        if isinstance(statement, ast.Assign)
        else [statement.target]
    )
    for target in targets:
        if isinstance(target, ast.Name):
            yield target.id


def _self_attr_targets(statement: ast.Assign | ast.AnnAssign) -> Iterator[str]:
    targets = (
        statement.targets
        if isinstance(statement, ast.Assign)
        else [statement.target]
    )
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr


def _classes(source: SourceFile) -> Iterator[tuple[str, ast.ClassDef]]:
    def walk(body: list[ast.stmt], prefix: str) -> Iterator[tuple[str, ast.ClassDef]]:
        for statement in body:
            if isinstance(statement, ast.ClassDef):
                qname = f"{prefix}.{statement.name}"
                yield qname, statement
                yield from walk(statement.body, qname)

    yield from walk(source.tree.body, source.module)


# ---------------------------------------------------------------------- #
# RL010                                                                   #
# ---------------------------------------------------------------------- #
@register_rule
class ResourceLifecycle(Rule):
    """RL010: in the long-running modules, every allocation must be
    dominated by ``with`` or released on all paths via ``try/finally``
    (escaping to a caller or an owning object transfers the duty)."""

    id = "RL010"
    summary = (
        "allocations in repro.serve/repro.exec/repro.workloads.checkpoint "
        "must be with-managed or released in a finally block"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        effects = effect_map_for(project)
        for qname in sorted(effects.functions):
            fx = effects.functions[qname]
            if not fx.source.in_package(LIFECYCLE_PACKAGES):
                continue
            for alloc in fx.allocations:
                if alloc.managed:
                    continue
                yield self.finding(
                    fx.source, alloc.line, alloc.col,
                    f"{alloc.api}() allocates a {alloc.resource} in "
                    f"{_describe(qname)} but {alloc.how}; dominate it "
                    f"with a `with` block or release it in try/finally",
                )


# ---------------------------------------------------------------------- #
# RL011                                                                   #
# ---------------------------------------------------------------------- #
@register_rule
class LockOrderConsistency(Rule):
    """RL011: the project-wide acquires-while-holding graph must be
    acyclic — a cycle means two call paths can take the same locks in
    opposite orders and deadlock."""

    id = "RL011"
    summary = (
        "the static acquires-while-holding lock graph must have no "
        "cycles (potential deadlock)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        effects = effect_map_for(project)
        edges = _order_edges(effects)
        adjacency: dict[str, set[str]] = {}
        for held, acquired in edges:
            adjacency.setdefault(held, set()).add(acquired)

        for component in _cyclic_components(adjacency):
            anchor = next(
                (held, acquired)
                for held, acquired in sorted(edges)
                if held in component and acquired in component
            )
            forward, source, line, col = edges[anchor]
            path = _shortest_path(adjacency, anchor[1], anchor[0])
            reverse = "; ".join(
                edges[(path[i], path[i + 1])][0]
                for i in range(len(path) - 1)
            )
            yield self.finding(
                source, line, col,
                f"potential deadlock: inconsistent lock order between "
                f"{anchor[0]} and {anchor[1]} — {forward}; meanwhile "
                f"{reverse}",
            )


def _order_edges(
    effects: EffectMap,
) -> dict[tuple[str, str], tuple[str, SourceFile, int, int]]:
    """``{(held, acquired): (witness text, source, line, col)}`` —
    first (deterministically smallest) witness per edge wins."""
    edges: dict[tuple[str, str], tuple[str, SourceFile, int, int]] = {}
    for qname in sorted(effects.functions):
        fx = effects.functions[qname]
        for direct in fx.held_acquires:
            edges.setdefault(
                (direct.held, direct.acquired),
                (
                    f"{_describe(qname)} acquires {direct.acquired} "
                    f"while holding {direct.held}",
                    fx.source, direct.line, direct.col,
                ),
            )
        for call in fx.held_calls:
            callee = call.callee
            if callee in effects.graph.classes:
                callee = callee + ".__init__"
            for lock, witness in sorted(
                effects.acquires_closure(callee).items()
            ):
                if lock == call.held:
                    continue
                chain = " -> ".join(_describe(q) for q in witness)
                edges.setdefault(
                    (call.held, lock),
                    (
                        f"{_describe(qname)} calls {chain} while "
                        f"holding {call.held}, acquiring {lock}",
                        fx.source, call.line, call.col,
                    ),
                )
    return edges


def _reachable_set(adjacency: dict[str, set[str]], start: str) -> set[str]:
    """Nodes reachable from ``start`` via one or more edges."""
    seen: set[str] = set()
    queue: deque[str] = deque(sorted(adjacency.get(start, ())))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(sorted(adjacency.get(node, ())))
    return seen


def _cyclic_components(adjacency: dict[str, set[str]]) -> list[set[str]]:
    """Strongly connected components containing a cycle, sorted."""
    nodes = sorted(
        set(adjacency) | {n for targets in adjacency.values() for n in targets}
    )
    reach = {node: _reachable_set(adjacency, node) for node in nodes}
    components: list[set[str]] = []
    assigned: set[str] = set()
    for node in nodes:
        if node in assigned:
            continue
        component = {
            other
            for other in nodes
            if other in reach[node] and node in reach[other]
        } | {node}
        if len(component) > 1 or node in reach[node]:
            components.append(component)
        assigned |= component
    return sorted(components, key=lambda c: sorted(c))


def _shortest_path(
    adjacency: dict[str, set[str]], start: str, goal: str
) -> list[str]:
    """Shortest edge path ``start -> ... -> goal`` (must exist)."""
    previous: dict[str, str] = {}
    queue: deque[str] = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        for neighbor in sorted(adjacency.get(node, ())):
            if neighbor in seen:
                continue
            previous[neighbor] = node
            if neighbor == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(previous[path[-1]])
                return list(reversed(path))
            seen.add(neighbor)
            queue.append(neighbor)
    raise AssertionError(f"no path {start} -> {goal}")  # pragma: no cover


__all__ = [
    "ASYNC_PACKAGES",
    "AsyncBlockingReachable",
    "GUARDED_BY_RE",
    "GuardedByDiscipline",
    "LIFECYCLE_PACKAGES",
    "LockOrderConsistency",
    "ResourceLifecycle",
]
