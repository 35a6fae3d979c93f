"""RL001/RL002: the determinism rules.

The paper's delay attribution is computed entirely from trace
timestamps; the campaign layer guarantees a parallel run is
byte-identical to the serial one.  Both properties die silently the
moment simulation or analysis code reads the host — wall clock,
process-seeded RNG, hash-randomized ``set`` order — so these rules
make "the deterministic packages never observe the host" a compile
time error instead of a flaky-test hunt.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.callgraph import MODULE_BODY, build_call_graph
from repro.lint.engine import Finding, Rule, register_rule
from repro.lint.project import Project, SourceFile

#: packages whose results must be pure functions of (input, seed).
DETERMINISTIC_PACKAGES = (
    "repro.netsim",
    "repro.tcp",
    "repro.bgp",
    "repro.analysis",
)

#: subsystems that are wall-domain *by contract* (supervision,
#: observability, fault injection) — RL002 does not apply inside them.
WALL_DOMAIN_PACKAGES = ("repro.exec", "repro.obs", "repro.faults", "repro.lint")

#: qualified names whose call observes the host clock or an unseeded
#: process-global RNG.
FORBIDDEN_CALLS = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.monotonic_ns": "wall clock",
    "time.perf_counter": "wall clock",
    "time.perf_counter_ns": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "random.random": "unseeded module-global RNG",
    "random.randint": "unseeded module-global RNG",
    "random.randrange": "unseeded module-global RNG",
    "random.uniform": "unseeded module-global RNG",
    "random.choice": "unseeded module-global RNG",
    "random.choices": "unseeded module-global RNG",
    "random.sample": "unseeded module-global RNG",
    "random.shuffle": "unseeded module-global RNG",
    "random.getrandbits": "unseeded module-global RNG",
    "random.gauss": "unseeded module-global RNG",
    "random.expovariate": "unseeded module-global RNG",
    "random.seed": "reseeding the module-global RNG",
    "uuid.uuid1": "host-derived identifier",
    "uuid.uuid4": "unseeded RNG identifier",
    "os.urandom": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
}


@register_rule
class WallClockReachable(Rule):
    """RL001: nothing reachable from a deterministic package may read
    the host clock or an unseeded RNG."""

    id = "RL001"
    summary = (
        "no wall-clock or unseeded-random call reachable from "
        "repro.netsim/tcp/bgp/analysis (call-graph aware)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        graph = build_call_graph(project)
        entries = [
            qname
            for qname, node in graph.nodes.items()
            if node.source.in_package(DETERMINISTIC_PACKAGES)
        ]
        paths = graph.reachable_from(entries)

        findings: dict[tuple[str, int, int], Finding] = {}
        for qname, witness in paths.items():
            node = graph.nodes[qname]
            for call in node.calls:
                sink = self._sink(graph, call.callee, node, call)
                if sink is None:
                    continue
                api, why = sink
                key = (node.source.relpath, call.line, call.col)
                if key in findings and len(witness) >= _witness_len(
                    findings[key]
                ):
                    continue
                where = _describe(qname)
                if len(witness) > 1:
                    chain = " -> ".join(_describe(q) for q in witness)
                    message = (
                        f"{api}() ({why}) in {where}, reachable from a "
                        f"deterministic package via {chain}"
                    )
                else:
                    message = (
                        f"{api}() ({why}) inside deterministic package "
                        f"code ({where}); derive values from the "
                        f"simulation clock or a seeded stream instead"
                    )
                findings[key] = self.finding(
                    node.source, call.line, call.col, message
                )
        return sorted(findings.values(), key=Finding.sort_key)

    def _sink(self, graph, callee: str, node, call) -> tuple[str, str] | None:
        why = FORBIDDEN_CALLS.get(callee)
        if why is not None:
            return callee, why
        if callee == "random.Random":
            # Seeded construction (random.Random(seed)) is the repo's
            # own idiom; only a bare Random() draws from the OS.
            if self._bare_random_call(node, call):
                return "random.Random", "Random() constructed without a seed"
        return None

    @staticmethod
    def _bare_random_call(node, call) -> bool:
        for candidate in ast.walk(node.source.tree):
            if (
                isinstance(candidate, ast.Call)
                and candidate.lineno == call.line
                and candidate.col_offset == call.col
            ):
                return not candidate.args and not candidate.keywords
        return False


def _witness_len(finding: Finding) -> int:
    return finding.message.count(" -> ") + 1


def _describe(qname: str) -> str:
    if qname.endswith("." + MODULE_BODY):
        return qname[: -len(MODULE_BODY) - 1] + " (module body)"
    return qname


# ---------------------------------------------------------------------- #
# RL002                                                                   #
# ---------------------------------------------------------------------- #
#: builtins whose result exposes the set's iteration order.
_ORDER_EXPOSING_CALLS = {"list", "tuple", "enumerate", "iter", "reversed"}

#: set methods returning another set (taint propagates).
_SET_PRODUCING_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}


@register_rule
class SetOrderIteration(Rule):
    """RL002: iterating a builtin ``set`` feeds hash-randomized order
    into whatever consumes it."""

    id = "RL002"
    summary = (
        "no ordering-dependent iteration over builtin sets in "
        "deterministic output paths"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            if source.in_package(WALL_DOMAIN_PACKAGES):
                continue
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        visitor = _SetFlowVisitor()
        visitor.visit(source.tree)
        for line, col, how in visitor.violations:
            yield self.finding(
                source, line, col,
                f"{how} iterates a builtin set: element order is "
                f"hash-randomized across interpreter runs; wrap in "
                f"sorted(...) or use an ordered structure",
            )


class _SetFlowVisitor(ast.NodeVisitor):
    """Local, per-scope tracking of which names hold builtin sets."""

    def __init__(self) -> None:
        self.violations: list[tuple[int, int, str]] = []
        self._set_names: list[set[str]] = [set()]

    # -- scope boundaries ------------------------------------------------
    def _visit_scope(self, node) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope

    # -- taint tracking --------------------------------------------------
    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra on a known set keeps the result a set; on
            # unknown operands we stay silent (could be ints, flags).
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_names)
        return False

    def _mark(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if self.is_set_expr(value):
            self._set_names[-1].add(target.id)
        else:
            self._set_names[-1].discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._mark(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._mark(node.target, node.value)
        elif isinstance(node.target, ast.Name) and _is_set_annotation(
            node.annotation
        ):
            self._set_names[-1].add(node.target.id)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # `s |= other` keeps s a set; any other augmented op on a
        # tracked name leaves its taint unchanged.
        self.generic_visit(node)

    # -- violation sites -------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self.violations.append(
                (node.iter.lineno, node.iter.col_offset, "for loop")
            )
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            if self.is_set_expr(generator.iter):
                # A set comprehension over a set stays order-free.
                if isinstance(node, (ast.SetComp,)):
                    continue
                self.violations.append(
                    (
                        generator.iter.lineno,
                        generator.iter.col_offset,
                        "comprehension",
                    )
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_EXPOSING_CALLS
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self.violations.append(
                (node.lineno, node.col_offset, f"{func.id}() call")
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self.violations.append(
                (node.lineno, node.col_offset, "str.join() call")
            )
        self.generic_visit(node)


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    return False
