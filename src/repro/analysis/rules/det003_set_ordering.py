"""DET003 — unordered iteration flowing into order-sensitive sinks.

Iterating a ``set`` (or a ``.keys()`` view whose insertion order is not
itself pinned down) yields a platform- and history-dependent order. That
is harmless until the order *reaches something order-sensitive*: the
event loop (callbacks fire in scheduling order), a random stream (each
draw advances it), or report output (tables get diffed byte-for-byte).
This rule flags exactly that combination and is satisfied by an
intervening ``sorted(...)``.

The analysis is intentionally local and conservative: it tracks names
assigned set-typed expressions within one function body, and only fires
when the loop body (or the comprehension's host call) contains a sink.
It will miss sets that cross function boundaries — the pragma and the
determinism integration test cover the rest.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

SCHEDULING_SINKS = frozenset({"schedule", "schedule_at", "call_every"})
OUTPUT_SINKS = frozenset({"print", "render_table", "render_kv"})
WRITE_ATTRS = frozenset({"write", "writelines"})
RANDOMNESS_HINTS = ("rng", "random", "rand")


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Statically set-typed: literal, set()/frozenset(), comp, ops, .keys()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
        # set.union / intersection / difference on a known set
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference", "copy",
        ):
            return _is_set_expr(node.func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


def _sink_kind(node: ast.Call) -> str | None:
    """Classify a call as an order-sensitive sink, or None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in OUTPUT_SINKS:
        return "report output"
    if isinstance(func, ast.Attribute):
        if func.attr in SCHEDULING_SINKS:
            return "the event loop"
        if func.attr in WRITE_ATTRS:
            return "report output"
        base = dotted_name(func.value)
        if base and any(hint in base.split(".")[-1].lower() for hint in RANDOMNESS_HINTS):
            return "a random stream"
    return None


def _sink_calls_in(body: list[ast.stmt]) -> list[tuple[ast.Call, str]]:
    sinks = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                kind = _sink_kind(node)
                if kind:
                    sinks.append((node, kind))
    return sinks


class _ScopeVisitor(ast.NodeVisitor):
    """Walk one function body tracking set-typed local names."""

    def __init__(self, rule: "SetOrderingRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.set_names: set[str] = set()
        self.findings: list[Finding] = []

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track ``name = <set expr>`` and forget reassignments."""
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_set_expr(node.value, self.set_names):
                self.set_names.add(name)
            else:
                self.set_names.discard(name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Track annotated assignments the same way (``x: set[str] = ...``)."""
        if isinstance(node.target, ast.Name) and node.value is not None:
            annotated_set = isinstance(node.annotation, ast.Subscript) and (
                dotted_name(node.annotation.value) in ("set", "frozenset")
            )
            if annotated_set or _is_set_expr(node.value, self.set_names):
                self.set_names.add(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        """Flag ``for x in <set>`` whose body reaches a sink."""
        if _is_set_expr(node.iter, self.set_names):
            for _sink, kind in _sink_calls_in(node.body)[:1]:
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        node.iter,
                        f"iteration over a set flows into {kind}; "
                        "wrap the iterable in sorted(...)",
                    )
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        """Flag comprehensions over sets passed directly to a sink call."""
        kind = _sink_kind(node)
        if kind:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
                        for gen in sub.generators:
                            if _is_set_expr(gen.iter, self.set_names):
                                self.findings.append(
                                    self.rule.finding(
                                        self.ctx,
                                        gen.iter,
                                        f"comprehension over a set feeds {kind}; "
                                        "wrap the iterable in sorted(...)",
                                    )
                                )
        self.generic_visit(node)

    # Nested functions are separate scopes, each analyzed by ``check()``'s
    # own walk — do not descend (and do not leak set names into them).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Stop at nested scope boundaries."""

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


class SetOrderingRule(Rule):
    """Flag set iteration whose order can leak into results."""

    rule_id = "DET003"
    title = "nondeterministic iteration order reaches an order-sensitive sink"
    rationale = "set order is arbitrary; sort before scheduling, drawing, or printing"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """DET003 check: per-scope set tracking + sink detection."""
        findings: list[Finding] = []
        module_visitor = _ScopeVisitor(self, ctx)
        for stmt in ctx.tree.body:  # type: ignore[attr-defined]
            if not isinstance(stmt, ast.ClassDef):
                module_visitor.visit(stmt)
        findings.extend(module_visitor.findings)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visitor = _ScopeVisitor(self, ctx)
                for stmt in node.body:
                    visitor.visit(stmt)
                findings.extend(visitor.findings)
        yield from findings
