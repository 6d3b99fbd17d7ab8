"""API001: the ExecutionBackend protocol surface and state-call ordering.

The engine drives execution backends through two surfaces: stateless
dispatch (``join_regions``) and the per-stream region state that
``bind`` hands out (``count_batch`` / ``evict_state`` / ``rebase_state`` /
``install_state`` / ``resize`` / ``state_indices`` /
``drain_channel_bytes``).  Stateless backends inherit ``bind`` and get
``InProcessRegionState``; a backend that keeps its state elsewhere (sticky
workers) implements the state calls itself.  A *partial* override is the
hazard: a class that redefines ``count_batch`` but inherits ``evict_state``
mixes the base class's in-process state with its own, and a missing call
only surfaces at run time, on the first stream that happens to exercise it
(evictions need a window, installs need a migration).  Calling the
per-batch state calls before ``bind`` is a latent ordering bug of the same
kind.  This rule rejects all three statically:

* every class that directly subclasses ``ExecutionBackend`` must define
  ``join_regions`` in its own body (the abstract method made locally
  visible — intermediate bases like the test-double forwarding backend are
  subclassed by name, not re-checked);
* a class that directly subclasses ``ExecutionBackend`` or
  ``InProcessRegionState`` and defines any state call must define all of
  them (overriding only ``bind`` -- handing out a complete state object of
  its own -- is fine);
* within one function body, the first ``.bind(...)`` call must precede the
  first per-batch state call (``count_batch``/``evict_state``/
  ``rebase_state``/``install_state``) — functions using only one side of
  the protocol are exempt, since binding and driving legitimately live in
  different engine phases.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["BackendProtocolRule"]

#: The region-state calls; defining any of them obliges all of them.
STATE_PROTOCOL = (
    "count_batch",
    "evict_state",
    "rebase_state",
    "install_state",
    "resize",
    "state_indices",
    "drain_channel_bytes",
)

#: Classes whose direct subclasses the state-protocol check covers.
_STATE_BASES = frozenset({"ExecutionBackend", "InProcessRegionState"})

#: Per-batch state calls that must not precede bind in one body.
_AFTER_BIND = frozenset(
    {"count_batch", "evict_state", "rebase_state", "install_state"}
)


class BackendProtocolRule(Rule):
    """API001: complete backend surfaces; bind before per-batch state calls."""

    rule_id = "API001"
    name = "backend protocol surface"
    description = (
        "ExecutionBackend subclasses must define join_regions, a class "
        "overriding any region-state call must override all of them, and "
        "call sites must bind before count_batch/evict_state in a function "
        "body"
    )
    target_node_types = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Dispatch class-surface and call-ordering checks."""
        if isinstance(node, ast.ClassDef):
            yield from self._check_class(node)
        else:
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from self._check_ordering(node)

    # ------------------------------------------------------------------
    # Class surface
    # ------------------------------------------------------------------
    @staticmethod
    def _base_names(node: ast.ClassDef) -> set[str]:
        names: set[str] = set()
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.add(base.id)
            elif isinstance(base, ast.Attribute):
                names.add(base.attr)
        return names

    @staticmethod
    def _defined(node: ast.ClassDef) -> set[str]:
        """Methods and class attributes defined directly in the body."""
        defined: set[str] = set()
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                defined.add(statement.target.id)
        return defined

    def _check_class(self, node: ast.ClassDef) -> Iterator[Violation]:
        bases = self._base_names(node)
        defined = self._defined(node)
        if "ExecutionBackend" in bases and "join_regions" not in defined:
            yield Violation(
                node,
                f"backend {node.name!r} subclasses ExecutionBackend but "
                "does not define join_regions; define it (raising for "
                "state-only backends is fine) so the surface is "
                "statically complete",
            )
        overridden = [name for name in STATE_PROTOCOL if name in defined]
        if bases & _STATE_BASES and overridden:
            missing = [name for name in STATE_PROTOCOL if name not in defined]
            if missing:
                yield Violation(
                    node,
                    f"{node.name!r} overrides region-state calls "
                    f"{overridden} but not {missing}; a partial override "
                    "mixes the base class's in-process state with its own "
                    "-- override every state call or none",
                )

    # ------------------------------------------------------------------
    # Call-site ordering
    # ------------------------------------------------------------------
    def _check_ordering(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Iterator[Violation]:
        first_bind: "ast.Call | None" = None
        first_batch_op: "ast.Call | None" = None
        first_batch_attr = ""
        for child in ast.walk(node):
            if not (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
            ):
                continue
            attr = child.func.attr
            if attr == "bind" and first_bind is None:
                first_bind = child
            elif attr in _AFTER_BIND and first_batch_op is None:
                first_batch_op = child
                first_batch_attr = attr
        if (
            first_bind is not None
            and first_batch_op is not None
            and first_batch_op.lineno < first_bind.lineno
        ):
            yield Violation(
                first_batch_op,
                f".{first_batch_attr}() is called before .bind() "
                f"in {node.name!r}; the region-state protocol requires "
                "the stream binding first",
            )
