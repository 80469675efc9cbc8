"""Function-scope control-flow graphs for the dataflow lint rules.

The statement-level AST checks of :mod:`repro.lint.rules` cannot see
*paths*: whether a shared-memory wire acquired on line 10 is discarded
on **every** route to the function's exits, including the route where
line 12 raises.  This module builds the graph those questions need —
one CFG per function, with explicit exception and ``finally`` edges —
and :mod:`repro.lint.dataflow` runs gen/kill fixed points over it.

Model (deliberately pragmatic, documented so rule authors know the
approximations they inherit):

* Every statement is its own node; three synthetic nodes mark the
  function boundary: ``ENTRY``, ``EXIT`` (normal return / fall-off) and
  ``RAISE`` (an exception escaping the function).
* Edges carry a kind: ``flow`` (the statement completed) or ``exc``
  (the statement raised).  Dataflow propagates *post-kill, pre-gen*
  state along ``exc`` edges: a statement that raises has not produced
  its value, but a statement that releases a resource is treated as
  atomic (its own failure is not counted as a leak of that resource).
* A statement *can raise* when its governing expressions contain a
  call or an explicit ``raise``.  Pure data movement (``x = y``,
  constants, tuple packing) and ``assert`` are treated as non-raising:
  an assert failure is a deliberate abort, and counting every
  subscript would drown the signal in noise.
* ``except``/``finally``: an exception inside a ``try`` body lands on
  every handler entry (we do not match exception types); when no
  handler is a catch-all (bare ``except``, ``except BaseException`` /
  ``Exception``) it *also* escapes outward.  ``finally`` bodies are
  built once and every leaving route — normal completion, uncaught
  exception, ``return``/``break``/``continue`` observed in the guarded
  suite — funnels through them and fans out to the corresponding
  continuations.  The fan-out merges paths (a may-analysis
  over-approximation), which can only add spurious leak paths, never
  hide real ones.
* ``with`` bodies are inlined; ``__exit__`` is assumed not to raise.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["CFG", "CFGNode", "build_cfg", "FLOW", "EXC"]

FLOW = "flow"
EXC = "exc"

#: handler annotations that catch everything for routing purposes.
_CATCH_ALL = {"BaseException", "Exception"}


class CFGNode:
    """One CFG node: a statement, or a synthetic boundary marker."""

    __slots__ = ("idx", "stmt", "kind", "succ")

    def __init__(self, idx: int, stmt: Optional[ast.stmt],
                 kind: str) -> None:
        self.idx = idx
        self.stmt = stmt
        #: "stmt" | "entry" | "exit" | "raise"
        self.kind = kind
        #: outgoing edges as ``(node_idx, edge_kind)``.
        self.succ: List[Tuple[int, str]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = (f"L{getattr(self.stmt, 'lineno', '?')}"
                 if self.stmt is not None else self.kind.upper())
        return f"<CFGNode {self.idx} {label}>"


class CFG:
    """The control-flow graph of one function scope."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._new(None, "entry").idx
        self.exit = self._new(None, "exit").idx
        self.raise_exit = self._new(None, "raise").idx

    # -- construction helpers ------------------------------------------
    def _new(self, stmt: Optional[ast.stmt], kind: str = "stmt") -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    def _edge(self, src: int, dst: int, kind: str = FLOW) -> None:
        if (dst, kind) not in self.nodes[src].succ:
            self.nodes[src].succ.append((dst, kind))

    # -- queries --------------------------------------------------------
    def stmt_nodes(self) -> Iterable[CFGNode]:
        return (n for n in self.nodes if n.kind == "stmt")


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def _expr_can_raise(*exprs: Optional[ast.AST]) -> bool:
    for e in exprs:
        if e is None:
            continue
        for node in ast.walk(e):
            if isinstance(node, (ast.Call, ast.Raise, ast.Await)):
                return True
    return False


def _stmt_can_raise(stmt: ast.stmt) -> bool:
    """Can executing this statement's *own* part raise?

    Compound statements only evaluate their header expression at the
    node itself (the body gets its own nodes); simple statements are
    scanned whole.  ``assert`` is deliberately excluded (see module
    docstring).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return _expr_can_raise(stmt.test)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _expr_can_raise(stmt.iter)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _expr_can_raise(*(i.context_expr for i in stmt.items))
    if isinstance(stmt, (ast.Try, ast.Assert)):
        return False
    if isinstance(stmt, ast.Raise):
        return True
    return _expr_can_raise(stmt)


def _suite_mentions(stmts: Sequence[ast.stmt], kinds: tuple) -> bool:
    """Does the suite contain one of the statement kinds (not nested in
    an inner function/class, which has its own CFG)?"""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))  # type: ignore[arg-type]
    return False


class _Loop:
    __slots__ = ("head", "breaks")

    def __init__(self, head: int) -> None:
        self.head = head
        #: node ids whose flow edge must go to the loop's continuation.
        self.breaks: List[int] = []


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.loops: List[_Loop] = []
        #: where an uncaught exception lands (innermost first):
        #: handler entries / finally entry of enclosing tries, ending
        #: with the RAISE node.
        self.escape: List[int] = [cfg.raise_exit]
        #: where ``return`` routes (finally entry, or EXIT).
        self.ret_target: int = cfg.exit

    # ------------------------------------------------------------------
    def seq(self, stmts: Sequence[ast.stmt]) -> Tuple[Optional[int],
                                                      List[int]]:
        """Build a statement suite; returns ``(entry, open_exits)``."""
        entry: Optional[int] = None
        open_exits: List[int] = []
        first = True
        for stmt in stmts:
            s_entry, s_exits = self.stmt(stmt)
            if s_entry is None:
                continue
            if first:
                entry = s_entry
                first = False
            else:
                for e in open_exits:
                    self.cfg._edge(e, s_entry, FLOW)
            open_exits = s_exits
        return entry, open_exits

    def _exc_edges(self, idx: int) -> None:
        for target in self.escape:
            self.cfg._edge(idx, target, EXC)

    # ------------------------------------------------------------------
    def stmt(self, stmt: ast.stmt) -> Tuple[Optional[int], List[int]]:
        cfg = self.cfg
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested definitions are separate scopes: the def/class
            # statement itself is a plain binding here.
            node = cfg._new(stmt)
            return node.idx, [node.idx]
        if isinstance(stmt, ast.Return):
            node = cfg._new(stmt)
            if _stmt_can_raise(stmt):
                self._exc_edges(node.idx)
            cfg._edge(node.idx, self.ret_target, FLOW)
            return node.idx, []
        if isinstance(stmt, ast.Raise):
            node = cfg._new(stmt)
            self._exc_edges(node.idx)
            return node.idx, []
        if isinstance(stmt, ast.Break):
            node = cfg._new(stmt)
            if self.loops:
                self.loops[-1].breaks.append(node.idx)
            return node.idx, []
        if isinstance(stmt, ast.Continue):
            node = cfg._new(stmt)
            if self.loops:
                cfg._edge(node.idx, self.loops[-1].head, FLOW)
            return node.idx, []
        if isinstance(stmt, ast.If):
            node = cfg._new(stmt)
            if _stmt_can_raise(stmt):
                self._exc_edges(node.idx)
            b_entry, b_exits = self.seq(stmt.body)
            exits = list(b_exits)
            if b_entry is not None:
                cfg._edge(node.idx, b_entry, FLOW)
            if stmt.orelse:
                o_entry, o_exits = self.seq(stmt.orelse)
                if o_entry is not None:
                    cfg._edge(node.idx, o_entry, FLOW)
                exits.extend(o_exits)
            else:
                exits.append(node.idx)
            return node.idx, exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            node = cfg._new(stmt)
            if _stmt_can_raise(stmt):
                self._exc_edges(node.idx)
            loop = _Loop(node.idx)
            self.loops.append(loop)
            b_entry, b_exits = self.seq(stmt.body)
            self.loops.pop()
            if b_entry is not None:
                cfg._edge(node.idx, b_entry, FLOW)
            for e in b_exits:
                cfg._edge(e, node.idx, FLOW)  # back edge
            exits: List[int] = list(loop.breaks)
            is_forever = (isinstance(stmt, ast.While)
                          and isinstance(stmt.test, ast.Constant)
                          and bool(stmt.test.value))
            if stmt.orelse:
                o_entry, o_exits = self.seq(stmt.orelse)
                if o_entry is not None:
                    cfg._edge(node.idx, o_entry, FLOW)
                exits.extend(o_exits)
            elif not is_forever:
                exits.append(node.idx)
            return node.idx, exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = cfg._new(stmt)
            if _stmt_can_raise(stmt):
                self._exc_edges(node.idx)
            b_entry, b_exits = self.seq(stmt.body)
            if b_entry is not None:
                cfg._edge(node.idx, b_entry, FLOW)
                return node.idx, b_exits
            return node.idx, [node.idx]
        if isinstance(stmt, ast.Try):
            return self._try(stmt)
        # Simple statement.
        node = cfg._new(stmt)
        if _stmt_can_raise(stmt):
            self._exc_edges(node.idx)
        return node.idx, [node.idx]

    # ------------------------------------------------------------------
    def _try(self, stmt: ast.Try) -> Tuple[Optional[int], List[int]]:
        cfg = self.cfg
        outer_escape = self.escape
        outer_ret = self.ret_target
        outer_loops = self.loops

        # Build the finally suite first under the *outer* routing so we
        # can use its entry as the conduit for every leaving edge.
        f_entry: Optional[int] = None
        f_exits: List[int] = []
        if stmt.finalbody:
            f_entry, f_exits = self.seq(stmt.finalbody)

        # Handler entry placeholders: the handler's first statement.
        # Build handlers under outer routing (exceptions inside a
        # handler propagate outward), or through finally if present.
        if f_entry is not None:
            inner_escape_tail = [f_entry]
            inner_ret = f_entry
        else:
            inner_escape_tail = outer_escape
            inner_ret = outer_ret

        handler_entries: List[int] = []
        handler_exits: List[int] = []
        catch_all = False
        for handler in stmt.handlers:
            if handler.type is None:
                catch_all = True
            elif (isinstance(handler.type, ast.Name)
                    and handler.type.id in _CATCH_ALL):
                catch_all = True
            elif (isinstance(handler.type, ast.Attribute)
                    and handler.type.attr in _CATCH_ALL):
                catch_all = True
            self.escape = inner_escape_tail
            self.ret_target = inner_ret
            h_entry, h_exits = self.seq(handler.body)
            if h_entry is None:  # empty handler body cannot happen
                continue
            handler_entries.append(h_entry)
            handler_exits.extend(h_exits)

        # Body routing: exceptions land on every handler entry; when no
        # handler is catch-all they also escape (through finally).
        body_escape = list(handler_entries)
        if not (stmt.handlers and catch_all):
            body_escape.extend(inner_escape_tail)
        if not body_escape:
            body_escape = list(inner_escape_tail)
        self.escape = body_escape
        self.ret_target = inner_ret
        if f_entry is not None and self.loops:
            # break/continue would skip finally in this approximation;
            # route their suite building through a loop whose head is
            # the finally entry so no edge bypasses cleanup.
            self.loops = [_Loop(f_entry) for _ in outer_loops]
        b_entry, b_exits = self.seq(stmt.body)
        if stmt.orelse:
            o_entry, o_exits = self.seq(stmt.orelse)
            if o_entry is not None:
                for e in b_exits:
                    cfg._edge(e, o_entry, FLOW)
                b_exits = o_exits

        # Restore outer routing.
        self.escape = outer_escape
        self.ret_target = outer_ret
        self.loops = outer_loops

        normal_exits = list(b_exits) + handler_exits
        if f_entry is None:
            entry = b_entry if b_entry is not None else None
            if entry is None and handler_entries:
                entry = handler_entries[0]
            return entry, normal_exits

        # Everything funnels through finally; fan its exits out to the
        # continuations the guarded suites could have been heading for.
        for e in normal_exits:
            cfg._edge(e, f_entry, FLOW)
        fan_out: List[int] = []
        guarded = list(stmt.body) + [h for hh in stmt.handlers
                                     for h in hh.body] + list(stmt.orelse)
        # Uncaught exceptions continue outward after finally runs.
        for target in outer_escape:
            for f_exit in f_exits:
                cfg._edge(f_exit, target, EXC)
        if _suite_mentions(guarded, (ast.Return,)):
            for f_exit in f_exits:
                cfg._edge(f_exit, outer_ret, FLOW)
        if outer_loops and _suite_mentions(guarded, (ast.Break,)):
            for f_exit in f_exits:
                outer_loops[-1].breaks.append(f_exit)
        if outer_loops and _suite_mentions(guarded, (ast.Continue,)):
            for f_exit in f_exits:
                cfg._edge(f_exit, outer_loops[-1].head, FLOW)
        entry = b_entry if b_entry is not None else f_entry
        return entry, list(f_exits)


def build_cfg(func: ast.AST) -> CFG:
    """Build the CFG of one function (or module) body."""
    cfg = CFG()
    builder = _Builder(cfg)
    body = getattr(func, "body", None) or []
    entry, exits = builder.seq(body)
    if entry is not None:
        cfg._edge(cfg.entry, entry, FLOW)
    else:
        cfg._edge(cfg.entry, cfg.exit, FLOW)
    for e in exits:
        cfg._edge(e, cfg.exit, FLOW)
    return cfg
