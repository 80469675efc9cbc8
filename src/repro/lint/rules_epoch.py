"""R11 — epoch-fence protocol for pool results, and shutdown orderings.

PR 6's abort machinery works by *epoch fencing*: every dispatched batch
carries the pool's current epoch, and a result frame may only be
consumed after comparing its epoch against the pool's — a stale frame
(raced with ``request_abort``) must be routed to the discard path, or
an aborted batch's buffers get stitched into the next batch's mesh.
PR 7 added two orderings with the same flavour: the worker pool must be
warmed *before* the listening socket exists (workers forked after bind
would inherit the fd), and shutdown must abort/stop the pool *before*
draining client connections (or in-flight frames write to dead pipes).

Both are structural properties a reviewer checks by eye today; R11
checks them with the CFG dominator relation (the fence must dominate
the consumption — hold on *every* path into it) and first-mention
ordering (for the warm/bind and abort/shutdown pairs).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from .engine import FileContext, Finding, Rule, _dotted, _scopes
from .rules_lifetime import _own_exprs

__all__ = ["EpochFenceRule"]

#: Result-consumption calls that must sit behind an epoch fence.
_CONSUME = {"wire_to_buffers", "buffers_from_shm"}

#: (first, then) ordered pairs: within one function that mentions both
#: tokens, the first must appear before the second.
_ORDERINGS: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...], str], ...] = (
    (("warm_pool",), ("start_server", "start_unix_server"),
     "warm the worker pool before binding the listening socket — "
     "workers forked after bind inherit the fd"),
    (("request_abort", "abort"), ("shutdown_pool",),
     "abort in-flight work before shutting the pool down — "
     "otherwise shutdown blocks on results nobody will read"),
)


def _mention_lines(func: ast.AST, tokens: Tuple[str, ...]) -> Optional[int]:
    """First line mentioning any token as a name or an attribute."""
    best: Optional[int] = None
    for node in ast.walk(func):
        if ((isinstance(node, ast.Name) and node.id in tokens)
                or (isinstance(node, ast.Attribute) and node.attr in tokens)):
            if best is None or node.lineno < best:
                best = node.lineno
    return best


def _compares_epoch(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Compare):
            for op in [node.left, *node.comparators]:
                for sub in ast.walk(op):
                    if (isinstance(sub, ast.Name)
                            and "epoch" in sub.id.lower()):
                        return True
                    if (isinstance(sub, ast.Attribute)
                            and "epoch" in sub.attr.lower()):
                        return True
    return False


class EpochFenceRule(Rule):
    """R11: pool results are consumed only behind an epoch comparison,
    and the warm/bind + abort/shutdown orderings hold.

    Invariant: aborted batches never leak results into live ones; the
    listening socket fd never leaks into forked workers; shutdown never
    deadlocks on a full result queue.

    Heuristic:

    * **Fence** — in methods of classes that track an ``_epoch``
      attribute, every ``wire_to_buffers``/``buffers_from_shm`` call
      must be *dominated* (CFG dominators, so it holds on every path)
      by a statement comparing something named ``*epoch*``.  Classes
      without ``_epoch`` are exempt — they have no concurrent abort to
      race with.
    * **Ordering** — a function mentioning both members of a protocol
      pair (``warm_pool`` before ``start_server``/``start_unix_server``;
      ``request_abort``/``abort`` before ``shutdown_pool``) must mention
      them in that order.  A mention is a name or an attribute: the
      service calls every backend's lifecycle methods directly.

    Fix: hoist the epoch comparison so it guards every route to the
    consumption (see ``PoolStream._handle``), or reorder the calls.
    """

    id = "R11"
    title = "un-fenced pool-result consumption / protocol order violation"
    invariant = "epoch-fenced result consumption; warm→bind, abort→shutdown"

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - trivial
        return True

    # -- fence check ---------------------------------------------------
    def _epoch_classes(self, ctx: FileContext) -> List[ast.ClassDef]:
        out: List[ast.ClassDef] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and "epoch" in sub.attr:
                    out.append(node)
                    break
        return out

    def _check_fences(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for cls in self._epoch_classes(ctx):
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                findings.extend(self._check_method(ctx, item))
        return findings

    def _check_method(self, ctx: FileContext,
                      func: ast.AST) -> List[Finding]:
        # Locate consumption statements among the function's own
        # statements (nested defs excluded — they run elsewhere).
        cfg = ctx.cfg_of(func)
        consume_nodes: List[Tuple[int, ast.Call]] = []
        for node in cfg.stmt_nodes():
            for own in _own_exprs(node.stmt):
                for sub in ast.walk(own):
                    if isinstance(sub, ast.Call):
                        last = _dotted(sub.func).rsplit(".", 1)[-1]
                        if last in _CONSUME:
                            consume_nodes.append((node.idx, sub))
        if not consume_nodes:
            return []
        dom = cfg.dominators()
        findings: List[Finding] = []
        for idx, call in consume_nodes:
            fenced = False
            for d in dom[idx]:
                stmt = cfg.nodes[d].stmt
                if stmt is not None and _compares_epoch(stmt):
                    fenced = True
                    break
            if not fenced:
                name = _dotted(call.func)
                findings.append(self.finding(
                    ctx, call,
                    f"{name}(...) consumes a pool result without an epoch "
                    "fence on every path — compare the frame's epoch "
                    "against the pool's before consuming (stale frames go "
                    "to the discard path)"))
        return findings

    # -- ordering check ------------------------------------------------
    def _check_orderings(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            for first, then, why in _ORDERINGS:
                body = ast.Module(body=scope.body, type_ignores=[])
                l_first = _mention_lines(body, first)
                l_then = _mention_lines(body, then)
                if l_first is None or l_then is None:
                    continue
                if l_then < l_first:
                    findings.append(Finding(
                        self.id, ctx.posix, l_then, 0,
                        f"'{'/'.join(then)}' before "
                        f"'{'/'.join(first)}' in '{scope.name}' — {why}"))
        return findings

    def check(self, ctx: FileContext) -> List[Finding]:
        return self._check_fences(ctx) + self._check_orderings(ctx)
