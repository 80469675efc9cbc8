"""R9 — no blocking calls inside ``async def`` bodies.

The meshing service (:mod:`repro.runtime.service`) runs one asyncio
event loop per daemon; a single blocking call inside a coroutine stalls
*every* connected client and defeats the request-batching the service
exists for.  The paper's timing claims assume the dispatch loop stays
responsive while the pool grinds.

The sanctioned escape hatch is the service's thread-pool helper
(``await offload(fn, *args)`` / ``loop.run_in_executor``): the blocking
callable is passed *by reference*, so no flagged call expression ever
appears inside the coroutine body.
"""

from __future__ import annotations

import ast
from typing import List, Set

from .engine import FileContext, Finding, Rule, _dotted

__all__ = ["AsyncBlockingRule"]


class AsyncBlockingRule(Rule):
    """R9: coroutines must not call known-blocking primitives inline.

    Invariant: the service event loop never blocks — slow work is
    offloaded to the executor thread pool.

    Heuristic: inside every ``async def`` body (not nested sync defs or
    lambdas, which execute elsewhere), flag non-awaited calls to:

    * ``time.sleep``;
    * socket/pipe receive-side methods (``.recv``, ``.recv_bytes``,
      ``.recv_into``, ``.accept``, ``.recv_exact``,
      ``.read_frame_blocking``) — awaited forms are async-library
      methods and exempt;
    * the pool entry point ``.map_workitems`` (blocks until the whole
      batch drains);
    * file I/O: ``open``, ``os.unlink``/``os.remove``/``os.rename``/
      ``os.stat``, ``os.path.exists``.

    Fix: ``await offload(fn, *args)`` (service helper) or
    ``await loop.run_in_executor(None, fn, *args)``.
    """

    id = "R9"
    title = "blocking call inside an async def body"
    invariant = "the service event loop never blocks"

    _BLOCKING_METHODS = {"recv", "recv_bytes", "recv_into", "accept",
                         "recv_exact", "read_frame_blocking",
                         "map_workitems"}
    _BLOCKING_DOTTED = {"time.sleep", "os.unlink", "os.remove",
                        "os.rename", "os.stat", "os.path.exists"}
    _BLOCKING_NAMES = {"open"}

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - trivial
        return True

    # ------------------------------------------------------------------
    def _coroutine_calls(self, func: ast.AsyncFunctionDef):
        """Yield ``(call, awaited)`` for calls executing in the
        coroutine itself (skips nested defs and lambdas)."""
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Await):
                if isinstance(node.value, ast.Call):
                    yield node.value, True
                    stack.extend(ast.iter_child_nodes(node.value))
                    continue
            if isinstance(node, ast.Call):
                yield node, False
            stack.extend(ast.iter_child_nodes(node))

    def _is_blocking(self, call: ast.Call, awaited: bool) -> str:
        fn = call.func
        dotted = _dotted(fn)
        if dotted in self._BLOCKING_DOTTED:
            return dotted
        if isinstance(fn, ast.Name) and fn.id in self._BLOCKING_NAMES:
            return fn.id
        if (not awaited and isinstance(fn, ast.Attribute)
                and fn.attr in self._BLOCKING_METHODS):
            return dotted or fn.attr
        return ""

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call, awaited in self._coroutine_calls(node):
                if id(call) in seen:
                    continue
                seen.add(id(call))
                name = self._is_blocking(call, awaited)
                if name:
                    findings.append(self.finding(
                        ctx, call,
                        f"blocking call {name}(...) inside async def "
                        f"'{node.name}' stalls the event loop — offload "
                        "it: 'await offload(fn, *args)' or "
                        "'await loop.run_in_executor(None, fn, *args)'"))
        return findings
