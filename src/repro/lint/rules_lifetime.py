"""R8 — shm/wire resource lifetime (CFG + dataflow).

The shared-memory transport (:mod:`repro.runtime.serde`) hands out
values that own kernel resources: ``buffers_to_shm`` returns a
``(name, meta)`` pair backed by a POSIX shared-memory segment, and
``buffers_to_wire`` returns a wire envelope that may reference one.
A segment that is neither attached-and-unlinked (``buffers_from_shm``)
nor explicitly discarded (``discard_wire``) outlives the process — on
the 172M-element runs of the paper's Section IV that is gigabytes of
``/dev/shm`` leaked per aborted batch.

R8 runs a gen/kill reaching analysis over the function CFG: an acquire
binds a fact to its assignment targets; *any* subsequent use of those
names (a release call, shipping over a queue, storing into a field,
returning) transfers ownership and kills the fact.  A fact still live
at the function's normal or raise exit leaked on that path.  Treating
every use as a transfer is deliberately generous — R8 under-reports
aliasing games but never cries wolf on code that visibly hands the
value to someone.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from .engine import FileContext, Finding, Rule, _dotted, _scopes
from . import dataflow
from .cfg import build_cfg

__all__ = ["ShmLifetimeRule", "ACQUIRE_FUNCS", "RELEASE_FUNCS"]

#: Calls whose return value owns a transport resource.
ACQUIRE_FUNCS = {"buffers_to_shm", "buffers_to_wire"}
#: Calls that consume/release such a value (used in messages only; the
#: kill set is "any use", see module docstring).
RELEASE_FUNCS = {"discard_wire", "wire_to_buffers", "buffers_from_shm",
                 "unlink"}


def _last_component(call: ast.Call) -> str:
    name = _dotted(call.func)
    return name.rsplit(".", 1)[-1] if name else ""


def _own_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions evaluated *at* this CFG node (headers only for
    compound statements — their bodies are separate nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [i.context_expr for i in stmt.items] + [
            i.optional_vars for i in stmt.items if i.optional_vars]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [stmt]


def _names_in(nodes: Sequence[ast.AST]) -> Set[str]:
    out: Set[str] = set()
    for n in nodes:
        for sub in ast.walk(n):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
    return out


def _target_names(target: ast.expr) -> Optional[Set[str]]:
    """Plain name(s) bound by an assignment target; None if the target
    stores into an object (attribute/subscript = escape, not a binding)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for elt in target.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            if isinstance(elt, ast.Name):
                names.add(elt.id)
            else:
                return None
        return names or None
    return None


class _Fact:
    __slots__ = ("fid", "names", "node", "kind")

    def __init__(self, fid: int, names: Set[str], node: ast.AST,
                 kind: str) -> None:
        self.fid = fid
        self.names = names
        self.node = node
        self.kind = kind


class ShmLifetimeRule(Rule):
    """R8: every acquired shm/wire value reaches a release on all paths.

    Invariant: leak-free shared-memory transport across *every* control
    path — including the exception edges the abort/shutdown machinery of
    PR 6–7 exercises on purpose.

    Heuristic: see the module docstring.  Two finding shapes:

    * a bound acquire whose fact is live at the normal or raise exit —
      some path drops the value without using it;
    * a bare-expression acquire (``serde.buffers_to_shm(b)`` as a
      statement) — the owner is dropped on the spot.

    Fix: release on the error path too (``try:
    ... except BaseException: serde.discard_wire(wire); raise``), or
    return the value so the caller owns it.  ``serde.py`` itself is
    exempt: it implements the lifecycle this rule enforces.
    """

    id = "R8"
    title = "shm/wire value leaked on some control path"
    invariant = "leak-free shared-memory transport on all paths"

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_module("repro/runtime/serde.py")

    # ------------------------------------------------------------------
    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            findings.extend(self._check_scope(ctx, scope))
        return findings

    def _check_scope(self, ctx: FileContext,
                     scope: ast.AST) -> List[Finding]:
        cfg = build_cfg(scope)
        facts: List[_Fact] = []
        gen: Dict[int, Set[int]] = {}
        kill: Dict[int, Set[int]] = {}
        findings: List[Finding] = []

        # Pass 1: find acquires, build facts / immediate-drop findings.
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            hit = None
            for own in _own_exprs(stmt):
                for sub in ast.walk(own):
                    if (isinstance(sub, ast.Call)
                            and _last_component(sub) in ACQUIRE_FUNCS):
                        hit = sub
                        break
                if hit is not None:
                    break
            if hit is None:
                continue
            fn = _last_component(hit)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                if len(targets) == 1:
                    names = _target_names(targets[0])
                    if names is None:
                        continue  # stored into an object: escapes
                    fact = _Fact(len(facts), names, hit,
                                 "shm segment" if fn == "buffers_to_shm"
                                 else "wire envelope")
                    facts.append(fact)
                    gen.setdefault(node.idx, set()).add(fact.fid)
                    continue
            if isinstance(stmt, ast.Expr) and stmt.value is hit:
                findings.append(self.finding(
                    ctx, hit,
                    f"{fn}(...) result is dropped on the spot — bind it "
                    "and release via "
                    "discard_wire/wire_to_buffers/buffers_from_shm, or "
                    "return it so the caller owns it"))
            # Nested inside another call / return / store: ownership
            # visibly transfers; nothing to track.

        if not facts:
            return findings

        # Pass 2: kills — any statement using a fact's name.
        for node in cfg.stmt_nodes():
            used = _names_in(_own_exprs(node.stmt))
            for fact in facts:
                if fact.names & used and gen.get(node.idx, set()) != {fact.fid}:
                    kill.setdefault(node.idx, set()).add(fact.fid)

        in_sets = dataflow.solve(cfg, gen, kill)
        live_exit, live_raise = dataflow.live_at(cfg, in_sets)
        for fact in facts:
            paths = []
            if fact.fid in live_exit:
                paths.append("a normal exit path")
            if fact.fid in live_raise:
                paths.append("an exception path")
            if not paths:
                continue
            names = ", ".join(sorted(fact.names))
            findings.append(self.finding(
                ctx, fact.node,
                f"{fact.kind} '{names}' can leak on {' and '.join(paths)}"
                " — every path must release it "
                "(discard_wire/wire_to_buffers/buffers_from_shm), ship "
                "it, or return it; guard the error edge with 'except "
                "BaseException: discard + raise'"))
        return findings
