"""R12 — paired counter samples are emitted together.

The scaling simulator (:mod:`repro.runtime.simulator`) calibrates its
cost model from *rate* streams: bytes-per-second needs both the
``shm_nbytes`` and the ``shm_seconds`` sample of the same event.  A
code path that observes one half of a pair produces streams of unequal
length and the calibration silently mis-joins samples from different
events — the model still fits, it just fits garbage.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from .engine import FileContext, Finding, Rule, _scopes

__all__ = ["CounterPairRule", "PAIRED_SAMPLES"]

#: Sample families that must be observed together (same function scope).
PAIRED_SAMPLES: Tuple[Tuple[str, str], ...] = (
    ("serde.shm_nbytes", "serde.shm_seconds"),
    ("executor.item_seconds", "executor.item_bytes"),
    ("executor.bl_item_seconds", "executor.bl_item_bytes"),
)


class CounterPairRule(Rule):
    """R12: paired ``observe`` streams are emitted in the same scope.

    Invariant: calibration joins (nbytes, seconds) samples by position;
    the streams must advance in lockstep.

    Heuristic: collect every ``observe("<name>", ...)`` call (method or
    free function, literal first argument) per function scope; for each
    known pair, a scope that observes exactly one member is flagged at
    that call.  Scopes that observe neither, or both, pass.  Dynamic
    names (non-literal first argument) are not checked.

    Fix: emit both members per event — see ``buffers_to_shm``'s
    ``sink.observe("serde.shm_nbytes", ...)`` /
    ``sink.observe("serde.shm_seconds", ...)`` pattern — or route both
    through a helper that does.
    """

    id = "R12"
    title = "unpaired counter sample (one half of a calibration pair)"
    invariant = "paired observe() streams advance in lockstep"

    def applies(self, ctx: FileContext) -> bool:
        # The counters layer itself defines observe(); exempt.
        return not ctx.is_module("repro/runtime/counters.py")

    @staticmethod
    def _observed(scope: ast.AST) -> Dict[str, ast.Call]:
        """Map sample-name -> first observing call in this scope."""
        out: Dict[str, ast.Call] = {}
        stack: List[ast.AST] = list(getattr(scope, "body", []))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                fn = node.func
                is_observe = ((isinstance(fn, ast.Attribute)
                               and fn.attr == "observe")
                              or (isinstance(fn, ast.Name)
                                  and fn.id == "observe"))
                if (is_observe and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    out.setdefault(node.args[0].value, node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            observed = self._observed(scope)
            if not observed:
                continue
            for a, b in PAIRED_SAMPLES:
                have_a, have_b = a in observed, b in observed
                if have_a == have_b:
                    continue
                present, missing = (a, b) if have_a else (b, a)
                findings.append(self.finding(
                    ctx, observed[present],
                    f"observe('{present}') without its pair "
                    f"'{missing}' in the same scope — calibration joins "
                    "these streams by position, emit both per event"))
        return findings
