"""The rule set: each rule enforces one paper-level invariant.

Every rule documents (a) the invariant, (b) the detection heuristic, and
(c) the sanctioned fix.  Heuristics are deliberately narrow: a lint
finding must be worth a human's attention, so each detector targets the
specific code shape that breaks the invariant rather than casting a wide
type-inference net.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence

from .engine import (FileContext, Finding, Rule, _local_assigns, _scoped_walk,
                     _scopes)
from .rules_async import AsyncBlockingRule
from .rules_counters import CounterPairRule
from .rules_epoch import EpochFenceRule
from .rules_lifetime import ShmLifetimeRule
from .rules_serde import SerdeContractRule

__all__ = ["Rule", "ALL_RULES", "rule_ids",
           "DetSignRule", "FloatEqRule", "RngRule", "SetIterRule",
           "WallClockRule", "BufferCopyRule",
           "ShmLifetimeRule", "AsyncBlockingRule", "SerdeContractRule",
           "EpochFenceRule", "CounterPairRule"]


# ----------------------------------------------------------------------
# R1 — raw determinant sign tests
# ----------------------------------------------------------------------
class DetSignRule(Rule):
    """R1: no raw float determinant *sign decisions* outside predicates.

    Invariant (paper Section II.B): every orientation / incircle decision
    must go through the filtered predicates with exact-rational
    escalation; a plain float ``(a-b)*(c-d) - (e-f)*(g-h)`` compared
    against anything silently misclassifies near-degenerate input and
    manifests as inverted triangles or flip loops.

    Heuristic: flag a comparison whose operand is (or is a local name
    assigned from) a subtraction of two products where either product
    multiplies differences — the canonical 2x2 determinant-of-differences
    shape (orientation) — or a sum of three such products, the lifted
    ``alift*(..-..) + blift*(..-..) + clift*(..-..)`` cofactor expansion
    (incircle).  Magnitude uses (areas, error bounds) that never feed a
    comparison are not flagged.

    Fix: call :func:`repro.geometry.predicates.orient2d` / ``incircle``
    (or their batch forms).  The kernel's *inlined filter* copies are the
    sanctioned exception — each carries a pragma pointing at the shared
    error-bound constants.
    """

    id = "R1"
    title = "raw float determinant sign test outside geometry/predicates"
    invariant = "exact-arithmetic escalation for geometric predicates"

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_pkg("repro")
                and not ctx.is_module("repro/geometry/predicates.py"))

    # -- detection -----------------------------------------------------
    @staticmethod
    def _resolve(expr: ast.expr, env: Dict[str, ast.expr]) -> ast.expr:
        """Follow a name back through at most three local assignments."""
        for _ in range(3):
            if not (isinstance(expr, ast.Name) and expr.id in env):
                break
            expr = env[expr.id]
        return expr

    @classmethod
    def _is_diff(cls, expr: ast.expr, env: Dict[str, ast.expr]) -> bool:
        expr = cls._resolve(expr, env)
        return isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Sub)

    @classmethod
    def _is_det_product(cls, expr: ast.expr, env: Dict[str, ast.expr]) -> bool:
        expr = cls._resolve(expr, env)
        if not (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult)):
            return False
        return cls._is_diff(expr.left, env) or cls._is_diff(expr.right, env)

    @classmethod
    def _is_det_expr(cls, expr: ast.expr, env: Dict[str, ast.expr]) -> bool:
        expr = cls._resolve(expr, env)
        if not isinstance(expr, ast.BinOp):
            return False
        if isinstance(expr.op, ast.Sub):        # 2x2: product - product
            terms = [expr.left, expr.right]
        elif isinstance(expr.op, ast.Add):      # lifted: (p + p) + p
            head = cls._resolve(expr.left, env)
            if not (isinstance(head, ast.BinOp)
                    and isinstance(head.op, ast.Add)):
                return False
            terms = [head.left, head.right, expr.right]
        else:
            return False
        return all(cls._is_det_product(term, env) for term in terms)

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            env = _local_assigns(scope)
            for node in _scoped_walk(scope):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                if any(self._is_det_expr(op, env) for op in operands):
                    findings.append(self.finding(
                        ctx, node,
                        "sign test on a raw float determinant — use "
                        "repro.geometry.predicates (orient2d/incircle) so "
                        "near-degenerate cases escalate to exact arithmetic"))
        return findings


# ----------------------------------------------------------------------
# R2 — float-literal equality
# ----------------------------------------------------------------------
class FloatEqRule(Rule):
    """R2: no ``==``/``!=`` against float literals in geometric code.

    Invariant: tolerance discipline.  ``x == 0.0`` in geometry code is
    either a real bug (the author meant a tolerance) or an *intentional*
    exact-bit comparison that deserves to say so.

    Heuristic: a comparison with ``==``/``!=`` where any operand is a
    float literal (or ``float(...)`` call) in ``geometry/``,
    ``delaunay/``, ``core/``.

    Fix: a tolerance helper, a predicate, or — for intentional exact-bit
    tests — :func:`repro.geometry.predicates.exact_eq`, which names the
    intent and is exempt here.
    """

    id = "R2"
    title = "float-literal equality comparison in geometric code"
    invariant = "tolerance discipline in geometry/delaunay/core"

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_pkg("repro/geometry", "repro/delaunay", "repro/core")
                and not ctx.is_module("repro/geometry/predicates.py"))

    @staticmethod
    def _is_float_operand(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and type(expr.value) is float:
            return True
        if (isinstance(expr, ast.UnaryOp)
                and isinstance(expr.operand, ast.Constant)
                and type(expr.operand.value) is float):
            return True
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id == "float"):
            return True
        return False

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_float_operand(op) for op in operands):
                findings.append(self.finding(
                    ctx, node,
                    "float equality against a literal — use a tolerance "
                    "helper, or predicates.exact_eq(...) when bitwise "
                    "equality is the intent"))
        return findings


# ----------------------------------------------------------------------
# R3 — non-reproducible randomness
# ----------------------------------------------------------------------
class RngRule(Rule):
    """R3: algorithm randomness must be a seeded ``numpy.random.Generator``.

    Invariant: reproducibility across ranks and runs — "identical inputs
    + identical seed give byte-identical triangulations".  The stdlib
    ``random`` module and the legacy global ``np.random.*`` singleton
    share hidden state across call sites and threads, so a second kernel
    on another thread silently perturbs the first.

    Heuristic: any ``import random`` / ``from random import ...``, and
    any ``np.random.<f>`` attribute use where ``<f>`` is not an explicit
    generator constructor (``default_rng``, ``Generator``,
    ``SeedSequence``, ``PCG64``, ``Philox``, ``bit_generator``).

    Fix: thread a seeded ``np.random.default_rng(seed)`` through the
    call path (the kernel constructor already does).
    """

    id = "R3"
    title = "stdlib random / global numpy RNG in algorithm code"
    invariant = "seeded, thread-local determinism of all randomness"

    _ALLOWED_NP = {"default_rng", "Generator", "SeedSequence", "PCG64",
                   "Philox", "bit_generator", "BitGenerator"}

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_pkg("repro")

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        findings.append(self.finding(
                            ctx, node,
                            "stdlib 'random' has hidden global state — use a "
                            "seeded numpy.random.Generator threaded through "
                            "the call path"))
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    findings.append(self.finding(
                        ctx, node,
                        "stdlib 'random' has hidden global state — use a "
                        "seeded numpy.random.Generator"))
            elif isinstance(node, ast.Attribute):
                # np.random.<attr> / numpy.random.<attr>
                val = node.value
                if (isinstance(val, ast.Attribute) and val.attr == "random"
                        and isinstance(val.value, ast.Name)
                        and val.value.id in ("np", "numpy")
                        and node.attr not in self._ALLOWED_NP):
                    findings.append(self.finding(
                        ctx, node,
                        f"np.random.{node.attr} uses the unseeded global "
                        "RNG — construct np.random.default_rng(seed) and "
                        "pass it explicitly"))
        return findings


# ----------------------------------------------------------------------
# R4 — set-order nondeterminism
# ----------------------------------------------------------------------
class SetIterRule(Rule):
    """R4: no iteration over sets in ``core``/``runtime`` control flow.

    Invariant: determinism across ranks.  Decoupled subdomain interfaces
    and the work-stealing message schedule must not depend on hash-order
    iteration; CPython's set order is insertion/hash dependent and
    differs across processes once ``PYTHONHASHSEED`` varies.

    Heuristic: a ``for`` target (loop or comprehension) whose iterable is
    a set display, set comprehension, ``set()``/``frozenset()`` call, a
    local name assigned from one of those, or any of the former wrapped
    in ``list``/``tuple``/``enumerate``/``reversed``.

    Fix: iterate ``sorted(the_set)`` (or keep a list alongside the set
    when membership *and* order both matter).
    """

    id = "R4"
    title = "iteration over a set/frozenset in order-sensitive code"
    invariant = "deterministic mesh output and message ordering across ranks"

    _WRAPPERS = {"list", "tuple", "enumerate", "reversed"}

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_pkg("repro/core", "repro/runtime")

    @classmethod
    def _is_setish(cls, expr: ast.expr, env: Dict[str, ast.expr],
                   depth: int = 3) -> bool:
        while depth > 0 and isinstance(expr, ast.Name) and expr.id in env:
            expr = env[expr.id]
            depth -= 1
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return (cls._is_setish(expr.left, env, depth)
                    or cls._is_setish(expr.right, env, depth))
        return False

    def _iter_expr(self, expr: ast.expr) -> ast.expr:
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id in self._WRAPPERS and expr.args):
            return expr.args[0]
        return expr

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            env = _local_assigns(scope)
            for node in _scoped_walk(scope):
                iters: List[ast.expr] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if self._is_setish(self._iter_expr(it), env):
                        findings.append(self.finding(
                            ctx, node,
                            "iteration order of a set is hash-dependent — "
                            "iterate sorted(...) so output and message "
                            "order are identical on every rank"))
        return findings


# ----------------------------------------------------------------------
# R5 — wall-clock reads in algorithm code
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    """R5: wall-clock reads live in ``runtime.counters`` only.

    Invariant: observability funnels through one layer.  Ad-hoc
    ``time.perf_counter()`` pairs scattered through algorithm modules
    bypass the phase/counter sink (so ``--profile`` underreports) and
    make simulated-time runs (:mod:`repro.runtime.simulator`) diverge
    from profiled ones.

    Heuristic: calls to ``time.time`` / ``perf_counter`` / ``monotonic``
    / ``process_time`` (attribute or from-imported), anywhere in the
    ``repro`` package except ``runtime/counters.py``.

    Fix: ``with repro.runtime.counters.timed("name") as t:`` — records
    into the ambient profile sink *and* exposes ``t.elapsed``.
    """

    id = "R5"
    title = "wall-clock read outside runtime.counters"
    invariant = "all timing funnels through the counters layer"

    _CLOCKS = {"time", "perf_counter", "monotonic", "process_time",
               "perf_counter_ns", "monotonic_ns", "time_ns"}

    def applies(self, ctx: FileContext) -> bool:
        return (ctx.in_pkg("repro")
                and not ctx.is_module("repro/runtime/counters.py"))

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in self._CLOCKS]
                if bad:
                    findings.append(self.finding(
                        ctx, node,
                        f"importing {', '.join(bad)} from time — route "
                        "timing through repro.runtime.counters.timed()"))
            elif isinstance(node, ast.Call):
                fn = node.func
                if (isinstance(fn, ast.Attribute)
                        and isinstance(fn.value, ast.Name)
                        and fn.value.id == "time"
                        and fn.attr in self._CLOCKS):
                    findings.append(self.finding(
                        ctx, node,
                        f"time.{fn.attr}() outside runtime.counters — use "
                        "counters.timed()/phase() so profiling sees it"))
        return findings


# ----------------------------------------------------------------------
# R7 — Python-loop copies out of mesh buffers in finalize/serde code
# ----------------------------------------------------------------------
class BufferCopyRule(Rule):
    """R7: finalize/serde paths must not copy mesh buffers element-wise.

    Invariant (flat-list kernel store): the kernel's ``px``/``tv``/
    ``tn``/``vt`` are Python lists, and NumPy begins at the boundary
    with one C-speed conversion per buffer (the ``MeshArrays``
    snapshots ``pts()``/``tri_v()``/...).  ``to_mesh``/``compact``
    compact those snapshots with masks and fancy indexing, and the serde
    layer transports the resulting arrays whole.  A Python ``for`` loop
    or comprehension that walks ``pts``/``tri_v``/``points``/
    ``triangles``/... inside one of these functions reintroduces the
    O(n)-interpreter-ops export — the 172M-triangle runs of Section IV
    pay it as minutes, not microseconds.  A list store invites one form
    in particular: ``np.array([tv[i] for i in range(3 * n)])``, which
    iterates a ``range`` and indexes the buffer in its element.

    Heuristic: lexically inside a function named ``compact``/
    ``to_mesh``/``pack_*``/``unpack_*``/``buffers_*``/``batch_*``/
    ``*_batch``, (a) a loop or comprehension whose *iterable* mentions
    a mesh buffer name (``pts``, ``tri_v``, ``tri_n``, ``vertex_tri``,
    ``px``, ``tv``, ``tn``, ``vt``, ``points``, ``triangles``,
    ``segments``), or (b) a comprehension whose *element* subscripts
    one.  The ``batch`` names cover the cavity engine's vectorised
    insertion paths (``walk_batch``, ``carve_batch``, ...): those exist
    *because* they replace per-element predicate loops, so a Python
    walk over the buffers inside one is a regression by definition.
    Loops over other state (constraint lists, label dicts, per-candidate
    cavity sets) are not flagged.

    Fix: vectorize — one snapshot, boolean masks, fancy indexing,
    ``remap[tris]`` — or, when a per-element walk is genuinely required
    (e.g. constraint filtering), hoist it out of the finalize/serde
    function or carry a justified pragma.
    """

    id = "R7"
    title = "per-element Python loop over mesh buffers in finalize/serde"
    invariant = "zero-Python-loop mesh finalize and transport"

    _FUNC_NAMES = {"compact", "to_mesh"}
    _FUNC_PREFIXES = ("pack_", "unpack_", "buffers_", "batch_")
    _FUNC_SUFFIXES = ("_batch",)
    _BUFFERS = {"pts", "tri_v", "tri_n", "vertex_tri", "px", "tv", "tn",
                "vt", "points", "triangles", "segments"}
    _COMPS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_pkg("repro")

    def _in_scope(self, name: str) -> bool:
        return (name in self._FUNC_NAMES
                or name.startswith(self._FUNC_PREFIXES)
                or name.endswith(self._FUNC_SUFFIXES))

    def _mentions_buffer(self, expr: ast.expr) -> Optional[str]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr in self._BUFFERS:
                return node.attr
            if isinstance(node, ast.Name) and node.id in self._BUFFERS:
                return node.id
        return None

    def _subscripts_buffer(self, elts: List[ast.expr]) -> Optional[str]:
        for elt in elts:
            for node in ast.walk(elt):
                if isinstance(node, ast.Subscript):
                    buf = self._mentions_buffer(node.value)
                    if buf is not None:
                        return buf
        return None

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            if not (isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and self._in_scope(scope.name)):
                continue
            for node in _scoped_walk(scope):
                iters: List[ast.expr] = []
                elts: List[ast.expr] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, ast.DictComp):
                    iters.extend(gen.iter for gen in node.generators)
                    elts = [node.key, node.value]
                elif isinstance(node, self._COMPS):
                    iters.extend(gen.iter for gen in node.generators)
                    elts = [node.elt]
                buf = next(filter(None, map(self._mentions_buffer, iters)),
                           None)
                if buf is not None:
                    findings.append(self.finding(
                        ctx, node,
                        f"Python loop over mesh buffer '{buf}' in "
                        f"'{scope.name}' — finalize/serde must stay "
                        "vectorized (masks, fancy indexing); per-element "
                        "walks undo the one-conversion export"))
                    continue
                buf = self._subscripts_buffer(elts)
                if buf is not None:
                    findings.append(self.finding(
                        ctx, node,
                        f"comprehension copies mesh buffer '{buf}' "
                        f"element by element in '{scope.name}' — take "
                        "one snapshot (MeshArrays.pts()/tri_v()/...) "
                        "and index it vectorized"))
        return findings


ALL_RULES: Sequence[Rule] = (
    DetSignRule(),
    FloatEqRule(),
    RngRule(),
    SetIterRule(),
    WallClockRule(),
    BufferCopyRule(),
    ShmLifetimeRule(),
    AsyncBlockingRule(),
    SerdeContractRule(),
    EpochFenceRule(),
    CounterPairRule(),
)


def rule_ids() -> List[str]:
    return [r.id for r in ALL_RULES]
