"""R10 — serde buffer-contract checking.

Everything the transport layer ships is a flat dict of NumPy arrays
with a fixed dtype contract: geometry is ``float64``, connectivity is
``int32`` (``int64`` for offsets/indices that can overflow), flags are
``uint8``/``bool``.  The canonical-bytes hash, the shm segment layout
and the wire envelope framing all assume it; a ``float32`` buffer
round-trips to different canonical bytes on the receiving rank and the
determinism story of the paper (byte-identical meshes for identical
seeds) quietly dies.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from .engine import FileContext, Finding, Rule, _dotted, _scopes

__all__ = ["SerdeContractRule"]

#: dtypes the transport contract forbids (narrowed/widened variants).
_BAD_DTYPES = {"float32", "float16", "int8", "int16", "uint16", "uint32",
               "uint64", "complex64", "complex128", "longdouble",
               "single", "half"}

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: numpy constructors whose dtype= keyword we inspect.
_NP_CTORS = {"zeros", "empty", "ones", "full", "asarray", "array",
             "arange", "frombuffer", "fromiter", "asanyarray",
             "ascontiguousarray"}


def _dtype_token(expr: ast.expr) -> Optional[str]:
    """Render a dtype expression to its terminal token, if recognisable."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Call):
        # np.dtype("float32") and friends.
        if expr.args:
            return _dtype_token(expr.args[0])
    return None


class SerdeContractRule(Rule):
    """R10: buffer factories keep the float64/int32 dtype + key contract.

    Invariant: every buffer dict handed to the serde layer uses the
    dtypes and key names ``canonical_bytes``/``buffers_to_shm`` round-
    trip exactly.

    Heuristic — inside functions named ``pack_*``/``unpack_*``/
    ``buffers_*``/``*_buffers`` (the factories that feed serde):

    * a NumPy constructor (``np.zeros``/``asarray``/...) whose
      ``dtype=`` argument, or an ``.astype(...)`` call whose argument,
      is a forbidden narrow/widened dtype (``float32``, ``int16``,
      ``uint32``, ...);
    * a dict-literal key that is not a lowercase ``snake_case`` string —
      non-string keys don't serialise, and mixed-case keys break the
      sorted-key canonical ordering across platforms.

    Fix: use ``float64``/``int32``/``int64``/``uint8``/``bool`` and
    plain snake_case keys; convert exotic dtypes at the boundary, not
    inside the transport dict.
    """

    id = "R10"
    title = "serde buffer contract violation (dtype or key naming)"
    invariant = "float64/int32 dtype + snake_case key transport contract"

    _FUNC_PREFIXES = ("pack_", "unpack_", "buffers_")
    _FUNC_SUFFIX = "_buffers"

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - trivial
        return True

    def _in_scope(self, name: str) -> bool:
        return (name.startswith(self._FUNC_PREFIXES)
                or name.endswith(self._FUNC_SUFFIX))

    # ------------------------------------------------------------------
    def _check_call(self, ctx: FileContext, call: ast.Call,
                    fname: str, findings: List[Finding]) -> None:
        fn = call.func
        if isinstance(fn, ast.Attribute) and fn.attr == "astype":
            arg = call.args[0] if call.args else None
            for kw in call.keywords:
                if kw.arg == "dtype":
                    arg = kw.value
            token = _dtype_token(arg) if arg is not None else None
            if token in _BAD_DTYPES:
                findings.append(self.finding(
                    ctx, call,
                    f".astype({token}) in '{fname}' breaks the serde "
                    "dtype contract — buffers ship as "
                    "float64/int32/int64/uint8/bool only"))
            return
        last = _dotted(fn).rsplit(".", 1)[-1]
        if last not in _NP_CTORS:
            return
        for kw in call.keywords:
            if kw.arg != "dtype":
                continue
            token = _dtype_token(kw.value)
            if token in _BAD_DTYPES:
                findings.append(self.finding(
                    ctx, kw.value,
                    f"dtype={token} in '{fname}' breaks the serde "
                    "contract — transport buffers are "
                    "float64/int32/int64/uint8/bool; convert at the "
                    "boundary, not in the buffer dict"))

    def _check_dict(self, ctx: FileContext, node: ast.Dict,
                    fname: str, findings: List[Finding]) -> None:
        for key in node.keys:
            if key is None:  # **spread — keys checked at their source
                continue
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                findings.append(self.finding(
                    ctx, key,
                    f"non-literal-string buffer key in '{fname}' — serde "
                    "canonical ordering needs constant snake_case keys"))
                continue
            if not _KEY_RE.match(key.value):
                findings.append(self.finding(
                    ctx, key,
                    f"buffer key '{key.value}' in '{fname}' is not "
                    "snake_case — canonical sorted-key hashing requires "
                    "lowercase [a-z][a-z0-9_]* names"))

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in _scopes(ctx):
            if not (isinstance(scope, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                    and self._in_scope(scope.name)):
                continue
            stack: List[ast.AST] = list(scope.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(node, ast.Call):
                    self._check_call(ctx, node, scope.name, findings)
                elif isinstance(node, ast.Dict):
                    self._check_dict(ctx, node, scope.name, findings)
                stack.extend(ast.iter_child_nodes(node))
        return findings
