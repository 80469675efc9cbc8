"""Lint driver: file walking, pragma accounting, finding suppression.

The engine is rule-agnostic: it parses every ``.py`` file once, hands the
tree to each rule, then reconciles the raw findings against the per-line
pragma inventory.  It also holds what every rule module builds on — the
:class:`Rule` base class and the scope/name AST helpers — so the
``rules_*`` modules import nothing from :mod:`repro.lint.rules`, which
only assembles ``ALL_RULES``.  Pragma hygiene is enforced here, not in
the rules:

* ``P0`` — a pragma with no justification, or naming an unknown rule;
* ``P1`` — a pragma that suppressed nothing (stale excuse).

Both keep the acceptance bar honest: every surviving pragma names a real
finding and says *why* the code is allowed to keep its shape.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Finding", "FileContext", "Rule", "LintRunner",
           "iter_python_files", "DEFAULT_SEVERITY_MAP"]

#: Per-tree rule-severity overrides: a finding whose path contains the
#: key as a directory part gets the mapped severity for that rule —
#: ``"off"`` drops it, ``"warn"`` keeps it visible without failing the
#: run.  Test/example helpers legitimately read wall clocks (R5) and
#: build buffers of any dtype to exercise the transport (R10); holding
#: them to production severity would bury real findings under justified
#: noise.  Engine-level findings (P0/P1/E9) are never demoted.
DEFAULT_SEVERITY_MAP: Dict[str, Dict[str, str]] = {
    "tests": {"R5": "off", "R10": "off"},
    "examples": {"R5": "warn"},
}

# ``lint: disable=R1`` or ``lint: disable=R1,R4 -- why this is fine``
# (only real COMMENT tokens are scanned, so docstring examples don't count).
_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z]\d+(?:\s*,\s*[A-Za-z]\d+)*)\s*(.*)$"
)
# Leading separator of the justification text ("--", "—", ":", ...).
_JUSTIFY_STRIP = " \t-—–:"

_SKIP_DIRS = {".git", "__pycache__", ".venv", "venv", "node_modules",
              "build", "dist"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def format_text(self) -> str:
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule}{tag}: {self.message}")


@dataclass
class Pragma:
    """A parsed ``# lint: disable=...`` comment on one physical line."""

    line: int
    rules: Tuple[str, ...]
    justification: str
    used: set = field(default_factory=set)

    @property
    def bare(self) -> bool:
        return not self.justification


class FileContext:
    """Everything a rule needs to inspect one file."""

    def __init__(self, path: Path, source: str, tree: ast.AST) -> None:
        self.path = path
        #: Normalised forward-slash path used by rule scoping.
        self.posix = path.as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    # ------------------------------------------------------------------
    def in_pkg(self, *fragments: str) -> bool:
        """Is this file inside any of the given package sub-paths?

        Fragments are slash-joined module paths like ``"repro/geometry"``;
        matching is by path substring with separators pinned, so
        ``repro/core`` does not match ``repro/core_utils``.
        """
        for frag in fragments:
            if f"/{frag}/" in self.posix or self.posix.endswith(f"/{frag}.py"):
                return True
        return False

    def is_module(self, *module_files: str) -> bool:
        """Exact module-file match, e.g. ``"repro/geometry/predicates.py"``."""
        return any(self.posix.endswith(f"/{m}") for m in module_files)


def parse_pragmas(source: str) -> Dict[int, Pragma]:
    """Extract pragmas from *comment tokens* (never from string literals)."""
    pragmas: Dict[int, Pragma] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(t.start[0], t.string) for t in tokens
                    if t.type == tokenize.COMMENT]
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return pragmas
    for lineno, text in comments:
        m = _PRAGMA_RE.search(text)
        if not m:
            continue
        rules = tuple(r.strip().upper() for r in m.group(1).split(","))
        justification = m.group(2).strip(_JUSTIFY_STRIP).strip()
        pragmas[lineno] = Pragma(line=lineno, rules=rules,
                                 justification=justification)
    return pragmas


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if any(part in _SKIP_DIRS or part.endswith(".egg-info")
                       for part in f.parts):
                    continue
                out.append(f)
        elif p.suffix == ".py":
            out.append(p)
    return out


# ----------------------------------------------------------------------
# What every rule module builds on
# ----------------------------------------------------------------------
class Rule:
    """Base class: subclasses set ``id``/``title`` and implement checks."""

    id: str = "R0"
    title: str = ""
    #: One-line statement of the paper invariant the rule guards.
    invariant: str = ""

    def applies(self, ctx: FileContext) -> bool:  # pragma: no cover - trivial
        return True

    def check(self, ctx: FileContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.id, ctx.posix, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)


def _scoped_walk(scope: ast.AST):
    """Walk one scope's statements without descending into nested defs.

    Nested functions/classes get their own pass from :func:`_scopes`;
    skipping them here keeps findings single-counted and name resolution
    honest about which scope a binding belongs to.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _local_assigns(scope: ast.AST) -> Dict[str, ast.expr]:
    """Map simple ``name = <expr>`` assignments in one scope (last wins).

    Handles plain and annotated assignments — enough to resolve the
    ``det = a*b - c*d`` / ``guilty: set = set()`` staging the detectors
    care about, without real dataflow analysis.
    """
    out: Dict[str, ast.expr] = {}
    for node in _scoped_walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name):
                out[tgt.id] = node.value
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and isinstance(node.target, ast.Name)):
            out[node.target.id] = node.value
    return out


def _scopes(ctx: FileContext) -> List[ast.AST]:
    """Every analysis scope: the module plus each (nested) function."""
    scopes: List[ast.AST] = [ctx.tree]
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    return scopes


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of an attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class LintRunner:
    """Run a rule set over files, reconciling findings with pragmas.

    A pragma naming a rule outside the set is unknown (P0); one whose
    rule found nothing on its line is stale (P1).  Findings take the
    per-tree overrides of :data:`DEFAULT_SEVERITY_MAP`.
    """

    def __init__(self, rules: Sequence) -> None:
        self.rules = list(rules)
        self._rule_ids = {r.id for r in self.rules}

    # ------------------------------------------------------------------
    def _apply_severity(self, f: Finding) -> Optional[Finding]:
        if f.rule in ("P0", "P1", "E9"):
            return f
        parts = Path(f.path).parts
        for tree, overrides in DEFAULT_SEVERITY_MAP.items():
            if tree in parts and f.rule in overrides:
                level = overrides[f.rule]
                if level == "off":
                    return None
                if level != f.severity:
                    return Finding(f.rule, f.path, f.line, f.col,
                                   f.message, level)
        return f

    def run_file(self, path: Path) -> List[Finding]:
        posix = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [Finding("E9", posix, 1, 0, f"unreadable file: {exc}")]
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [Finding("E9", posix, exc.lineno or 1, 0,
                            f"syntax error: {exc.msg}")]

        ctx = FileContext(path, source, tree)
        pragmas = parse_pragmas(source)

        raw: List[Finding] = []
        for rule in self.rules:
            try:
                if rule.applies(ctx):
                    raw.extend(rule.check(ctx))
            except Exception as exc:  # rule bug ≠ clean file: surface it
                raw.append(Finding(
                    "E9", posix, 1, 0,
                    f"internal error in rule {rule.id}: "
                    f"{type(exc).__name__}: {exc}"))

        survived: List[Finding] = []
        for f in raw:
            pragma = pragmas.get(f.line)
            if pragma is not None and f.rule in pragma.rules:
                pragma.used.add(f.rule)
                continue
            survived.append(f)

        # Pragma hygiene (not suppressible by pragmas themselves).
        for pragma in pragmas.values():
            unknown = [r for r in pragma.rules if r not in self._rule_ids]
            if unknown:
                survived.append(Finding(
                    "P0", posix, pragma.line, 0,
                    f"pragma names unknown rule(s) {', '.join(unknown)}"))
            if pragma.bare:
                survived.append(Finding(
                    "P0", posix, pragma.line, 0,
                    "pragma has no justification — append '-- <one line why>'"))
            stale = [r for r in pragma.rules
                     if r in self._rule_ids and r not in pragma.used]
            if stale:
                survived.append(Finding(
                    "P1", posix, pragma.line, 0,
                    f"stale pragma: rule(s) {', '.join(stale)} found nothing "
                    "on this line — remove the excuse"))
        survived = [sf for sf in (self._apply_severity(f) for f in survived)
                    if sf is not None]
        survived.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return survived

    def run(self, paths: Iterable[str]) -> Tuple[List[Finding], int]:
        """Lint ``paths``; returns ``(findings, files_scanned)`` with
        findings in byte-stable (path, line, col, rule) order."""
        files = iter_python_files(paths)
        findings: List[Finding] = []
        for f in files:
            findings.extend(self.run_file(f))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings, len(files)
