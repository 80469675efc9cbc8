"""repro.lint — invariant-enforcing static analysis for the mesher.

The paper's correctness story rests on invariants the code can silently
break: exact-arithmetic escalation for geometric predicates (Section
II.B), deterministic subdomain interfaces after decoupling (Section
II.E), and leak-free, epoch-fenced hand-off of work items between the
pool's processes (Section II.F).  The dynamic invariant tests
(``tests/delaunay/test_invariants.py``) check *outputs*; this package
checks *sources*: statement-level AST rules (R1–R5, R7) plus a
function-scope **CFG + dataflow engine** (:mod:`repro.lint.cfg`,
:mod:`repro.lint.dataflow`) for path-sensitive properties — resource
lifetimes across exception edges, epoch-fence dominance — that no
single statement can witness (R8–R12).

Usage::

    python -m repro.lint src/ tests/             # human-readable
    python -m repro.lint src/ --format=json      # machine-readable
    python -m repro.lint src/ --format=sarif     # code-scanning upload
    python -m repro.lint src/ --baseline lint-baseline.json

Exit codes: 0 clean (or all findings baselined/warn), 1 error-severity
findings, 2 usage error / unreadable input / internal lint crash.

Findings are suppressed per line with a justified pragma::

    det = dx0 * dy1 - dy0 * dx1  # lint: disable=R1 -- magnitude only

A pragma without a one-line justification is itself a finding (``P0``),
and a pragma that suppresses nothing is a finding (``P1``) — so the
pragma inventory can never silently outgrow the code it excuses.
Per-tree severity overrides
(:data:`repro.lint.engine.DEFAULT_SEVERITY_MAP`) relax production-only
rules for ``tests/`` and ``examples/``.

The rule set (see :mod:`repro.lint.rules` and the ``rules_*`` modules
for the full statements):

========  ==============================================================
``R1``    raw float determinant sign tests outside ``geometry/predicates``
``R2``    ``==``/``!=`` against float literals in geometry/delaunay/core
``R3``    stdlib ``random`` / unseeded ``np.random.*`` in algorithm code
``R4``    iteration over ``set``/``frozenset`` in ``core``/``runtime``
``R5``    wall-clock reads outside ``runtime.counters``
``R7``    per-element Python loops over mesh buffers in finalize/serde
``R8``    shm/wire value leaked on some path (incl. exception edges)
``R9``    blocking calls inside ``async def`` bodies
``R10``   serde buffer-contract violations (dtype / key naming)
``R11``   un-fenced pool-result reads; warm→bind / abort→shutdown order
``R12``   unpaired counter samples (``shm_nbytes`` without ``shm_seconds``)
========  ==============================================================
"""

from .._lazy import lazy_exports

#: re-exported name -> defining submodule, imported on first use.
_EXPORTS = {
    "Finding": "engine",
    "LintRunner": "engine",
    "RULESET_VERSION": "engine",
    "DEFAULT_SEVERITY_MAP": "engine",
    "load_baseline": "engine",
    "write_baseline": "engine",
    "apply_baseline": "engine",
    "ALL_RULES": "rules",
    "rule_ids": "rules",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
