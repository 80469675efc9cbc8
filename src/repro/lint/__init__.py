"""repro.lint — invariant-enforcing static analysis for the mesher.

The paper's correctness story rests on invariants the code can silently
break: exact-arithmetic escalation for geometric predicates (Section
II.B), reproducible output, and leak-free hand-off of work items
between the pool's processes (Section II.F).  Tier-1 checks *outputs*
(``tests/pins.json``, the fuzz digests); this package checks *sources*,
and keeps a rule only while it flags a recorded defect that tier-1
misses.  Each rule's defect is a fixture under ``tests/lint/mutants/``
(the mutated function, with the input that shows the defect), and
``tests/lint/test_mutants.py`` asserts the rule flags it.  R8 runs a
function-scope CFG + dataflow engine (:mod:`repro.lint.cfg`,
:mod:`repro.lint.dataflow`) to follow a value across exception edges;
the others are statement-level AST checks.

Usage::

    python -m repro.lint src/ tests/ benchmarks/ examples/
    python -m repro.lint --list-rules

Exit codes: 0 clean (or warn-severity findings only), 1 error-severity
findings, 2 usage error / unreadable input / internal lint crash.

Findings are suppressed per line with a justified pragma::

    det = dx0 * dy1 - dy0 * dx1  # lint: disable=R1 -- magnitude only

A pragma without a one-line justification, or naming an unknown rule,
is itself a finding (``P0``), and a pragma that suppresses nothing is a
finding (``P1``) — so the pragma inventory can never silently outgrow
the code it excuses.  Per-tree severity overrides
(:data:`repro.lint.engine.DEFAULT_SEVERITY_MAP`) relax production-only
rules for ``tests/`` and ``examples/``.

The rule set (ids are never reused; R6, R7, R9, R11 and R12 are gone)
and the defect each one's fixture records:

=======  =============================================  ==================================
``R1``   raw float determinant sign test outside        ``MeshAdaptor.smooth_pass``: a
         ``geometry/predicates``                        float inversion guard keeps an
                                                        inverted triangle
``R2``   ``==``/``!=`` against a float literal in       ``loop_surface_vertices``: an
         geometry/delaunay/core                         exact cusp test points a spike's
                                                        tip normal into the body
``R3``   stdlib ``random`` / global ``np.random.*``     ``insertion_order``: the
                                                        ``"random"`` policy triangulates
                                                        a grid differently every run
``R4``   iteration over a set in ``core``/``runtime``   ``request_cost``: the err frame
                                                        of a malformed request differs
                                                        between daemons
``R5``   wall-clock read outside ``runtime.counters``   ``generate_mesh``: ``--profile``
                                                        loses the ``merge`` phase
``R8``   shm/wire value leaked on some path             ``_pool_worker_main``: a failed
         (exception edges included)                     counters snapshot leaks a
                                                        ``/dev/shm`` segment
``R10``  serde buffer-contract violation (dtype or      ``MeshService._stats_buffers``:
         key naming) in ``pack_*``/``*_buffers``        the stats frame rounds to
                                                        float32
=======  =============================================  ==================================
"""

from .._lazy import lazy_exports

#: re-exported name -> defining submodule, imported on first use.
_EXPORTS = {
    "Finding": "engine",
    "LintRunner": "engine",
    "DEFAULT_SEVERITY_MAP": "engine",
    "ALL_RULES": "rules",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
