"""Each statement-level lint rule stays quiet where its pattern is fine.

The shape each rule exists to flag is its recorded mutant
(``test_mutants.py``); the snippets here pin the rest: the scoping by
path, the exemptions, the look-alikes that must not fire, the second
shapes a rule also flags (R1's lifted incircle, R3's ``import random``
— literally what the Delaunay kernel used to do) and pragma handling.
"""

import textwrap

from repro.lint.engine import LintRunner, parse_pragmas
from repro.lint.rules import ALL_RULES


def lint_snippet(tmp_path, relpath, source):
    f = tmp_path / relpath
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    findings, n_files = LintRunner(ALL_RULES).run([str(f)])
    assert n_files == 1
    return findings


def rules_hit(findings):
    return {f.rule for f in findings}


class TestRuleCatalog:
    def test_ids_unique_and_documented(self):
        ids = [r.id for r in ALL_RULES]
        assert len(ids) == len(set(ids))
        for r in ALL_RULES:
            assert r.id and r.title and r.invariant


class TestR1DetSign:
    BAD = """
        def orient(ax, ay, bx, by, cx, cy):
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if det > 0.0:
                return 1
            return -1
    """

    def test_predicates_module_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/geometry/predicates.py", self.BAD)
        assert "R1" not in rules_hit(findings)

    def test_magnitude_use_not_flagged(self, tmp_path):
        ok = """
            def area2(ax, ay, bx, by, cx, cy):
                return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/ok.py", ok)
        assert "R1" not in rules_hit(findings)


    LIFTED = """
        def in_circle(adx, ady, bdx, bdy, cdx, cdy):
            alift = adx * adx + ady * ady
            blift = bdx * bdx + bdy * bdy
            clift = cdx * cdx + cdy * cdy
            det = (alift * (bdx * cdy - cdx * bdy)
                   + blift * (cdx * ady - adx * cdy)
                   + clift * (adx * bdy - bdx * ady))
            return det > 0.0
    """

    def test_lifted_incircle_determinant_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, "repro/delaunay/bad.py",
                                self.LIFTED)
        assert "R1" in rules_hit(findings)

    def test_sum_of_plain_products_not_flagged(self, tmp_path):
        ok = """
            def heavy(w0, w1, w2, a, b, c, limit):
                total = w0 * a + w1 * b + w2 * c
                return total > limit
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/ok.py", ok)
        assert "R1" not in rules_hit(findings)


class TestR2FloatEq:
    def test_out_of_scope_package_ignored(self, tmp_path):
        ok = """
            def f(x):
                return x == 0.0
        """
        findings = lint_snippet(tmp_path, "repro/runtime/ok.py", ok)
        assert "R2" not in rules_hit(findings)

    def test_int_equality_not_flagged(self, tmp_path):
        ok = """
            def f(x):
                return x == 0
        """
        findings = lint_snippet(tmp_path, "repro/geometry/ok.py", ok)
        assert "R2" not in rules_hit(findings)


class TestR3Rng:
    def test_stdlib_random_import_flagged(self, tmp_path):
        # The original kernel.py defect: hidden global RNG state shared
        # by concurrently running kernels.
        bad = """
            import random

            def jitter():
                return random.random()
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/bad.py", bad)
        assert "R3" in rules_hit(findings)

    def test_seeded_generator_allowed(self, tmp_path):
        ok = """
            import numpy as np

            def rng(seed):
                return np.random.default_rng(seed)
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/ok.py", ok)
        assert "R3" not in rules_hit(findings)


class TestR4SetIter:
    def test_sorted_iteration_allowed(self, tmp_path):
        ok = """
            def emit(out):
                pending = {3, 1, 2}
                for x in sorted(pending):
                    out.append(x)
        """
        findings = lint_snippet(tmp_path, "repro/core/ok.py", ok)
        assert "R4" not in rules_hit(findings)


class TestR5WallClock:
    def test_counters_module_exempt(self, tmp_path):
        ok = """
            import time

            def stamp():
                return time.perf_counter()
        """
        findings = lint_snippet(tmp_path, "repro/runtime/counters.py", ok)
        assert "R5" not in rules_hit(findings)


class TestPragmas:
    def test_justified_pragma_suppresses(self, tmp_path):
        src = """
            import random  # lint: disable=R3 -- fixture needs the stdlib API
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/x.py", src)
        assert rules_hit(findings) == set()

    def test_bare_pragma_is_p0(self, tmp_path):
        src = """
            import random  # lint: disable=R3
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/x.py", src)
        assert "P0" in rules_hit(findings)

    def test_unknown_rule_pragma_is_p0(self, tmp_path):
        src = """
            x = 1  # lint: disable=R99 -- no such rule
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/x.py", src)
        assert "P0" in rules_hit(findings)

    def test_stale_pragma_is_p1(self, tmp_path):
        src = """
            x = 1  # lint: disable=R3 -- nothing here needs this
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/x.py", src)
        assert "P1" in rules_hit(findings)

    def test_pragma_in_string_literal_ignored(self, tmp_path):
        # Only real comment tokens count; documentation that *mentions*
        # the pragma syntax must not suppress or go stale.
        src = '''
            DOC = "# lint: disable=R3 -- this is data, not a pragma"
        '''
        findings = lint_snippet(tmp_path, "repro/delaunay/x.py", src)
        assert rules_hit(findings) == set()

    def test_parse_pragmas_multi_rule(self):
        src = "x = 1  # lint: disable=R2, R4 -- both needed\n"
        pragmas = parse_pragmas(src)
        assert pragmas[1].rules == ("R2", "R4")
        assert pragmas[1].justification
        assert not pragmas[1].bare
