"""Each lint rule fires on the pattern it guards against — and only there.

The bad snippets below are miniatures of real defect classes the rules
exist to block (R3's ``import random`` is literally what the Delaunay
kernel used to do), placed under fake ``repro/...`` paths so the rule
scoping logic is exercised too.
"""

import textwrap

from repro.lint.engine import LintRunner, parse_pragmas
from repro.lint.rules import ALL_RULES, rule_ids


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
        ids = rule_ids()
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

    def test_raw_determinant_sign_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, "repro/delaunay/bad.py", self.BAD)
        assert "R1" in rules_hit(findings)

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
    def test_float_literal_equality_flagged(self, tmp_path):
        bad = """
            def f(x):
                return x == 0.0
        """
        findings = lint_snippet(tmp_path, "repro/geometry/bad.py", bad)
        assert "R2" in rules_hit(findings)

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

    def test_unseeded_np_random_flagged(self, tmp_path):
        bad = """
            import numpy as np

            def shuffle(x):
                np.random.shuffle(x)
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/bad2.py", bad)
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
    def test_set_iteration_flagged(self, tmp_path):
        bad = """
            def emit(out):
                pending = {3, 1, 2}
                for x in pending:
                    out.append(x)
        """
        findings = lint_snippet(tmp_path, "repro/core/bad.py", bad)
        assert "R4" in rules_hit(findings)

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
    def test_perf_counter_flagged(self, tmp_path):
        bad = """
            import time

            def stamp():
                return time.perf_counter()
        """
        findings = lint_snippet(tmp_path, "repro/core/bad.py", bad)
        assert "R5" in rules_hit(findings)

    def test_counters_module_exempt(self, tmp_path):
        ok = """
            import time

            def stamp():
                return time.perf_counter()
        """
        findings = lint_snippet(tmp_path, "repro/runtime/counters.py", ok)
        assert "R5" not in rules_hit(findings)


class TestR7BufferCopy:
    def test_loop_over_buffer_in_to_mesh_flagged(self, tmp_path):
        bad = """
            def to_mesh(self):
                out = []
                for t in self.tri_v:
                    out.append(tuple(t))
                return out
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/bad.py", bad)
        assert "R7" in rules_hit(findings)

    def test_comprehension_in_pack_flagged(self, tmp_path):
        bad = """
            def pack_mesh(mesh):
                return {"points": [tuple(p) for p in mesh.points]}
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad.py", bad)
        assert "R7" in rules_hit(findings)

    def test_non_buffer_loop_allowed(self, tmp_path):
        ok = """
            def to_mesh(self):
                segs = [(u, v) for u, v in self.constraints]
                return segs
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/ok.py", ok)
        assert "R7" not in rules_hit(findings)

    def test_buffer_loop_outside_scope_allowed(self, tmp_path):
        ok = """
            def render(mesh):
                for p in mesh.points:
                    print(p)
        """
        findings = lint_snippet(tmp_path, "repro/io/ok.py", ok)
        assert "R7" not in rules_hit(findings)

    def test_seeded_fault_in_batch_path_fires(self, tmp_path):
        # Seeded regression: de-vectorising a cavity-engine batch helper
        # back into a per-triangle Python loop over the SoA buffers must
        # trip R7 (this is exactly the loop walk_batch/carve_batch
        # replaced with one predicate call per level).
        bad = """
            def carve_batch(tri, t0s, qxy):
                out = []
                for row in tri.tri_v:
                    out.append(int(row[0]))
                return out
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/cavity.py", bad)
        assert "R7" in rules_hit(findings)

    def test_batch_prefix_comprehension_fires(self, tmp_path):
        bad = """
            def batch_locate(tri, qxy):
                return [p for p in tri.pts]
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/cavity.py", bad)
        assert "R7" in rules_hit(findings)

    def test_seeded_elementwise_copy_of_list_store_fires(self, tmp_path):
        # Seeded regression the flat-list store invites: converting a
        # kernel list by indexing it in a comprehension over range(...)
        # instead of one snapshot conversion.
        bad = """
            import numpy as np

            def compact(self):
                tv = self.tv
                n = self.n_tris
                return np.array([tv[i] for i in range(3 * n)])
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/arrays.py", bad)
        assert "R7" in rules_hit(findings)

    def test_elementwise_copy_in_dict_comprehension_fires(self, tmp_path):
        bad = """
            def pack_points(arr, n):
                return {i: (arr.px[2 * i], arr.px[2 * i + 1])
                        for i in range(n)}
        """
        findings = lint_snippet(tmp_path, "repro/runtime/bad.py", bad)
        assert "R7" in rules_hit(findings)

    def test_elementwise_non_buffer_subscript_allowed(self, tmp_path):
        ok = """
            def to_mesh(self, remap):
                return [(remap[u], remap[v]) for u, v in self.constraints]
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/ok.py", ok)
        assert "R7" not in rules_hit(findings)

    def test_batch_loop_over_cavity_sets_allowed(self, tmp_path):
        # Per-candidate control flow over cavity *sets* (not buffers) is
        # the legitimate scalar part of the batch path.
        ok = """
            def insert_batch(tri, cavities):
                claimed = set()
                for cav in cavities:
                    claimed |= cav
                return claimed
        """
        findings = lint_snippet(tmp_path, "repro/delaunay/cavity.py", ok)
        assert "R7" not in rules_hit(findings)


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
