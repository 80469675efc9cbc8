"""Unit tests for the CFG builder and the gen/kill solver.

These pin the graph shapes the lifetime rule (R8) depends on: exception
edges land on handlers, finally suites intercept every leaving route,
and loops have back edges.
"""

import ast
import textwrap

from repro.lint import dataflow
from repro.lint.cfg import EXC, FLOW, build_cfg


def cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    if name is None:
        return build_cfg(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return build_cfg(node)
    raise AssertionError(f"no function {name}")


def node_at(cfg, lineno):
    for n in cfg.stmt_nodes():
        if getattr(n.stmt, "lineno", None) == lineno:
            return n
    raise AssertionError(f"no node at line {lineno}")


def edges(cfg, src):
    return {(dst, kind) for dst, kind in cfg.nodes[src].succ}


class TestStraightLine:
    def test_linear_flow_reaches_exit(self):
        cfg = cfg_of("""
            def f():
                a = 1
                b = a
        """, "f")
        n_a = node_at(cfg, 3)
        n_b = node_at(cfg, 4)
        assert (n_b.idx, FLOW) in edges(cfg, n_a.idx)
        assert (cfg.exit, FLOW) in edges(cfg, n_b.idx)

    def test_pure_assignment_has_no_exc_edge(self):
        cfg = cfg_of("""
            def f():
                a = 1
        """, "f")
        kinds = {k for _dst, k in cfg.nodes[node_at(cfg, 3).idx].succ}
        assert kinds == {FLOW}

    def test_call_statement_has_raise_edge(self):
        cfg = cfg_of("""
            def f():
                g()
        """, "f")
        assert (cfg.raise_exit, EXC) in edges(cfg, node_at(cfg, 3).idx)

    def test_return_routes_to_exit(self):
        cfg = cfg_of("""
            def f():
                return 1
                a = 2
        """, "f")
        assert (cfg.exit, FLOW) in edges(cfg, node_at(cfg, 3).idx)
        # the dead statement gets no inbound edge
        dead = node_at(cfg, 4).idx
        assert all(dead not in {dst for dst, _ in n.succ} for n in cfg.nodes)


class TestBranchesAndLoops:
    def test_if_without_else_falls_through(self):
        cfg = cfg_of("""
            def f(c):
                if c:
                    a = 1
                b = 2
        """, "f")
        n_if, n_a, n_b = (node_at(cfg, ln) for ln in (3, 4, 5))
        assert (n_a.idx, FLOW) in edges(cfg, n_if.idx)
        assert (n_b.idx, FLOW) in edges(cfg, n_if.idx)
        assert (n_b.idx, FLOW) in edges(cfg, n_a.idx)

    def test_while_back_edge_and_break(self):
        cfg = cfg_of("""
            def f():
                while True:
                    if g():
                        break
                    h()
        """, "f")
        n_while = node_at(cfg, 3)
        n_break = node_at(cfg, 5)
        n_h = node_at(cfg, 6)
        assert (n_while.idx, FLOW) in edges(cfg, n_h.idx)
        assert (cfg.exit, FLOW) in edges(cfg, n_break.idx)
        # while True: no fall-through exit from the header
        assert (cfg.exit, FLOW) not in edges(cfg, n_while.idx)

    def test_for_loop_exit_via_header(self):
        cfg = cfg_of("""
            def f(xs):
                for x in xs:
                    g(x)
                done()
        """, "f")
        n_for = node_at(cfg, 3)
        n_done = node_at(cfg, 5)
        assert (n_done.idx, FLOW) in edges(cfg, n_for.idx)


class TestExceptions:
    def test_exception_lands_on_handler(self):
        cfg = cfg_of("""
            def f():
                try:
                    g()
                except ValueError:
                    h()
        """, "f")
        n_g = node_at(cfg, 4)
        n_h = node_at(cfg, 6)
        assert (n_h.idx, EXC) in edges(cfg, n_g.idx)
        # non-catch-all: can still escape the function
        assert (cfg.raise_exit, EXC) in edges(cfg, n_g.idx)

    def test_catch_all_suppresses_escape(self):
        cfg = cfg_of("""
            def f():
                try:
                    g()
                except BaseException:
                    h()
        """, "f")
        n_g = node_at(cfg, 4)
        assert (cfg.raise_exit, EXC) not in edges(cfg, n_g.idx)

    def test_finally_intercepts_exception_and_normal_paths(self):
        cfg = cfg_of("""
            def f():
                try:
                    g()
                finally:
                    cleanup()
        """, "f")
        n_g = node_at(cfg, 4)
        n_fin = node_at(cfg, 6)
        assert (n_fin.idx, EXC) in edges(cfg, n_g.idx)
        assert (n_fin.idx, FLOW) in edges(cfg, n_g.idx)
        # finally forwards the escaping exception outward
        assert (cfg.raise_exit, EXC) in edges(cfg, n_fin.idx)
        assert (cfg.exit, FLOW) in edges(cfg, n_fin.idx)

    def test_return_in_try_routes_through_finally(self):
        cfg = cfg_of("""
            def f():
                try:
                    return g()
                finally:
                    cleanup()
        """, "f")
        n_ret = node_at(cfg, 4)
        n_fin = node_at(cfg, 6)
        assert (n_fin.idx, FLOW) in edges(cfg, n_ret.idx)
        assert (cfg.exit, FLOW) in edges(cfg, n_fin.idx)


class TestSolver:
    def test_fact_reaches_exit_without_kill(self):
        cfg = cfg_of("""
            def f():
                w = acquire()
                other()
        """, "f")
        n_acq = node_at(cfg, 3)
        in_sets = dataflow.solve(cfg, {n_acq.idx: {0}}, {})
        live_exit, live_raise = dataflow.live_at(cfg, in_sets)
        assert 0 in live_exit
        assert 0 in live_raise  # other() can raise with the fact live

    def test_kill_on_all_paths_clears_exit(self):
        cfg = cfg_of("""
            def f():
                w = acquire()
                release(w)
        """, "f")
        n_acq = node_at(cfg, 3)
        n_rel = node_at(cfg, 4)
        in_sets = dataflow.solve(cfg, {n_acq.idx: {0}}, {n_rel.idx: {0}})
        live_exit, live_raise = dataflow.live_at(cfg, in_sets)
        assert 0 not in live_exit
        # release is atomic: its own raise edge does not leak the fact
        assert 0 not in live_raise

    def test_exc_edge_drops_gen_but_not_prior_facts(self):
        cfg = cfg_of("""
            def f():
                w = acquire()
        """, "f")
        n_acq = node_at(cfg, 3)
        in_sets = dataflow.solve(cfg, {n_acq.idx: {0}}, {})
        # the acquire's own failure produced nothing: not live at RAISE
        assert 0 not in in_sets[cfg.raise_exit]
        assert 0 in in_sets[cfg.exit]
