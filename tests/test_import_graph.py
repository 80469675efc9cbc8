"""What the mesher's import path loads, and what it must not.

``repro.solver``, ``repro.runtime`` and ``repro.lint`` re-export their
submodules' names lazily (``repro._lazy``), so a process that meshes
does not pay for ``scipy.sparse``, ``asyncio`` + the service daemon or
any of ``repro.lint``.  Those checks run in a fresh interpreter: this
one has long since imported everything.  The static half walks the
``import`` statements under ``src/repro``: every module of ``runtime/``
and ``core/`` is on a path from an entry point, or is listed with the
reason it is not.  It also walks the names ``src/repro``,
``benchmarks/`` and ``examples/`` mention: every function, class and
method of ``src/repro`` has a caller outside ``tests/``.  And it walks
their calls: every defaulted parameter and every defaulted dataclass
field of ``src/repro`` is passed by a call outside ``tests/`` (or, for
a field, written by ``src/repro``: state), or is listed with the reason
it stays an option.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)


MESHER = """
import sys
import repro, repro.core.pipeline, repro.solver.adapt
from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.solver.adapt import ShearLayerProblem, adapt_loop

pslg = PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"])
config = MeshConfig(bl=BoundaryLayerConfig(first_spacing=1e-3,
                                           growth_ratio=1.3, max_layers=40),
                    farfield_chords=40.0, target_subdomains=16)
result = generate_mesh(pslg, config, backend={backend!r}, n_ranks={n_ranks})
assert result.mesh.n_triangles > 0
for name in sorted(sys.modules):
    if name.startswith({unwanted!r}):
        print(name)
"""

UNWANTED = ("scipy", "asyncio", "repro.lint",
            "repro.runtime.service", "repro.runtime.client",
            "repro.runtime.simulator",
            "repro.solver.fem", "repro.solver.convergence")


def unwanted_after_meshing(backend, n_ranks):
    done = fresh_python(MESHER.format(backend=backend, n_ranks=n_ranks,
                                      unwanted=UNWANTED))
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_serial_mesher_loads_no_solver_daemon_or_lint_engine():
    assert unwanted_after_meshing("serial", 1) == []


def test_processes_mesher_loads_no_lint_module():
    """``runtime/executor.py`` imports nothing from ``repro.lint``: a
    parent that meshes through the pool has not even the package."""
    assert unwanted_after_meshing("processes", 2) == []


CLI_RUN = """
import sys, tempfile
from repro.cli import main

with tempfile.TemporaryDirectory() as out:
    assert main(["--naca", "0012", "--surface-points", "21",
                 "--max-layers", "4", "--farfield-chords", "5",
                 "--subdomains", "2", "-o", out + "/m"]) == 0
print("lint modules:", sorted(n for n in sys.modules
                              if n.startswith("repro.lint")))
"""


def test_cli_mesh_run_loads_no_lint_module():
    """``repro-mesh`` meshes without importing the linter: its summary
    carries no ruleset, and ``cli.py`` imports nothing of ``repro.lint``."""
    done = fresh_python(CLI_RUN)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "lint modules: []"


@pytest.mark.parametrize(
    "module", ["rules_serde"])
def test_rule_module_imports_first_in_a_fresh_interpreter(module):
    """The ``rules_*`` modules build on ``engine`` alone, so importing
    one before ``repro.lint.rules`` is not a cycle."""
    done = fresh_python(
        f"import sys, repro.lint.{module}\n"
        "assert 'repro.lint.rules' not in sys.modules\n"
        "from repro.lint.rules import ALL_RULES\n"
        "assert len(ALL_RULES) == 6\n")
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# Static reachability: no module of runtime/ or core/ is an orphan
# ----------------------------------------------------------------------
ENTRY_POINTS = ("repro.cli", "repro.core.pipeline", "repro.runtime.service",
                "repro.solver.adapt")

#: modules nothing reachable imports, each with the reason it is still
#: in the tree.  Shrink it; an entry that became reachable (or whose
#: file is gone) fails the test.
UNREACHED_FOR_A_REASON = {
    "repro.core.decompose":
        "§II.D BL decomposition: called by the frozen ledger's probe "
        "(benchmarks/ledger/traced.py), benches and examples; ROADMAP "
        "sentences it pending the [benchmark] PR",
    "repro.core.projection":
        "imported by core.decompose only; same verdict",
    "repro.core.subdomain":
        "imported by core.decompose / core.projection only; same verdict",
}


def module_file(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def imported_modules(name):
    """``repro`` modules the ``import`` statements of ``name`` load —
    anywhere in the file, function-level imports included — plus the
    submodules a package's lazy ``_EXPORTS`` table names."""
    path = module_file(name)
    tree = ast.parse(path.read_text())
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parents = package.split(".")
                parents = parents[:len(parents) - node.level + 1]
                base = ".".join(parents + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Assign) and path.name == "__init__.py"
              and any(isinstance(t, ast.Name) and t.id == "_EXPORTS"
                      for t in node.targets)):
            found.update(f"{name}.{sub}"
                         for sub in ast.literal_eval(node.value).values())
    return {m for m in found
            if m.startswith("repro") and module_file(m) is not None}


def test_every_runtime_and_core_module_is_reachable_from_an_entry_point():
    reached, stack = set(), list(ENTRY_POINTS)
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        stack.append(name.rpartition(".")[0] or name)
        stack.extend(imported_modules(name))
    modules = set()
    for sub in ("runtime", "core"):
        for path in (SRC / "repro" / sub).glob("*.py"):
            modules.add(f"repro.{sub}" if path.stem == "__init__"
                        else f"repro.{sub}.{path.stem}")
    assert modules - reached == set(UNREACHED_FOR_A_REASON)
    assert all(UNREACHED_FOR_A_REASON.values())


# ----------------------------------------------------------------------
# Static callers: no definition of src/repro is called by tests/ alone
# ----------------------------------------------------------------------
REPO = SRC.parent

def definitions(path):
    """``(qualified name, name, (path, first, last line))`` of every
    ``def`` and ``class`` in ``path``: methods included, dunder methods
    and functions nested in functions not."""
    parts = path.relative_to(SRC).with_suffix("").parts
    module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((f"{module}.{prefix}{name}", name,
                                  (path, child.lineno, child.end_lineno)))
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def name_uses(path):
    """``(name, line)`` of every name ``path`` mentions: a bare name, an
    attribute, an imported name, or a constant string handed to
    ``getattr``/``hasattr``.  A package ``__init__``'s ``from``-imports
    are re-exports, not uses (``__all__`` and ``_EXPORTS`` entries are
    plain strings, so they never count)."""
    reexports = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and not reexports):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value, node.lineno


def uncalled_definitions():
    """Qualified names of the definitions whose name appears neither in
    ``benchmarks/`` or ``examples/`` nor in ``src/repro`` outside their
    own body.  A use inside another uncalled definition calls nothing,
    to a fixed point, so a chain of test-only helpers is named whole."""
    defs, uses = [], {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        defs += definitions(path)
        for name, line in name_uses(path):
            uses.setdefault(name, []).append((path, line))
    outside = {name for top in ("benchmarks", "examples")
               for path in (REPO / top).rglob("*.py")
               for name, _ in name_uses(path)}

    def within(site, span):
        return site[0] == span[0] and span[1] <= site[1] <= span[2]

    uncalled = {}
    while True:
        dead = list(uncalled.values())
        found = {
            qual: span for qual, name, span in defs
            if name not in outside and not any(
                not within(site, span)
                and not any(within(site, d) for d in dead)
                for site in uses.get(name, ()))}
        if found.keys() == uncalled.keys():
            return set(found)
        uncalled = found


def test_every_definition_has_a_caller_outside_tests():
    """A definition only tests call moves to ``tests/`` (an oracle such
    as ``tests/delaunay/oracle.check_integrity``) or is deleted."""
    uncalled = sorted(uncalled_definitions())
    assert not uncalled, "called by tests/ alone:\n" + "\n".join(uncalled)


# ----------------------------------------------------------------------
# Static options: no defaulted parameter of src/repro is set by tests/ alone
# ----------------------------------------------------------------------
#: defaulted parameters no call outside ``tests/`` passes, each with the
#: reason it is still an option.  At most four; an entry that gained a
#: caller (or whose parameter is gone) fails the test.
OPTIONS_FOR_A_REASON = {
    "repro.runtime.service.MeshService.__init__(work_fn=)":
        "the tests' fake mesher: a daemon that sleeps or fails on demand",
    "repro.runtime.service.MeshService.__init__(cost_fn=)":
        "the tests' fake cost model, paired with work_fn",
    "repro.cli.main(argv=)":
        "entry point: None reads sys.argv, tests hand it a list",
    "repro.lint.__main__.main(argv=)":
        "entry point: None reads sys.argv, tests hand it a list",
}


def is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def option_definitions(path, root):
    """``(qualified option, called name, parameter, index, is field)``
    of every parameter with a default of every ``def`` in ``path`` —
    methods and ``__init__`` included, other dunders and functions nested
    in functions not — and of every defaulted field of a ``@dataclass``
    (an annotated class attribute; a ``ClassVar`` or an unannotated one
    is a constant).  A call reaches the function through ``called name``
    (an ``__init__`` and a dataclass field through the class name);
    ``index`` is the parameter's position (``None`` for keyword-only),
    counted after ``self``/``cls`` for a method."""
    parts = path.relative_to(root).with_suffix("").parts
    module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)
                              and "ClassVar" not in ast.unparse(s.annotation)]
                    found.extend(
                        (f"{module}.{prefix}{child.name}({s.target.id}=)",
                         child.name, s.target.id, i, True)
                        for i, s in enumerate(fields) if s.value is not None)
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if (name.startswith("__") and name.endswith("__")
                        and name != "__init__"):
                    continue
                args = child.args
                positional = args.posonlyargs + args.args
                bound = in_class is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                first = len(positional) - len(args.defaults)
                indexed = [(arg, i - bound) for i, arg in
                           enumerate(positional[first:], first)]
                indexed += [(arg, None) for arg, default in
                            zip(args.kwonlyargs, args.kw_defaults)
                            if default is not None]
                called = in_class if name == "__init__" else name
                found.extend((f"{module}.{prefix}{name}({arg.arg}=)", called,
                              arg.arg, index, False)
                             for arg, index in indexed)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(path.read_text()), "", None)
    return found


def passes(path):
    """``(called name, keywords, positional count, splat)`` of every
    call in ``path``.  ``called name`` is the bare name or attribute
    called; ``super().__init__(...)`` calls the enclosing class's bases.
    A ``*``/``**`` argument is a splat — except inside an ``unpack_*``
    function, whose splat only rebuilds what its ``pack_*`` twin read."""

    def visit(node, bases, rebuild):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, [b.id for b in child.bases
                                         if isinstance(b, ast.Name)], rebuild)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, bases,
                                 child.name.startswith("unpack_"))
                continue
            yield from visit(child, bases, rebuild)
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Name):
                names = [func.id]
            elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
                  and isinstance(func.value, ast.Call)
                  and isinstance(func.value.func, ast.Name)
                  and func.value.func.id == "super"):
                names = bases
            elif isinstance(func, ast.Attribute):
                names = [func.attr]
            else:
                continue
            splat = not rebuild and (
                any(isinstance(a, ast.Starred) for a in child.args)
                or any(k.arg is None for k in child.keywords))
            keywords = {k.arg for k in child.keywords if k.arg}
            for name in names:
                yield name, keywords, len(child.args), splat

    yield from visit(ast.parse(path.read_text()), [], False)


#: methods that change the container they are called on.
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
            "remove", "setdefault", "sort", "update"}


def stores(path):
    """``(receiver, attribute, class)`` of every attribute ``path``
    assigns (``ray.heights = ...``, ``result.n_splits += 1``,
    ``x.table[k] = ...``) or mutates (``pragma.used.add(...)``).
    ``receiver`` is the last name of the object written to (``report``
    in ``self.report.splits``), ``class`` the class whose method holds
    the store (``None`` outside one)."""

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
                continue
            yield from visit(child, in_class)
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr in MUTATORS):
                targets = [child.func.value]
            else:
                continue
            for target in targets:
                for attr in written(target):
                    owner = attr.value
                    receiver = (owner.id if isinstance(owner, ast.Name)
                                else getattr(owner, "attr", ""))
                    yield receiver, attr.attr, in_class

    yield from visit(ast.parse(path.read_text()), None)


def written(target):
    """The attributes an assignment target (or a mutated object) writes:
    ``a.x`` itself, ``a.x`` of ``a.x[k]``, each of a tuple's."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from written(elt)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from written(target.value)
    elif isinstance(target, ast.Attribute):
        yield target


def unpassed_options(src, callers):
    """Qualified names (``module.function(param=)``, ``module.Class(field=)``)
    of the defaulted parameters and dataclass fields of every module
    under ``src`` that no call under ``src`` or ``callers`` passes: by
    keyword, by position or through a splat, to a function of the
    parameter's function's name (for ``__init__`` and a field, the class
    name, or ``super().__init__`` in a subclass).  A recursive call
    counts: recursion state is not an option.  Nor is a field that
    ``src`` assigns or mutates: that is state.  The walk has no types,
    so a store belongs to class ``C`` when a method of ``C`` makes it or
    its receiver's name ends ``C``'s (``ray`` for ``Ray``, ``result``
    for ``DecompositionResult``)."""
    options, calls, stored = [], {}, []
    for path in sorted(src.rglob("*.py")):
        options += option_definitions(path, src.parent)
        stored += stores(path)
    for top in (src, *callers):
        for path in sorted(top.rglob("*.py")):
            for name, keywords, n_positional, splat in passes(path):
                calls.setdefault(name, []).append(
                    (keywords, n_positional, splat))

    def is_state(cls, field):
        return any(attr == field and (
            in_class == cls
            or receiver and cls.lower().endswith(receiver.lower()))
            for receiver, attr, in_class in stored)

    return {qual for qual, called, param, index, is_field in options
            if not any(splat or param in keywords
                       or (index is not None and index < n_positional)
                       for keywords, n_positional, splat
                       in calls.get(called, ()))
            and not (is_field and is_state(called, param))}


def check_options(unpassed, allowed):
    extra = sorted(unpassed - set(allowed))
    assert not extra, "set by tests/ alone, or by nobody:\n" + "\n".join(extra)
    stale = sorted(set(allowed) - unpassed)
    assert not stale, "passed, or gone:\n" + "\n".join(stale)
    assert len(allowed) <= 4
    assert all(allowed.values())


def test_every_option_has_a_caller_outside_tests():
    check_options(unpassed_options(SRC / "repro", [REPO / "benchmarks",
                                                   REPO / "examples"]),
                  OPTIONS_FOR_A_REASON)


SYNTHETIC_MODULE = '''
def unpassed(a, b=1):
    return a

def by_keyword(a, b=1):
    return a

def by_position(a, b=1):
    return a

def by_splat(a, *, b=1):
    return a

def by_star(a, b=1):
    return a

def recursive(a, depth=3):
    return recursive(a, depth - 1) if depth else a

class Base:
    def __init__(self, size=0):
        self.size = size

class Child(Base):
    def __init__(self):
        super().__init__(4)
'''

SYNTHETIC_CALLER = '''
from pkg.mod import (by_keyword, by_position, by_splat, by_star, recursive,
                     unpassed)

unpassed(1)
by_keyword(1, b=2)
by_position(1, 2)
by_splat(1, **{"b": 2})
by_star(*[1, 2])
recursive(1)
'''


def test_option_walk_positive_control(tmp_path):
    """The walk on a small tree: a keyword, a positional, a ``*`` and a
    ``**`` splat, a recursive and a ``super().__init__`` pass each count,
    so exactly
    the one unpassed default is named; the allowlist check fails on a
    stale entry and on a fifth one."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(SYNTHETIC_MODULE)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "use.py").write_text(SYNTHETIC_CALLER)
    unpassed = unpassed_options(tmp_path / "src" / "pkg",
                                [tmp_path / "scripts"])
    assert unpassed == {"pkg.mod.unpassed(b=)"}

    reason = {"pkg.mod.unpassed(b=)": "a reason"}
    check_options(unpassed, reason)
    with pytest.raises(AssertionError, match="set by tests/ alone"):
        check_options(unpassed, {})
    with pytest.raises(AssertionError, match="passed, or gone"):
        check_options(unpassed, {**reason, "pkg.mod.by_keyword(b=)": "x"})
    assert len(OPTIONS_FOR_A_REASON) <= 4
    five = {f"pkg.mod.f{i}(b=)": "a reason" for i in range(5)}
    with pytest.raises(AssertionError):
        check_options(set(five), five)
    check_options(set(five) - {"pkg.mod.f4(b=)"},
                  {k: v for k, v in five.items() if k != "pkg.mod.f4(b=)"})


SYNTHETIC_FIELDS = '''
from dataclasses import dataclass, field
from typing import ClassVar

@dataclass
class Config:
    size: int
    by_position: float = 1.0
    by_keyword: float = 1.0
    unpassed: float = 1.0
    state: list = field(default_factory=list)
    counter: int = 0
    rebuilt: float = 1.0
    constant = 2.0
    pinned: ClassVar[float] = 3.0

    def bump(self):
        self.counter += 1

class Sizing:
    def __init__(self, unpassed):
        self.unpassed = unpassed

def fill(config):
    config.state.append(1)

def unpack_config(values):
    return Config(**values)
'''

SYNTHETIC_CONSTRUCTION = '''
from pkg.fields import Config

Config(1, 2.0, by_keyword=3.0)
'''


def test_field_walk_positive_control(tmp_path):
    """Dataclass fields on a small tree: a field passed by position or
    by keyword is not named, nor one a method or a function mutates
    (state); an unpassed field is, even where another class's ``self``
    stores an attribute of its name, and so is one only an
    ``unpack_*`` splat rebuilds.  Unannotated and ``ClassVar`` class
    attributes are constants, not fields."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "fields.py").write_text(SYNTHETIC_FIELDS)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "use.py").write_text(SYNTHETIC_CONSTRUCTION)
    assert unpassed_options(tmp_path / "src" / "pkg",
                            [tmp_path / "scripts"]) == {
        "pkg.fields.Config(unpassed=)", "pkg.fields.Config(rebuilt=)"}


PACKAGES = {
    "repro.solver": ("solve_potential_flow", "flow", 21),
    "repro.runtime": ("ServiceClient", "client", 22),
    "repro.lint": ("ALL_RULES", "rules", 4),
}


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_lazy_package_keeps_its_public_surface(package):
    name, submodule, n_public = PACKAGES[package]
    pkg = importlib.import_module(package)
    assert len(pkg.__all__) == n_public == len(set(pkg.__all__))
    assert set(pkg.__all__) <= set(dir(pkg))
    assert submodule in dir(pkg)
    # ``from package import name`` and ``import *`` resolve every name,
    # to the object its submodule defines.
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    defining = importlib.import_module(f"{package}.{submodule}")
    assert getattr(pkg, name) is getattr(defining, name)
    assert isinstance(getattr(pkg, submodule), types.ModuleType)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        pkg.nonesuch
