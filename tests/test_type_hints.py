"""Every annotation in ``src/repro`` names something that exists:
``typing.get_type_hints`` resolves the hints of every function and
method.  Under ``from __future__ import annotations`` a misspelt or
unimported name in a hint is a string nobody evaluates until a tool
(or ``dataclasses``, ``inspect``, a type checker) asks for it."""

import importlib
import inspect
import pkgutil
import typing

import repro


def _own_functions(owner, module, prefix):
    """``(qualified name, function)`` of every function defined in
    ``module`` under ``owner`` (a module or a class), nested classes,
    static/class methods and property accessors included."""
    for name, obj in sorted(vars(owner).items()):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            accessors = [f for f in (obj.fget, obj.fset, obj.fdel) if f]
        else:
            accessors = [obj]
        for fn in accessors:
            if getattr(fn, "__module__", None) != module:
                continue
            if inspect.isfunction(fn):
                yield f"{prefix}{name}", fn
            elif inspect.isclass(fn) and fn.__qualname__.endswith(name):
                yield from _own_functions(fn, module, f"{prefix}{name}.")


def all_functions():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        yield from _own_functions(module, info.name, f"{info.name}.")


def test_every_hint_in_src_resolves():
    found = dict(all_functions())
    failures = []
    for qualname, fn in found.items():
        try:
            typing.get_type_hints(fn)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert len(found) > 700  # the walk reached the whole package
    assert not failures, "\n".join(failures)
