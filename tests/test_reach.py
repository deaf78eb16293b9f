"""Every top-level function and class in src/mhdbl has a caller outside
the tests, every method of a src class is named outside its own def,
every parameter with a default is passed at some call outside the tests,
and every parameter of a src def is read in its body.

A caller is a name, an attribute or an imported name anywhere in another
def of the package, a demo or the benchmark, or a string in perfbench's
WRAPPED table (the benchmark wraps functions by name).  The package's
__init__.py only re-exports, so it is not read; __all__ lists are not
callers; a def's references to itself do not count.  Code that only the
tests reach is deleted rather than kept alive by its own tests; a test
oracle lives in tests/oracles.py.  This rule has no exceptions.

A method or property counts as reached when its name appears outside its
own def, in the same sources, or in any string in perfbench (the
benchmark reads some by getattr).  Dunder methods run implicitly and are
not checked.

A parameter with a default counts as passed when some call outside the
tests of a def of that name passes it by keyword, or passes enough
positional arguments to reach it; a call with *args or **kwargs passes
whatever it could.  The scan sees only parameters with a default: a
required parameter that every call passes with one value escapes it, as
the Besov index s did, which every caller passed as 1/2 before it was
fixed there, and FarField's profile, which every caller passed as
default_x_profile before FarField took it itself.

A parameter counts as read when its name is loaded anywhere in its def's
body, nested defs included.  Every def of src is checked, methods and
nested defs too; lambdas are not.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# defaulted parameters kept although no call outside the tests passes them
ALLOWED_DEFAULTS = {
    ("theta_report", "t_split"): "acceptance criterion 5a's split at t=50",
    ("poincare_check", "ny"): "acceptance criterion 1 refines 2048 to 4096",
}

# parameters kept although their def's body never reads them
ALLOWED_UNREAD = {}


def _names(node, skip=None) -> set:
    """Names, attributes and imported names under node, less skip."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                out.update(alias.name.split("."))
    out.discard(skip)
    return out


def _strings(node) -> set:
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _is_assign_to(stmt, name: str) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in stmt.targets)


def _module_refs(tree, split_classes: bool = False) -> set:
    """References made by each top-level statement, __all__ skipped.
    With split_classes, each statement of a class body counts on its own,
    so a method's references to itself are dropped."""
    out = set()
    for stmt in tree.body:
        if _is_assign_to(stmt, "__all__"):
            continue
        if _is_assign_to(stmt, "WRAPPED"):
            out |= _strings(stmt)
        parts = [stmt]
        if split_classes and isinstance(stmt, ast.ClassDef):
            parts = stmt.body
        for part in parts:
            out |= _names(part, getattr(part, "name", None))
    return out


def _sources():
    """({path: tree} of the src modules, {path: tree} of the demos and the
    benchmark)."""
    def parse(paths):
        return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    src = sorted(p for p in (ROOT / "src" / "mhdbl").glob("*.py")
                 if p.name != "__init__.py")
    others = (sorted((ROOT / "demos").glob("*.py"))
              + sorted((ROOT / "perfbench").glob("*.py")))
    return parse(src), parse(others)


def _scan():
    """(top-level src defs as {name: file}, every reference outside tests)."""
    src, others = _sources()
    defs, refs = {}, set()
    for path, tree in {**src, **others}.items():
        refs |= _module_refs(tree)
        if path in src:
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defs[stmt.name] = path.relative_to(ROOT)
    return defs, refs


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _unnamed_methods() -> list:
    """Class.method for each non-dunder method or property of a src class
    whose name appears nowhere outside its own def."""
    src, others = _sources()
    refs = set()
    for path, tree in {**src, **others}.items():
        refs |= _module_refs(tree, split_classes=True)
        if path.parent.name == "perfbench":
            refs |= _strings(tree)
    out = []
    for tree in src.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            out += [f"{cls.name}.{m.name}" for m in cls.body
                    if _is_def(m) and not m.name.startswith("__")
                    and m.name not in refs]
    return sorted(out)


def _defaulted(tree):
    """(def name, parameter, positional index or None) for each parameter
    with a default of every def in the tree, nested ones included; a
    method's index does not count self or cls."""
    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if _is_def(child):
                a = child.args
                pos = a.posonlyargs + a.args
                if in_class and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list):
                    pos = pos[1:]
                for i, arg in enumerate(pos):
                    if i >= len(pos) - len(a.defaults):
                        yield child.name, arg.arg, i
                for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        yield child.name, arg.arg, None
            yield from visit(child, isinstance(child, ast.ClassDef))
    yield from visit(tree, False)


def _calls(trees) -> dict:
    """{callee name: [(positional count, keyword names)]} over every call
    in the trees; *args counts as any number of positionals and **kwargs
    as every keyword (None)."""
    out = {}
    for tree in trees:
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            npos = (math.inf if any(isinstance(a, ast.Starred) for a in n.args)
                    else len(n.args))
            kws = {k.arg for k in n.keywords}
            out.setdefault(name, []).append(
                (npos, None if None in kws else kws))
    return out


def _passed(calls, name, param, index) -> bool:
    return any(kws is None or param in kws
               or (index is not None and npos > index)
               for npos, kws in calls.get(name, ()))


def _scan_defaults():
    """(every defaulted src parameter as (def, param), those no call
    outside the tests passes)."""
    src, others = _sources()
    calls = _calls(list(src.values()) + list(others.values()))
    params, unpassed = set(), set()
    for tree in src.values():
        for name, param, index in _defaulted(tree):
            params.add((name, param))
            if not _passed(calls, name, param, index):
                unpassed.add((name, param))
    return params, unpassed


def _unread_params() -> set:
    """(module, def, parameter) for each parameter of a src def that its
    body never loads."""
    src, _ = _sources()
    out = set()
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not _is_def(node):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out |= {(path.stem, node.name, p.arg) for p in params
                    if p.arg not in read}
    return out


def test_every_src_def_has_a_caller_outside_tests():
    defs, refs = _scan()
    unreached = sorted(f"{path}: {name}" for name, path in defs.items()
                       if name not in refs)
    assert not unreached, (
        "reached only from tests (delete them with their tests, or give "
        "them a caller): " + ", ".join(unreached))


def test_every_src_method_is_named_outside_its_def():
    unnamed = _unnamed_methods()
    assert not unnamed, (
        "methods reached only from tests (delete them with their tests, or "
        "give them a caller): " + ", ".join(unnamed))


def test_every_default_is_passed_outside_tests():
    _, unpassed = _scan_defaults()
    left = sorted(f"{name}({param})" for name, param in unpassed
                  if (name, param) not in ALLOWED_DEFAULTS)
    assert not left, (
        "defaults that no call outside the tests overrides (make them "
        "constants, or pass them): " + ", ".join(left))


def test_every_src_parameter_is_read():
    left = sorted(f"{mod}.{name}({param})"
                  for mod, name, param in _unread_params()
                  if (name, param) not in ALLOWED_UNREAD)
    assert not left, (
        "parameters their def never reads (delete them from the def and "
        "its calls): " + ", ".join(left))


def test_allowlist_holds_only_unreached_defs():
    params, unpassed = _scan_defaults()
    stale = sorted(f"{name}({param})" for name, param in ALLOWED_DEFAULTS
                   if (name, param) not in params
                   or (name, param) not in unpassed)
    assert not stale, f"allowlisted defaults gone or passed: {stale}"
    unread = {(name, param) for _, name, param in _unread_params()}
    stale = sorted(f"{name}({param})" for name, param in ALLOWED_UNREAD
                   if (name, param) not in unread)
    assert not stale, f"allowlisted unread parameters gone or read: {stale}"
