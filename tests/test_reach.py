"""Every top-level function and class in src/mhdbl has a caller outside
the tests.

A caller is a name, an attribute or an imported name anywhere in another
def of the package, a demo or the benchmark, or a string in perfbench's
WRAPPED table (the benchmark wraps functions by name).  The package's
__init__.py only re-exports, so it is not read; __all__ lists are not
callers; a def's references to itself do not count.  Code that only the
tests reach is deleted rather than kept alive by its own tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# defs kept although only tests call them, each with its reason
ALLOWED = {
    # test oracle: the only check that a nonlinear far-field step satisfies
    # the (phi, psi) system at first order in dt
    "eqs2_residual",
    # the Bony split whose pieces acceptance criterion 9b reconstructs
    "paraproduct",
    # the band-multiplier convexity of products, acceptance criterion 9c
    "multiplier_convexity_check",
}


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


def _is_assign_to(stmt, name: str) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in stmt.targets)


def _module_refs(tree) -> set:
    """References made by each top-level statement, __all__ skipped."""
    out = set()
    for stmt in tree.body:
        if _is_assign_to(stmt, "__all__"):
            continue
        if _is_assign_to(stmt, "WRAPPED"):
            out.update(n.value for n in ast.walk(stmt)
                       if isinstance(n, ast.Constant)
                       and isinstance(n.value, str))
        skip = getattr(stmt, "name", None)
        out |= _names(stmt, skip)
    return out


def _scan():
    """(top-level src defs as {name: file}, every reference outside tests)."""
    src = sorted(p for p in (ROOT / "src" / "mhdbl").glob("*.py")
                 if p.name != "__init__.py")
    others = (sorted((ROOT / "demos").glob("*.py"))
              + sorted((ROOT / "perfbench").glob("*.py")))
    defs, refs = {}, set()
    for path in src + others:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs |= _module_refs(tree)
        if path in src:
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    defs[stmt.name] = path.relative_to(ROOT)
    return defs, refs


def test_every_src_def_has_a_caller_outside_tests():
    defs, refs = _scan()
    unreached = sorted(f"{path}: {name}" for name, path in defs.items()
                       if name not in refs and name not in ALLOWED)
    assert not unreached, (
        "reached only from tests (delete them with their tests, or give "
        "them a caller): " + ", ".join(unreached))


def test_allowlist_holds_only_unreached_defs():
    defs, refs = _scan()
    stale = sorted(n for n in ALLOWED if n not in defs or n in refs)
    assert not stale, f"allowlisted but gone or reached: {stale}"
