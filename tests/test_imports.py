"""Import hygiene of the package modules, checked with ``ast``.

Every module-level imported name must be used in its module, and no module
may import another module's private (``_``-prefixed) names or read a private
attribute that it does not define itself.  The package ``__init__`` is
exempt: it re-exports names it never uses itself.  No module uses an
``assert`` statement, which ``python -O`` strips.  Every module-level
function and class is named somewhere in the repository's code besides its
own definition and that re-export, and every one outside ``eliq.__all__``
by the library's own code, its demos, benchmark or scripts.  The package
docstring names every submodule that a re-export shadows.
"""

import ast
import inspect
import pkgutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eliq"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _module_imports(tree: ast.Module):
    """(bound name, imported name, line, relative?) of every top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.lineno, node.level > 0


def _annotations(tree: ast.Module):
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = n.args.posonlyargs + n.args.args + n.args.kwonlyargs
            args += [a for a in (n.args.vararg, n.args.kwarg) if a is not None]
            yield from (a.annotation for a in args if a.annotation is not None)
            if n.returns is not None:
                yield n.returns
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Names inside string annotations, e.g. ``-> "ABox"``.
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval")) if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {bound}" for bound, _, line, _ in _module_imports(tree) if bound not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_relative_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "__version__"
    ]
    assert not private, "private names imported across modules: " + ", ".join(private)


def _defined_names(tree: ast.Module) -> set[str]:
    """Every name the module defines: its functions, classes and methods,
    the names it assigns and the attributes it assigns."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            out.add(n.attr)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_attributes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = _defined_names(tree)
    foreign = [
        f"{path.name}:{n.lineno} .{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and n.attr.startswith("_") and not n.attr.startswith("__") and n.attr not in defined
    ]
    assert not foreign, "private attributes defined in another module: " + ", ".join(foreign)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    asserts = [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not asserts, "assert statements vanish under python -O: " + ", ".join(asserts)


ROOT = SRC.parent.parent
USER_DIRS = ("src", "tests", "demos", "perfbench", "scripts")


def _named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, imports or reads as an attribute, outside
    the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(n))
    return out


def _unnamed(dirs: tuple[str, ...], exempt: set[str]) -> list[str]:
    """The module-level functions and classes of ``src/eliq/`` that no code
    under ``dirs`` names, other than their own definitions and the package's
    re-export, and that are not in ``exempt``."""
    trees = {
        p: ast.parse(p.read_text(), filename=str(p))
        for d in dirs
        for p in sorted((ROOT / d).rglob("*.py"))
        if p != SRC / "__init__.py"
    }
    named = {p: _named(t) for p, t in trees.items()}
    unnamed = []
    for path in MODULES:
        elsewhere = set().union(*(names for p, names in named.items() if p != path))
        for node in trees[path].body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in exempt
                and node.name not in elsewhere
                and node.name not in _named(trees[path], skip=node)
            ):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    return unnamed


def test_every_module_level_definition_is_named_elsewhere():
    """A function or class that nothing names but its own definition and the
    package's re-export is dead code."""
    unnamed = _unnamed(USER_DIRS, set())
    assert not unnamed, "named nowhere but in their definition: " + ", ".join(unnamed)


def test_every_private_module_level_definition_serves_the_library():
    """A function or class outside ``eliq.__all__`` that only tests name
    belongs in ``tests/``.  ``gen.py`` is exempt: it is the random-instance
    generator that the tests and the benchmark share."""
    import eliq

    library_users = ("src", "demos", "perfbench", "scripts")
    test_only = [n for n in _unnamed(library_users, set(eliq.__all__)) if not n.startswith("gen.py:")]
    assert not test_only, "named only by tests; move them to tests/: " + ", ".join(test_only)


def test_package_docstring_names_every_shadowed_submodule():
    """A re-export named like its submodule hides the module from
    ``import eliq.<name> as m``; the docstring warns of each one."""
    import eliq

    shadowed = [
        m.name for m in pkgutil.iter_modules(eliq.__path__)
        if m.name in vars(eliq) and not inspect.ismodule(vars(eliq)[m.name])
    ]
    assert shadowed
    unnamed = [name for name in shadowed if f"``{name}``" not in eliq.__doc__]
    assert not unnamed, "shadowed submodules the package docstring does not name: " + ", ".join(unnamed)
