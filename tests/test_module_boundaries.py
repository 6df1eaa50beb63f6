"""Module boundaries: the private names one package module reads from
another, and the shared kernel's names.

A leading underscore marks a name as its module's own.  The reads across
modules that remain are pinned here, so a new one fails until it is made
public or pinned on purpose.  `linalg` is the kernel both levels share, so
every public name it defines is imported by a module of each level.
"""

import ast

from helpers import SRC

PACKAGE = SRC / "smodquiver"

# (reading module, home module, private name)
PINNED = {("catalog", "weights", "_sub"),
          ("reference", "weights", "_add"),
          ("reference", "weights", "_embed"),
          ("reference", "weights", "_join"),
          ("reference", "weights", "_sub")}


# the modules of each level that may import the shared kernel
SPEC_LEVEL = ("pathalg",)
TABLE_LEVEL = ("tables", "tkk")


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(path):
    """(home module, name) for each private name the module at `path` reads
    from another package module: imported by name, or read as an attribute
    of a package module it imports.  Package modules import each other
    relatively (`from . import m`, `from .m import name`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}        # local name -> package module
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.add((modules[node.value.id], node.attr))
    return {(home, name) for home, name in reads if home != path.stem}


def test_cross_module_private_names_are_pinned():
    found = {(path.stem, home, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for home, name in private_reads(path)}
    assert found == PINNED


def test_private_reads_sees_both_forms(tmp_path):
    # the walker itself: an imported private name, a private attribute of
    # an imported module, and neither a dunder nor a module's own name
    src = tmp_path / "quiver.py"
    src.write_text("from . import catalog, jordan\n"
                   "from .weights import _sub, add\n"
                   "from .quiver import _own\n"
                   "def f(d):\n"
                   "    from . import linalg as L\n"
                   "    return jordan._entry_parity(d), L._rows, "
                   "catalog.__name__, d._kinds\n", encoding="utf-8")
    assert private_reads(src) == {("weights", "_sub"),
                                  ("jordan", "_entry_parity"),
                                  ("linalg", "_rows")}


def defined_names(path):
    """The public names the module at `path` defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def imported_names(path, home):
    """The names the module at `path` imports from package module `home`."""
    return {alias.name for node in ast.walk(ast.parse(
                path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == home for alias in node.names}


def test_shared_kernel_defines_only_names_both_levels_import():
    defined = defined_names(PACKAGE / "linalg.py")
    assert {"exact", "Echelon"} <= defined
    for level in (SPEC_LEVEL, TABLE_LEVEL):
        used = set().union(*(imported_names(PACKAGE / f"{m}.py", "linalg")
                             for m in level))
        assert defined <= used, (level, sorted(defined - used))
