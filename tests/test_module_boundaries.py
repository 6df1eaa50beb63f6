"""Module boundaries: the private names one package module reads from another.

A leading underscore marks a name as its module's own.  The reads across
modules that remain are pinned here, so a new one fails until it is made
public or pinned on purpose.
"""

import ast

from helpers import SRC

PACKAGE = SRC / "smodquiver"

# (reading module, home module, private name)
PINNED = {("catalog", "weights", "_sub"),
          ("reference", "linalg", "_op_of_rows"),
          ("reference", "weights", "_add"),
          ("reference", "weights", "_embed"),
          ("reference", "weights", "_join"),
          ("reference", "weights", "_sub")}


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
