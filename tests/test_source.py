import ast
import os

import divlat

PACKAGE = os.path.dirname(os.path.abspath(divlat.__file__))


def _trees():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_no_assert_statement_in_the_library():
    """Guarantees must hold under python -O, which strips assert
    statements, so the library raises explicitly instead."""
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_module_level_imports_are_acyclic():
    """The relative imports at module level form an acyclic graph.  A cycle
    need not fail at runtime: divlat/__init__ fixes one import order, under
    which a module may find its partner already loaded.  fitting reads the
    analysis in classify, never the other way round.  Leaves, modules
    importing no remaining module, are removed until none is left; what
    stays lies on or behind a cycle."""
    graph = {}
    for name, tree in _trees():
        graph[name[:-3]] = {dep for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                            for dep in ([node.module] if node.module else [a.name for a in node.names])}
    assert "classify" in graph["fitting"] and "fitting" not in graph["classify"]
    while leaves := {name for name, deps in graph.items() if not deps}:
        graph = {name: deps - leaves for name, deps in graph.items() if name not in leaves}
    assert graph == {}
