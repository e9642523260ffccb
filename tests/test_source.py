import ast
import os

import divlat


def test_no_assert_statement_in_the_library():
    """Guarantees must hold under python -O, which strips assert
    statements, so the library raises explicitly instead."""
    package = os.path.dirname(os.path.abspath(divlat.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
