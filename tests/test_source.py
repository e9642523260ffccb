import ast
import os
import subprocess
import sys

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


def test_no_exec_outside_the_record_mechanism():
    """Code is generated in one place only: _record compiles each record
    class's methods."""
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval")
                  and name != "_record.py"]
    assert found == []


def test_the_cli_imports_no_code_generator():
    """A fresh interpreter importing divlat.cli loads neither dataclasses,
    inspect nor typing, whose import and per-class code generation took
    most of a CLI call's start-up.  The guard counts modules, so it gives
    the same answer on every run; -S keeps site's own imports out."""
    code = "import divlat.cli, sys; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


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


# The public names that stay although no library code names them, by reason.
# The set is exact: a name that gains a library caller leaves it.
KEPT_WITHOUT_A_LIBRARY_CALLER = {
    # divlat's public API, exported from divlat/__init__; perfbench/tracer.py
    # also reports their calls (FUNCTIONS), where a missing one reads 0
    "classify.finite_order", "classify.is_semisimple", "classify.jordan_chevalley",
    "classify.roots_of_unity_spectrum", "divisibility.impossibility_certificates",
    "divisibility.zero_plus_finite_order", "fitting.clean_split",
    # the analysis reads chi with its Krylov orbit (exactalg._chi_and_orbit)
    "exactalg.char_poly",
    # perfbench/tracer.py wraps its METHODS by name, so a traced benchmark
    # run fails without them; the ring determinant is also what a module
    # certificate stronger than its norm needs (ROADMAP.md, module
    # certificates), and tests/test_fitting.py cross-checks the split with it
    "exactalg.QMatrix.inverse", "numberring.OKModule.det_as_ring_element",
    # the benchmark's workloads build their modules with it
    "numberring.OKModule.regular",
    # divlat's public constructor of one coprime root, exported from
    # divlat/__init__ and traced by perfbench/tracer.py; the corpus builds
    # both witnesses of a problem off one analysis with _coprime_roots
    "divisibility.coprime_root",
    # the console script of pyproject.toml
    "cli.run",
    # the exact s-th power test in O_K that a ring-determinant certificate
    # needs (ROADMAP.md, module certificates)
    "numberring.QuadraticOrder.conj", "numberring.QuadraticOrder.pow", "numberring.unit_s_divisible",
}


def _public_definitions(module, tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                        yield f"{module}.{node.name}.{meth.name}", meth


def _module_aliases(tree):
    """The names a module binds to imported modules: import m [as a] and
    from . import m [as a]."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.level and not node.module
            for alias in node.names}


def test_no_public_name_only_tests_use():
    """Code that only tests call belongs in tests/, as an oracle or an input
    builder.  Every public name of the library modules (divlat/__init__
    only re-exports) occurs somewhere in them, outside its own definition:
    a method as an Attribute, a top-level function or class as a Name or an
    Attribute read off a module (corpus_mod.gen_corpus), so a local
    variable or a builtin of a method's name does not count, and a method
    of a top-level function's name does not keep the function.  A Name
    counts only where it is read: a definition, such as a record field
    finite_order: int | None, is no use of classify.finite_order.  The check
    goes by name: a use of another object of the same name counts."""
    trees = [(name, tree) for name, tree in _trees() if name != "__init__.py"]
    names, attributes, module_attributes = {}, {}, {}
    for name, tree in trees:
        modules = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append((name, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((name, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    module_attributes.setdefault(node.attr, []).append((name, node.lineno))
    unused = set()
    for name, tree in trees:
        for qualified, node in _public_definitions(name[:-3], tree):
            if qualified.count(".") == 1:  # a top-level function or class
                uses = module_attributes.get(node.name, []) + names.get(node.name, [])
            else:
                uses = attributes.get(node.name, [])
            if all(where == name and node.lineno <= line <= node.end_lineno for where, line in uses):
                unused.add(qualified)
    assert unused == KEPT_WITHOUT_A_LIBRARY_CALLER
