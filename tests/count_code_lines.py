"""Count the code lines of a package's modules, located by the ast module:
every line that is not blank, not a comment and not inside a docstring (the
string a module, class or function body opens with).  Prints one count per
module and the total; it enforces no threshold.

    python tests/count_code_lines.py src/divlat
"""
import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)


def main(directory: str) -> None:
    total = 0
    for path in sorted(Path(directory).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/divlat")
