"""Print the size of a package: code lines per module and settable values.

    python tools/size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/qmerge`` beside this file's directory. Each
``*.py`` file directly in it is one module, in name order. ``-h`` prints
this text; a PACKAGE_DIR that holds no module exits 2.

A code line is a physical line that is not blank, not only a comment, and
not part of a docstring (the string that opens a module, class or function
body). A settable value is a parameter with a default, a dataclass field
with a default that its constructor takes (not one declared with
``field(init=False, ...)``, which is derived), or a read of the environment
(``os.environ`` or ``os.getenv`` in a load, not an assignment).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmerge"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that are not blank, a comment or part of a docstring."""
    docs = _docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


def _name(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
               for deco in node.decorator_list)


def _is_settable_field(node: ast.stmt) -> bool:
    """A dataclass field with a default that is not ``field(init=False, ...)``."""
    if not isinstance(node, ast.AnnAssign) or node.value is None:
        return False
    call = node.value
    if isinstance(call, ast.Call) and _name(call.func) == "field":
        return not any(k.arg == "init" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in call.keywords)
    return True


def _is_environ(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def settable_values(source: str) -> int:
    """Defaulted parameters, defaulted dataclass fields the constructor
    takes, and environment reads."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(map(_is_settable_field, node.body))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            count += _is_environ(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            count += ((func.attr == "get" and _is_environ(func.value))
                      or (func.attr == "getenv" and isinstance(func.value, ast.Name)
                          and func.value.id == "os"))
    return count


def measure(package: Path) -> list[tuple[str, int, int]]:
    """(file name, code lines, settable values) for each module of ``package``."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, code_lines(source), settable_values(source)))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    package = Path(args[0]) if args else DEFAULT_PACKAGE
    rows = measure(package)
    if len(args) > 1 or not rows:
        print(f"error: expected one directory of *.py modules, got {' '.join(args)!r}",
              file=sys.stderr)
        return 2
    width = max(len("module"), *(len(name) for name, _, _ in rows))
    print(f"{'module':<{width}}  code  settable")
    for name, lines, values in rows:
        print(f"{name:<{width}}  {lines:>4}  {values:>8}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>4}  {sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
