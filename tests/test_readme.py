"""The README's library example runs as written against the package, and
every public library function is used by the package or by that example."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "eccmat"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert "tree-inertia True" in lines
    assert not any(ln.endswith(" False") for ln in lines)


def _public_definitions(tree: ast.Module):
    """Public top-level functions and classes, and the public methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_library_function_exists_only_for_tests():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in modules.values() for name in _references(tree)}
    used.update(_references(ast.parse(_library_block())))
    unused = [
        f"{module}:{qualname}"
        for module, tree in modules.items()
        for qualname in _public_definitions(tree)
        if qualname.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []
