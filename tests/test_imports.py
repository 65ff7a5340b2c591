"""Every imported name is read somewhere in its module, and the library
checks its invariants with named errors, which ``python -O`` keeps."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "dccl").glob("*.py"))
MODULES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    keep = read | _exported(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in keep]


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os\nos.sep\n"
    assert unused_imports(source) == ["line 2: json"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_never_reads():
    assert MODULES
    found = {
        str(path.relative_to(ROOT)): unused
        for path in MODULES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_no_library_module_uses_a_bare_assert():
    assert LIBRARY
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
