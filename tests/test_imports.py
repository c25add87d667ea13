"""Every module-level import of the package has a use in its module."""

import ast
from pathlib import Path

import pytest

import lrcdec

MODULES = sorted(Path(lrcdec.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (also under a top-level if) that
    the module never reads, lists in __all__ or names in a string annotation."""
    tree = ast.parse(source)
    imports = [node for top in tree.body
               for node in [top, *(top.body if isinstance(top, ast.If) else [])]
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = [alias.asname or alias.name.split(".")[0]
             for node in imports if getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nimport math\n"
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from x import F, G\n"
        "__all__ = ['h']\nfrom y import h\n"
        "def f(a: 'F') -> int:\n    return math.pi\n"
    )
    assert _unused_imports(source) == ["os", "G"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(path.read_text()) == []
