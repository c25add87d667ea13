"""Every module-level import of the package and of its tests has a use in
its module, and every module-level private function a reader in the
package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import lrcdec

MODULES = sorted(Path(lrcdec.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS]
)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(path.read_text()) == []


def _reads(tree) -> Counter:
    """How often each name is read in tree, as a Name or an Attribute."""
    return Counter(getattr(node, "id", None) or getattr(node, "attr", None)
                   for node in ast.walk(tree))


def _uncalled_private_functions(sources: dict[str, str]) -> list[str]:
    """The module-level `def _name` of sources (module name -> text) that no
    module reads, as a Name or an Attribute, outside that definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum(map(_reads, trees.values()), Counter())
    return [f"{module}.{fdef.name}" for module, tree in trees.items() for fdef in tree.body
            if isinstance(fdef, ast.FunctionDef) and fdef.name.startswith("_")
            and not fdef.name.startswith("__")
            and everywhere[fdef.name] == _reads(fdef)[fdef.name]]


def test_the_check_sees_an_uncalled_private_function():
    sources = {
        "a": "def _used(): pass\ndef _self(): return _self()\ndef _dead(): pass\n"
             "def f(x=_used): return x\n",
        "b": "from a import _dead as dead\ndef _via_attribute(): pass\n"
             "@dataclass\nclass C:\n    y: list = field(default_factory=_via_attribute)\n"
             "def _by_attr(): pass\ng = a._by_attr\n",
    }
    assert _uncalled_private_functions(sources) == ["a._self", "a._dead"]


def test_every_private_function_has_a_caller():
    assert _uncalled_private_functions({p.stem: p.read_text() for p in MODULES}) == []
