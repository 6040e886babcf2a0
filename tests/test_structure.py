"""Module-stack rules of `src/iwasawalab`, checked on the syntax tree:

- no `assert` statement, since `python -O` strips it from a check;
- no `import` inside a function body, the usual way round an import cycle;
- no call to `__import__`;
- no private name taken from a sibling module by `from .x import _name`.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawalab"
MODULES = sorted(SRC.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in MODULES]


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _where(name, node):
    return "%s:%d" % (name, node.lineno)


def test_modules_found():
    assert len(MODULES) >= 10


def test_no_assert_statement():
    found = [_where(name, node) for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_import_inside_a_function():
    found = sorted({_where(name, node) for name, tree in _trees()
                    for fn in _functions(tree) for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert found == []


def test_no_dunder_import_call():
    found = [_where(name, node) for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "__import__"]
    assert found == []


def test_no_private_name_from_a_sibling_module():
    found = ["%s %s" % (_where(name, node), alias.name)
             for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


@pytest.mark.parametrize("source,check", [
    ("def f(x):\n    assert x\n", test_no_assert_statement),
    ("def f():\n    from .rayclass import ray_class_group\n",
     test_no_import_inside_a_function),
    ("m = __import__('iwasawalab.padic')\n", test_no_dunder_import_call),
    ("from .quadfield import _residue_char\n",
     test_no_private_name_from_a_sibling_module),
])
def test_each_check_catches_its_rule(source, check, tmp_path, monkeypatch):
    module = tmp_path / "bad.py"
    module.write_text(source)
    monkeypatch.setattr(sys.modules[__name__], "MODULES", [module])
    with pytest.raises(AssertionError):
        check()
