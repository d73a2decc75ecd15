"""Every public name serves a driver, a demo or the benchmark."""

import ast
from pathlib import Path

import repeller_lab

ROOT = Path(__file__).resolve().parents[1]


def names_used(path):
    """Names, attributes and import aliases that a source file mentions."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_is_used_outside_the_tests():
    package = ROOT / "src" / "repeller_lab"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(names_used, files))
    assert sorted(set(repeller_lab.__all__) - used) == []
