"""Every public name serves a driver, a demo or the benchmark."""

import ast
from pathlib import Path

import repeller_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = [p for p in (ROOT / "src" / "repeller_lab").glob("*.py") if p.name != "__init__.py"]
USERS = [*PACKAGE, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

# class members that nothing outside the tests reads, with why they stay
KEPT_UNREAD = {
    ("PhiProfile", "stretch"): "notes/decisions.md's reproduce snippet calls it, "
                               "and the tests check stretch_bound against it",
}


def names_used(path):
    """Names and attributes that a source file reads.

    Only loads count: a name that a file merely defines, assigns or
    imports is not a use.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def members_read(path):
    """Member names that a source file reads: attribute loads, keyword
    argument names and string constants (as ``getattr`` reads them)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            used.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def public_members(path):
    """``(class, name)`` of each public method and attribute that a file's
    classes define: in the class body, or assigned to ``self.name``."""
    found = set()
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                found.add((cls.name, item.name))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.add((cls.name, item.target.id))
            elif isinstance(item, ast.Assign):
                found.update((cls.name, t.id) for t in item.targets if isinstance(t, ast.Name))
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self":
                found.add((cls.name, node.attr))
    return {(c, n) for c, n in found if not n.startswith("_")}


def test_every_public_name_is_used_outside_the_tests():
    used = set().union(*map(names_used, USERS))
    assert sorted(set(repeller_lab.__all__) - used) == []


def test_every_public_member_is_read_outside_the_tests():
    read = set().union(*map(members_read, USERS))
    unread = {m for m in set().union(*map(public_members, PACKAGE)) if m[1] not in read}
    assert sorted(unread - KEPT_UNREAD.keys()) == []
    assert sorted(KEPT_UNREAD.keys() - unread) == []
