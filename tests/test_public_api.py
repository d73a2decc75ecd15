"""Every public name serves a driver, a demo or the benchmark."""

import ast
import re
from pathlib import Path

import repeller_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = [p for p in (ROOT / "src" / "repeller_lab").glob("*.py") if p.name != "__init__.py"]
USERS = [*PACKAGE, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
NOTES = ROOT / "notes" / "decisions.md"

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
    """Member names that a source file reads.

    An attribute load is a read.  A string constant is a read only where
    it can name a member: as a positional call argument (``getattr(x,
    "name")``, ``View.stamped("name")``) or as an element of a tuple,
    list or set literal (column tuples, ``for name in ("a", "b")``).  A
    keyword argument's name is not a read: it names a parameter, so a
    field that is only set at construction does not count as read.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.Call):
            used.update(_strings(node.args))
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            used.update(_strings(node.elts))
    return used


def _strings(nodes):
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


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
    """Each public class member is read, as ``members_read`` counts reads,
    by the package, a demo or the benchmark, or is kept in KEPT_UNREAD
    with its reason."""
    read = set().union(*map(members_read, USERS))
    unread = {m for m in set().union(*map(public_members, PACKAGE)) if m[1] not in read}
    assert sorted(unread - KEPT_UNREAD.keys()) == []
    assert sorted(KEPT_UNREAD.keys() - unread) == []


def test_no_library_call_writes_to_an_object_it_was_handed():
    """Outside the drivers, attributes are stored or deleted only on
    ``self``: a library function returns what it finds and does not set
    it on a model or another argument.  The drivers ``sweeps`` and
    ``cli`` may keep their own accumulators (``tally.cells``)."""
    writes = []
    for path in PACKAGE:
        if path.name in ("sweeps.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                writes.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert writes == []


def test_decision_notes_reproduce_what_they_say(capsys):
    """Each ``Reproduce`` block of notes/decisions.md prints the numbers
    its prose states, with the package as it is now."""
    text = NOTES.read_text()
    blocks = re.findall(r"### Reproduce\n\n```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(NOTES), "exec"), {"__name__": "decisions"})
    assert capsys.readouterr().out.splitlines() == [
        "0.05 500 (1199, 5)", "0.1 5624 (369, 4)",
        "0.06 0.1133 0.1144 0.1137", "0.1 0.1823 0.1906 0.1847",
        "mu_cross 0.04997"]
    for said in ("| 0.05 | 0.0041726 | 7 377 | 500 | l = 1199, t = 5 |",
                 "| 0.1 | 0.0108574 | 20 734 | 5 624 | l = 369, t = 4 |",
                 "Together: 6 124 failing cells",
                 "| 0.06 | 0.1133 | 0.1144 | 0.1137 |", "| 0.1 | 0.1823 | 0.1906 | 0.1847 |",
                 "**µ_cross = 0.04997**"):
        assert said in text
