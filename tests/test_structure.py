"""Every per-group choice lives in groups.py: no other module of the
package may compare a group's name with a string literal."""

import ast
from pathlib import Path

import amalgams

PACKAGE = Path(amalgams.__file__).parent


def _name_literal_comparisons(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = any(isinstance(o, ast.Attribute) and o.attr == "name" for o in operands)
        literal = any(isinstance(o, ast.Constant) and isinstance(o.value, str) for o in operands)
        if names and literal:
            lines.append(node.lineno)
    return lines


def test_detector_flags_a_name_branch():
    assert _name_literal_comparisons(ast.parse('if g.name == "heisenberg": pass')) == [1]
    assert _name_literal_comparisons(ast.parse('ok = "real-line" != f.group.name')) == [1]
    assert _name_literal_comparisons(ast.parse("same = f.group.name == g.name")) == []


def test_no_group_name_branches_outside_groups():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "groups.py":
            continue
        lines = _name_literal_comparisons(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert not offenders, f"group-name comparisons outside groups.py: {offenders}"
