"""The demos use only names that the package exports: each ``fs.<name>``
in ``demos/*.py`` must exist on ``frechetstats`` (checked by parsing, not
by running them)."""

import ast
from pathlib import Path

import pytest

import frechetstats

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_a_demo_uses_only_exported_names(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fs"
    }
    assert sorted(name for name in used if not hasattr(frechetstats, name)) == []
