"""The demos run: each ``demos/*.py`` runs in-process to its end without an
exception or a warning and prints its report (values, not a Sample's
repr), and uses only names that the package exports (each ``fs.<name>``
must exist on ``frechetstats``)."""

import ast
import runpy
import warnings
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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_a_demo_runs_to_its_end_without_a_warning(demo, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    # a report prints values, not the repr of a library Sample
    assert out.strip() and "Sample(" not in out
