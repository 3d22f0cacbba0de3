"""Rules the library's source keeps (checked by parsing, not by running
it): the spaces and the estimator refuse with typed errors, never a bare
``ValueError``, and nothing dispatches with ``isinstance`` on a space
class (a space says what it is by its ``kind``)."""

import ast
from pathlib import Path

import frechetstats
from frechetstats.geometry import Space

PACKAGE = Path(frechetstats.__file__).resolve().parent
SPACE_CLASSES = {Space.__name__} | {
    name for name, value in vars(frechetstats).items()
    if isinstance(value, type) and issubclass(value, Space)
}


def _nodes(sources):
    """(file relative to the package, node) of every AST node of ``sources``."""
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            yield str(source.relative_to(PACKAGE)), node


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_bare_value_error_is_raised_by_a_space_or_the_estimator():
    sources = sorted(PACKAGE.joinpath("spaces").glob("*.py")) + [PACKAGE / "estimator.py"]
    raised = [
        (path, node.lineno)
        for path, node in _nodes(sources)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "ValueError"
    ]
    assert raised == []


def test_nothing_dispatches_with_isinstance_on_a_space_class():
    checked = []
    for path, node in _nodes(sorted(PACKAGE.rglob("*.py"))):
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance" and len(node.args) == 2:
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            checked += [(path, node.lineno, _name(c)) for c in classes if _name(c) in SPACE_CLASSES]
    assert checked == []
