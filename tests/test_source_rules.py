"""Rules the library's source keeps (checked by parsing, not by running
it): the spaces, the estimator, inference, the fiber pipeline and the
Monte Carlo experiments refuse with typed errors, never a bare
``ValueError``; nothing dispatches with ``isinstance`` on a space class (a
space says what it is by its ``kind``); and only ``quadratic_forms`` and
``stacked_sandwich`` invert a covariance with ``guarded_inverse``, so every
region and test statistic is formed by the one kernel."""

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
    sources = sorted(PACKAGE.joinpath("spaces").glob("*.py"))
    sources += [PACKAGE / name
                for name in ("estimator.py", "fiber.py", "inference.py", "simulate.py")]
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


def _callers(node, name, scope="<module>"):
    """The innermost function (or ``<module>``) around each call of ``name``
    in the tree under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _callers(child, name, child.name)
            continue
        if isinstance(child, ast.Call) and _name(child.func) == name:
            yield scope
        yield from _callers(child, name, scope)


def test_only_the_quadratic_form_kernel_and_the_sandwich_invert_a_covariance():
    callers = sorted(
        (str(source.relative_to(PACKAGE)), caller)
        for source in sorted(PACKAGE.rglob("*.py"))
        for caller in _callers(ast.parse(source.read_text(), filename=str(source)),
                               "guarded_inverse")
    )
    assert callers == [("estimator.py", "stacked_sandwich"), ("inference.py", "quadratic_forms")]
