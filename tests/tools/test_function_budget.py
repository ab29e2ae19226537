"""No function in ``src/repro`` over 80 code lines -- as a ratchet.

A code line is a line of a function that is not blank, not a comment
and not part of a docstring (its own or a nested definition's); a
nested function counts toward its parent as well.  Functions already
over the budget are listed below with their size: they may shrink,
never grow, and an entry whose function has dropped under the budget
(or is gone) must be deleted -- a stale entry fails the test, so the
list only ever gets shorter.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

BUDGET = 80

#: ``path under src/repro::qualified name`` -> code lines when listed.
OVER_BUDGET = {
    # Frozen with the rest of the StackCache cluster until the
    # benchmark stops patching it by name; then it goes as a whole.
    "core/mws.py::MwsExecutor.execute_batch_reuse": 85,
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def function_sizes(source: str) -> dict[str, int]:
    """Qualified function name -> code lines, for one module's text."""
    lines = source.splitlines()
    code = {
        number
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#")
    }
    functions: list[tuple[str, ast.AST]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and body:
            first = body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                code.difference_update(
                    range(first.lineno, first.end_lineno + 1)
                )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    functions.append((name, child))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return {
        name: sum(
            number in code
            for number in range(node.lineno, node.end_lineno + 1)
        )
        for name, node in functions
    }


def test_counts_code_not_blanks_comments_or_docstrings():
    sizes = function_sizes(
        '''
class Box:
    """Not a function."""

    def method(self, x):
        """Docstring,
        two lines."""
        # a comment

        def inner(y):
            """Nested docstring."""
            return y  # trailing comments ride a code line

        return inner(x)
'''
    )
    # def + (def + return) + return; the nested lines count twice.
    assert sizes == {"Box.method": 4, "Box.method.inner": 2}


def test_no_function_outgrows_the_budget():
    sizes = {
        f"{path.relative_to(SRC).as_posix()}::{name}": size
        for path in sorted(SRC.rglob("*.py"))
        for name, size in function_sizes(path.read_text()).items()
    }
    grown = {
        name: size
        for name, size in sizes.items()
        if size > OVER_BUDGET.get(name, BUDGET)
    }
    assert not grown, (
        f"over {BUDGET} code lines (or over their listed size) -- split "
        f"them, do not list them: {grown}"
    )
    stale = {
        name: sizes.get(name, "gone")
        for name in OVER_BUDGET
        if sizes.get(name, 0) <= BUDGET
    }
    assert not stale, f"now within budget, delete the entry: {stale}"
