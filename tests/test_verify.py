import ast
from pathlib import Path

import pytest

import censym
from censym.verify import CHECKS


@pytest.mark.parametrize(
    "check", [fn for _, _, fn in CHECKS], ids=[name for _, name, _ in CHECKS]
)
def test_catalogue_entry_passes(check):
    failures, count = check(4, 8, 0, [])
    assert failures == []
    assert count > 0


def test_library_has_no_assert():
    """python -O strips assert statements, so library checks must raise."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(censym.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
