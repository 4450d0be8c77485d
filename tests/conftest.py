import pytest

from censym.verify import CHECKS, SuiteReport


@pytest.fixture
def catalogue():
    """Run entries of the verify catalogue by name, exhaustively through
    length 2 max_n, and return their report."""
    entries = {name: fn for _, name, fn in CHECKS}

    def run(max_n, *names):
        report = SuiteReport("tests", max_n)
        for name in names:
            report.add(name, *entries[name](max_n, 2 * max_n, 0, report.notes))
        return report

    return run
