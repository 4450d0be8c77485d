import pytest

from censym.verify import CHECKS, SuiteReport, run_checks


@pytest.fixture
def catalogue():
    """Run entries of the verify catalogue by name, exhaustively through
    length 2 max_n, and return their report."""
    entries = {entry[1]: entry for entry in CHECKS}

    def run(max_n, *names):
        report = SuiteReport("tests", max_n)
        picked = [entries[name] for name in names]
        run_checks(picked, max_n, 2 * max_n, 0, {e[0]: report for e in picked})
        return report

    return run
