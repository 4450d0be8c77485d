import sys

import pytest

from censym.perms import right_connected_components
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


@pytest.fixture
def component_builds():
    """The argument of every perms.right_connected_components call made
    during the test, by any caller under any name."""
    built = []
    code = right_connected_components.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built.append(frame.f_locals["p"])

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield built
    finally:
        sys.setprofile(outer)
