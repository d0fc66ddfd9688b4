import pytest

import normgeo.inequalities as ineq
import support


@pytest.fixture(autouse=True)
def fresh_sweep_memo():
    # batch_min_slack keeps the last sweep; a test that patches the sampler
    # or the kernel must not leave its result behind for the next test
    ineq._sweep.cache_clear()
    yield
    ineq._sweep.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if support.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in support.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
