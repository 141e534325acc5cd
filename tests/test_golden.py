import pytest

from golden_cases import CASES, criteria_run_once, golden_path, run


@pytest.fixture(scope="module", autouse=True)
def _criteria_once():
    with criteria_run_once():
        yield


@pytest.mark.parametrize("name", CASES)
def test_golden_stdout_and_exit_code(name):
    argv, want_code = CASES[name]
    code, out = run(argv)
    assert code == want_code
    assert out == golden_path(name).read_text(encoding="utf-8")
