import pytest

from quivercount import verify

# the brute-force criteria 6-8 of `quivercount verify`; their seconds are
# printed with `pytest -s`
BRUTE_CHECKS = [verify.check_moment_fibers, verify.check_deformed_fibers,
                verify.check_jet_series]


@pytest.mark.parametrize("check", BRUTE_CHECKS, ids=lambda fn: fn.__name__)
def test_brute_criterion_passes(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail
