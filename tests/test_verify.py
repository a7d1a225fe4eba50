import pytest

from quivercount import verify

# criteria of `quivercount verify` that tier-1 runs; their seconds are
# printed with `pytest -s`
BRUTE_CHECKS = [verify.check_moment_fibers, verify.check_deformed_fibers,
                verify.check_jet_series, verify.check_plethystic_fixed_q]
SYMBOLIC_CHECKS = [verify.check_toric_tables, verify.check_gloop_rank2,
                   verify.check_gloop_rank3, verify.check_kronecker_pipeline,
                   verify.check_limits_hilbert]


@pytest.mark.parametrize("check", BRUTE_CHECKS, ids=lambda fn: fn.__name__)
def test_brute_criterion_passes(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail


@pytest.mark.parametrize("check", SYMBOLIC_CHECKS, ids=lambda fn: fn.__name__)
def test_symbolic_criterion_passes(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail


def test_hall_criterion_passes():
    # criterion 11: fixed-q associativity and [e1, e2], Euler-shadow
    # bialgebra identity and centrality
    result = verify.check_hall()
    print(result.line())
    assert result.passed, result.detail
