import pytest

from quivercount import bruteforce, kacpoly, verify

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


def test_toric_brute_anchor_passes():
    # criterion 2: the rank-one orbit census against toric_kac_wyss on
    # every corpus instance within the census cap
    result = verify.check_toric_brute_anchor()
    print(result.line())
    assert result.passed, result.detail
    assert result.detail.startswith("1132 instances")


def test_hall_criterion_passes():
    # criterion 11: fixed-q associativity and [e1, e2], Euler-shadow
    # bialgebra identity and centrality
    result = verify.check_hall()
    print(result.line())
    assert result.passed, result.detail


@pytest.mark.parametrize("module,attr,check,name,detail", [
    (kacpoly, "kronecker_kac_via_zeta", verify.check_kronecker_pipeline,
     "Kronecker rank-(1,2) counts via zeta expansion", "r=3, alpha=1"),
    (bruteforce, "count_iso_classes", verify.check_kronecker_pipeline,
     "Kronecker rank-(1,2) counts via zeta expansion", "Burnside anchor r=3, alpha=2, q=3"),
    (bruteforce, "moment_fiber_count", verify.check_deformed_fibers,
     "deformed moment fibers = generic-fiber formula", "two-vertex quiver alpha=1 q=3"),
], ids=["kronecker", "kronecker-burnside", "deformed"])
def test_failing_criterion_keeps_its_name(monkeypatch, module, attr, check, name, detail):
    # a counterexample reports under the name the criterion passes under
    monkeypatch.setattr(module, attr, lambda *args: 0)
    result = check()
    assert (result.name, result.passed, result.detail) == (name, False, detail)
