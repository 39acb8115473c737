"""Parameter validation, exact regime classification, schedules."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flatzeta.errors import DomainError
from flatzeta.model import (
    FamilyParams,
    NumericConfig,
    RegimeKind,
    classify_regime,
    make_schedule,
    newton_distance,
    parse_rational,
)


def test_family_params_validation():
    FamilyParams(a=0, b=2, q=2, p=Fraction(2))
    with pytest.raises(DomainError):
        FamilyParams(a=2, b=2, q=2, p=Fraction(2))       # a < b violated
    with pytest.raises(DomainError):
        FamilyParams(a=0, b=1, q=1, p=Fraction(2))       # b >= 2 violated
    with pytest.raises(DomainError):
        FamilyParams(a=0, b=2, q=3, p=Fraction(2))       # q <= b violated
    with pytest.raises(DomainError):
        FamilyParams(a=0, b=2, q=0, p=Fraction(2))       # q >= 1 violated
    with pytest.raises(DomainError):
        FamilyParams(a=0, b=2, q=2, p=Fraction(-1, 2))   # p > 0 violated
    with pytest.raises(DomainError):
        FamilyParams(a=0, b=2, q=2, p=Fraction(2), r1=1.0)
    with pytest.raises(DomainError):
        FamilyParams(a=0, b=2, q=2, p=Fraction(2), r2=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(a=True, b=2, q=2, p=Fraction(2)),       # bool is not an integer here
    dict(a=0, b=2, q=True, p=Fraction(2)),
    dict(a=False, b=3, q=2, p=Fraction(2)),
    dict(a=0, b=2, q=2, p=math.nan),             # Fraction raises ValueError
    dict(a=0, b=2, q=2, p=math.inf),             # Fraction raises OverflowError
    dict(a=0, b=2, q=2, p=-math.inf),
])
def test_family_params_rejects_bool_and_nonfinite(kwargs):
    with pytest.raises(DomainError):
        FamilyParams(**kwargs)


def test_classify_regime_examples():
    r = classify_regime(FamilyParams(0, 2, 2, Fraction(2)))
    assert r.kind is RegimeKind.SUPERCRITICAL_FLAT
    # 1 - (1 - a/b)/p = 1 - (1 - 0)/2
    assert r.blowup_exponent == pytest.approx(0.5, abs=0)

    r = classify_regime(FamilyParams(0, 2, 2, Fraction(1)))
    assert r.kind is RegimeKind.CRITICAL_FLAT
    assert r.blowup_exponent is None
    assert r.epsilon0 == 0

    r = classify_regime(FamilyParams(1, 2, 2, Fraction(1, 4)))
    assert r.kind is RegimeKind.SUBCRITICAL_FLAT
    assert r.epsilon0 == Fraction(1, 2) + Fraction(1, 4) - 1


def test_classification_is_exact_on_rationals():
    # p = 1 - a/b = 1/3 has no float representation; the comparison must not
    # depend on rounding of p.
    params = FamilyParams(2, 3, 1, Fraction(1, 3))
    assert classify_regime(params).kind is RegimeKind.CRITICAL_FLAT
    # one ulp to either side in exact arithmetic flips the regime
    up = FamilyParams(2, 3, 1, Fraction(1, 3) + Fraction(1, 10**17))
    dn = FamilyParams(2, 3, 1, Fraction(1, 3) - Fraction(1, 10**17))
    assert classify_regime(up).kind is RegimeKind.SUPERCRITICAL_FLAT
    assert classify_regime(dn).kind is RegimeKind.SUBCRITICAL_FLAT


def test_blowup_exponent_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = int(rng.integers(2, 8))
        a = int(rng.integers(0, b))
        q = int(rng.integers(1, b + 1))
        # force supercritical: p > 1 - a/b
        num = int(rng.integers(1, 30))
        den = int(rng.integers(1, 30))
        p = Fraction(num, den) + Fraction(b - a, b)
        r = classify_regime(FamilyParams(a, b, q, p))
        assert r.kind is RegimeKind.SUPERCRITICAL_FLAT
        assert 0.0 < r.blowup_exponent < 1.0


def test_newton_distance():
    assert newton_distance(1, 2) == (2, Fraction(1, 2))
    assert newton_distance(0, 3) == (3, Fraction(1, 3))
    assert newton_distance(2, 5) == (5, Fraction(1, 5))
    with pytest.raises(DomainError):
        newton_distance(2, 2)
    with pytest.raises(DomainError):
        newton_distance(-1, 2)


def test_newton_c0_exact():
    for b in range(2, 12):
        for a in range(0, b):
            assert newton_distance(a, b).c0 == Fraction(1, b)


def test_make_schedule_geometric():
    sched = make_schedule(2**-4, 0.5, 12, b=2)
    assert len(sched) == 12
    for k, (x, s) in enumerate(zip(sched.xs, sched.sigmas)):
        assert x == pytest.approx(2.0 ** (-4 - k), rel=1e-15)
        assert s == pytest.approx(2.0 ** (-5 - k) - 0.5, rel=1e-15)
        assert -0.5 < s < 0.0
    sched3 = make_schedule(0.9, 0.5, 6, b=3)
    assert sched3.sigmas[0] == pytest.approx((0.9 - 1.0) / 3.0)


def test_make_schedule_rejections():
    with pytest.raises(DomainError):
        make_schedule(2**-4, 0.5, 3, b=2)          # count < 4
    with pytest.raises(DomainError):
        make_schedule(1.5, 0.5, 8, b=2)            # X_start outside (0,1)
    with pytest.raises(DomainError):
        make_schedule(0.5, 1.0, 8, b=2)            # ratio not in (0,1)


def test_numeric_config_validation():
    NumericConfig()
    with pytest.raises(DomainError):
        NumericConfig(tol_1d=0.5)
    with pytest.raises(DomainError):
        NumericConfig(flat_cutoff_exponent=100.0)


def test_parse_rational():
    assert parse_rational("2/1") == Fraction(2)
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("3") == Fraction(3)
    with pytest.raises(ValueError):
        parse_rational("0.25")
