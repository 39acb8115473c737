"""Asymptotic constants, case-3 bounds, scaling and limit extraction."""

import math
from fractions import Fraction

import numpy as np
import pytest

import flatzeta.asym as asym_mod
from flatzeta.errors import DegenerateLowerLimit, DomainError, NonConvergence, WrongRegime
from flatzeta.funcs import rho
from flatzeta.model import (FamilyParams, NumericConfig, PRESETS, RegimeKind, classify_regime,
                            make_schedule)
from flatzeta.zeta import ZetaSample
from flatzeta.asym import (
    BlowupSequence,
    case3_bounds,
    constant_A,
    constant_L,
    constant_M,
    extract_limit,
    scale_sequence,
)

CFG = NumericConfig()
SUP = PRESETS["supercritical"]
CRIT = PRESETS["critical"]
GREEN = PRESETS["greenblatt"]

# mpmath quadrature of the defining integral agrees with the Gamma-function
# closed form c^beta Gamma(1-beta)/(p beta) to 19 digits for all four cases
A_ORACLES = {
    (0, 2, 2, Fraction(2)): math.sqrt(math.pi / 2.0),
    (0, 2, 1, Fraction(2)): math.sqrt(math.pi),
    (1, 2, 2, Fraction(2)): 2.0608970245899912,
    (0, 3, 2, Fraction(3)): 1.0747641207672393,
}

# near-critical and steep families, from tests/oracle_gen.py without the Gamma
# substitution: mpmath quadrature on (0, 1] plus the tail's exponential
# series, at 30 and 40 digits (agreeing to 2e-30)
A_SERIES_ORACLES = {
    (1, 7, 1, Fraction(7, 8)): 56.5163659318812476902,
    (2, 7, 2, Fraction(3, 4)): 14.8083487027844956685,
    (5, 7, 2, Fraction(1, 3)): 12.6518833476065348143,
    (2, 7, 7, Fraction(7)): 1.22854542914860699024,
}

M_ORACLE_GREEN_LAM1 = 1.3950594060599476


def test_constant_A_values():
    for (a, b, q, p), expect in A_ORACLES.items():
        assert constant_A(FamilyParams(a, b, q, p)) == pytest.approx(expect, rel=1e-14)


def test_constant_A_against_series_oracle():
    for (a, b, q, p), expect in A_SERIES_ORACLES.items():
        assert constant_A(FamilyParams(a, b, q, p)) == pytest.approx(expect, rel=1e-13)


def test_constant_A_regime_gate():
    with pytest.raises(WrongRegime):
        constant_A(CRIT)       # p = 1 - a/b exactly
    with pytest.raises(WrongRegime):
        constant_A(GREEN)


def test_constant_A_ignores_box():
    # A never reads (r1, r2)
    p1 = FamilyParams(0, 2, 2, Fraction(2), r1=0.3, r2=0.9)
    p2 = FamilyParams(0, 2, 2, Fraction(2), r1=0.7, r2=0.1)
    assert constant_A(p1) == constant_A(p2)


def test_constant_L_hand_example():
    # lam = 2 e^-2 so lam r2 = e^-2, rho = (1/4)^4 = 1/256:
    # L = (1/256)^(1/2) / (1/2) * (-2) + (1/256)^(1/4) / (2 * (1/4))
    #   = -1/4 + 1/2 = 1/4
    lam = 2.0 * math.exp(-2.0)
    assert constant_L(GREEN, lam) == pytest.approx(0.25, abs=1e-14)


def test_constant_L_saturated_branch():
    # lam r2 >= e(r1): rho = r1
    lam = 2.0
    ab, pf, q = 0.5, 0.25, 2
    r1, rt2 = GREEN.r1, lam * GREEN.r2
    expect = (r1 ** (1 - ab) / (1 - ab) * math.log(rt2)
              + r1 ** (1 - ab - pf) / (q * (1 - ab - pf)))
    assert constant_L(GREEN, lam) == pytest.approx(expect, rel=1e-14)


def test_constant_L_vanishes_at_zero():
    vals = [constant_L(GREEN, lam) for lam in (1e-2, 1e-4, 1e-8, 1e-16)]
    assert all(v > 0.0 for v in vals)
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_constant_L_regime_gate():
    with pytest.raises(WrongRegime):
        constant_L(SUP, 1.0)


def test_constant_M_oracle_and_limits():
    assert constant_M(GREEN, 1.0, CFG) == pytest.approx(M_ORACLE_GREEN_LAM1, rel=1e-10)
    # lam large: rho saturates at r1, integral term empty, M -> power decay
    lam = 1e6
    expect = (GREEN.b**2 / (GREEN.q * (GREEN.b - GREEN.a))
              * lam ** (-GREEN.q / GREEN.b) * GREEN.r1 ** 0.5)
    assert constant_M(GREEN, lam, CFG) == pytest.approx(expect, rel=1e-12)
    # lam small: M explodes
    assert constant_M(GREEN, 1e-6, CFG) > 1e2 * constant_M(GREEN, 1.0, CFG)


def test_constant_M_raises_where_rho_underflows():
    # at p = 1/200, lam r2 = 5e-301 puts rho(lam r2) = (q log(1/(lam r2)))^-200
    # far below the double range: the lower limit of M's integral is 0
    with pytest.raises(DegenerateLowerLimit, match="underflowed"):
        constant_M(FamilyParams(0, 2, 2, Fraction(1, 200)), 1e-300, CFG)


def _lower_objective(params, lam):
    q, b = params.q, params.b
    return (constant_L(params, lam) / (1.0 + lam**q)**(1.0 / b)
            + constant_M(params, lam, CFG) / (1.0 + lam**(-q))**(1.0 / b))


def test_case3_bounds_ordering_and_endpoint_behavior():
    b3 = case3_bounds(GREEN, CFG)
    assert 0.0 < b3.lower <= b3.upper
    # the lower objective sinks toward 0 at both bracket ends
    assert _lower_objective(GREEN, 1e-6) < 0.25 * b3.lower
    assert _lower_objective(GREEN, 1e6) < 0.25 * b3.lower
    # the upper objective rises at both ends, so the minimum is interior
    def upper_obj(lam):
        return constant_L(GREEN, lam) + constant_M(GREEN, lam, CFG)
    assert upper_obj(1e-6) > b3.upper
    assert upper_obj(1e6) > b3.upper


def _bounded_families(n):
    """n seeded families of the bounded regime, r1, r2 in (0.25, 0.5)."""
    rng = np.random.default_rng(16)
    families = []
    while len(families) < n:
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        params = FamilyParams(a, b, q, p, *map(float, rng.uniform(0.25, 0.5, 2)))
        if classify_regime(params).kind is RegimeKind.SUBCRITICAL_FLAT:
            families.append(params)
    return families


CASE3_LAMS = np.logspace(-3.0, 3.0, 25)


def test_case3_upper_is_least_L_plus_M_over_families():
    # d(L+M)/dlam has the sign of 1 - lam^(-q/b), so upper = L(1) + M(1)
    # lies below L + M on a whole lambda grid, for random bounded families
    for params in _bounded_families(6):
        upper = case3_bounds(params, CFG).upper
        for lam in CASE3_LAMS:
            total = constant_L(params, lam) + constant_M(params, lam, CFG)
            assert total >= upper * (1.0 - 1e-12), (params, lam)


# plain Newton from lam = 1 cycles across the kink of g where rho saturates
# (lam = 5.05, just above the root at 4.53) and never settles; the bisection
# fallback brings it home
CASE3_KINKED = FamilyParams(12, 23, 11, Fraction(1, 32), r1=0.27, r2=0.18)


def test_case3_lower_is_stationary_over_families():
    # the lower end sits at the root of M = lam^(q(b-1)/b) L, where the
    # weighted objective is largest and equals L (1 + lam^q)^((b-1)/b)
    for params in _bounded_families(6) + [CASE3_KINKED]:
        q, b = params.q, params.b
        b3 = case3_bounds(params, CFG)
        lam = b3.lambda_lower
        L, M = constant_L(params, lam), constant_M(params, lam, CFG)
        assert abs(M - lam**(q * (b - 1) / b) * L) <= 1e-9 * M, params
        for grid_lam in CASE3_LAMS:
            assert b3.lower >= _lower_objective(params, grid_lam) * (1.0 - 1e-12), (params, grid_lam)
        assert b3.lower == pytest.approx(L * (1.0 + lam**q)**((b - 1) / b), rel=1e-12)


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 20.0])
def test_lambda_derivatives_of_L_and_M_in_closed_form(lam):
    # lam dL/dlam = D = b u^(1-a/b)/(b-a) and lam dM/dlam = -lam^(-q/b) D,
    # u = rho(lam r2); rho saturates at r1 from lam = e(r1)/r2 = 11.04 on
    params = FamilyParams(1, 2, 2, Fraction(1, 4), r1=0.5, r2=0.05)
    a, b, q = params.a, params.b, params.q
    u = rho(params, lam * params.r2)
    assert (u == params.r1) == (lam > 11.0)
    d = b * u**(1.0 - a / b) / (b - a)
    h = 1e-4
    for fn, expect in ((lambda l: constant_L(params, l), d),
                       (lambda l: constant_M(params, l, CFG), -lam**(-q / b) * d)):
        central = (fn(lam * math.exp(h)) - fn(lam * math.exp(-h))) / (2.0 * h)
        assert central == pytest.approx(expect, rel=1e-7)


def test_case3_bounds_raise_on_non_finite_M(monkeypatch):
    monkeypatch.setattr(asym_mod, "constant_M", lambda params, lam, cfg=CFG: math.nan)
    with pytest.raises(NonConvergence):
        case3_bounds(GREEN, CFG)


def test_case3_regime_gate():
    with pytest.raises(WrongRegime):
        case3_bounds(SUP, CFG)


def _fake_samples(b, xs, values):
    return [ZetaSample(sigma=(x - 1.0) / b, X=x, value=v, error=0.0)
            for x, v in zip(xs, values)]


def test_scale_sequence_kinds():
    xs = [0.125 * 0.5**k for k in range(6)]
    vals = [2.0 + x for x in xs]
    seq = scale_sequence(SUP, _fake_samples(2, xs, vals))
    assert seq.regime.kind is RegimeKind.SUPERCRITICAL_FLAT
    assert seq.regime.blowup_exponent == pytest.approx(0.5)
    assert seq.scaled_values[0] == pytest.approx(xs[0] ** 0.5 * vals[0])
    seq = scale_sequence(CRIT, _fake_samples(2, xs, vals))
    assert seq.regime.kind is RegimeKind.CRITICAL_FLAT
    assert seq.scaled_values[0] == pytest.approx(vals[0] / abs(math.log(xs[0])))
    seq = scale_sequence(GREEN, _fake_samples(2, xs, vals))
    assert seq.regime.kind is RegimeKind.SUBCRITICAL_FLAT
    assert seq.scaled_values == tuple(vals)


def test_extract_limit_recovers_exact_model():
    xs = [2.0 ** (-4 - k) for k in range(10)]
    svals = [3.0 + 0.1 * x * math.log(x) for x in xs]
    seq = scale_sequence(GREEN, _fake_samples(2, xs, svals))
    limit, unc = extract_limit(seq)
    assert limit == pytest.approx(3.0, abs=1e-8)
    assert unc < 1e-8


def test_extract_limit_constant_sequence():
    xs = [2.0 ** (-4 - k) for k in range(8)]
    seq = scale_sequence(GREEN, _fake_samples(2, xs, [5.0] * 8))
    limit, unc = extract_limit(seq)
    assert limit == pytest.approx(5.0, abs=1e-12)


def test_extract_limit_power_basis():
    # scaled model with an X^kappa correction, exactly the power-regime basis;
    # the raw Z-values are the scaled model divided by X^kappa
    xs = [2.0 ** (-3 - k) for k in range(12)]
    svals = [1.25 - 0.4 * x**0.5 + 0.05 * x * math.log(x) for x in xs]
    raw = [s / x**0.5 for s, x in zip(svals, xs)]
    seq = scale_sequence(SUP, _fake_samples(2, xs, raw))
    limit, unc = extract_limit(seq)
    assert limit == pytest.approx(1.25, abs=1e-9)


def test_extract_limit_log_basis():
    xs = [2.0 ** (-3 - k) for k in range(12)]
    svals = [0.5 + 0.3 / abs(math.log(x)) for x in xs]
    raw = [s * abs(math.log(x)) for s, x in zip(svals, xs)]
    seq = scale_sequence(CRIT, _fake_samples(2, xs, raw))
    limit, unc = extract_limit(seq)
    assert limit == pytest.approx(0.5, abs=1e-9)


def _off_basis(params, xs):
    """The sequence on xs whose scaled values carry an x^2 term, which no
    basis has, next to the limit 1.25 (power regime: SUP, log regime: CRIT)."""
    if params is SUP:
        svals = [1.25 - 0.4 * x**0.5 + 3.0 * x * x for x in xs]
        raw = [s / x**0.5 for s, x in zip(svals, xs)]
    else:
        svals = [1.25 + 0.3 / abs(math.log(x)) + 3.0 * x * x for x in xs]
        raw = [s * abs(math.log(x)) for s, x in zip(svals, xs)]
    return scale_sequence(params, _fake_samples(2, xs, raw))


@pytest.mark.parametrize("params", [SUP, CRIT], ids=["power", "log"])
def test_extract_limit_interpolating_fit_has_inf_uncertainty(params):
    # 4 points on the 4 basis columns interpolate: the residual is 0 however
    # far the limit is off, so the uncertainty is inf, not about 1e-16
    limit, unc = extract_limit(_off_basis(params, [2.0 ** (-3 - k) for k in range(4)]))
    assert math.isfinite(limit) and abs(limit - 1.25) > 1e-6
    assert unc == math.inf


@pytest.mark.parametrize("params", [SUP, CRIT], ids=["power", "log"])
def test_extract_limit_five_points_take_the_drop_one_shift(params):
    # with 5 points the fit without the largest X still holds one point per
    # column, and the shift of the limit under that drop enters the
    # uncertainty on top of the rms residual
    xs = [2.0 ** (-3 - k) for k in range(5)]
    limit, unc = extract_limit(_off_basis(params, xs))
    limit4, _ = extract_limit(_off_basis(params, xs[1:]))
    assert abs(limit - limit4) > 1e-9
    assert unc >= abs(limit - limit4)


def test_blowup_sequence_validation():
    xs = [0.125, 0.0625]
    with pytest.raises(DomainError):
        # schedule itself requires at least 4 entries
        scale_sequence(GREEN, _fake_samples(2, xs, [1.0, 2.0]))


def test_case3_example_values_bracket_the_limit():
    # The extrapolation target of the raw sequence must live in the bracket;
    # checked end to end (this is the bounded-regime law at desk scale).
    from flatzeta.zeta import zeta_samples
    sched = make_schedule(0.125, 0.5, 8, GREEN.b)
    zs = [z.value for z in zeta_samples(GREEN, None, sched.xs, CFG, flat=True)]
    b3 = case3_bounds(GREEN, CFG)
    assert b3.lower <= zs[-1] <= b3.upper
