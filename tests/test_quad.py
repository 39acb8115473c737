"""Quadrature engines: closed forms, oracles, error-estimate honesty."""

import math

import numpy as np
import pytest

from flatzeta.errors import DomainError, EnvelopeViolation, NonConvergence
from flatzeta.quad import (
    EndpointSpec,
    _tanh_sinh,
    integrate_1d,
    integrate_2d_pieces,
    integrate_2d_split,
    integrate_tail,
)

# Closed-form battery reused by several checks: (f, lo, hi, spec, exact)
CLOSED_FORMS = [
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, EndpointSpec(exponent_lo=-0.5), 2.0),
    (lambda x: np.ones_like(x), 0.0, 1.0, None, 1.0),
    (lambda x: np.sin(x), 0.0, math.pi, None, 2.0),
    (lambda x: np.log(x), 0.0, 1.0, None, -1.0),
    (lambda x: x**-0.75, 0.0, 1.0, EndpointSpec(exponent_lo=-0.75), 4.0),
    (lambda x: (1.0 - x) ** -0.25, 0.0, 1.0, EndpointSpec(exponent_hi=-0.25), 4.0 / 3.0),
    (lambda x: np.exp(x), -1.0, 2.0, None, math.exp(2.0) - math.exp(-1.0)),
]


def test_integrate_1d_closed_forms():
    for f, lo, hi, spec, exact in CLOSED_FORMS:
        r = integrate_1d(f, lo, hi, spec)
        assert r.value == pytest.approx(exact, rel=1e-12)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0


def test_integrate_1d_mixed_singularity_vs_midpoint_oracle():
    # f = x^(-1/4) (1 - e^(-1/(2x))) on (0,1); the oracle substitutes x = t^4
    # and applies a 1e6-panel midpoint rule, which removes the singularity.
    def f(x):
        return x**-0.25 * (-np.expm1(-1.0 / (2.0 * x)))

    N = 1_000_000
    t = (np.arange(N) + 0.5) / N
    oracle = float(np.sum(4.0 * t**3 * f(t**4))) / N
    frozen = 0.9658853793239357
    assert oracle == pytest.approx(frozen, abs=5e-12)
    r = integrate_1d(f, 0.0, 1.0, EndpointSpec(exponent_lo=-0.25))
    assert r.value == pytest.approx(oracle, abs=1e-6)
    assert r.value == pytest.approx(frozen, rel=1e-11)


def test_integrate_1d_rejections():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 1.0, 0.0)
    with pytest.raises(DomainError):
        EndpointSpec(exponent_lo=-1.0)
    with pytest.raises(NonConvergence), np.errstate(over="ignore", invalid="ignore"):
        # wildly oscillatory at 0: the engine must not return silently
        integrate_1d(lambda x: np.sin(1e6 / x) / x, 0.0, 1.0, tol=1e-13, max_levels=5)


def test_integrate_1d_scalar_integrand_adapts():
    r = integrate_1d(lambda x: math.exp(-x), 0.0, 1.0)
    assert r.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_monotone_refinement():
    # halving tol never worsens the true error on the closed-form battery
    for f, lo, hi, spec, exact in CLOSED_FORMS:
        errs = []
        for tol in (1e-4, 1e-8, 1e-12):
            r = integrate_1d(f, lo, hi, spec, tol=tol)
            errs.append(abs(r.value - exact))
        assert errs[2] <= errs[0] * (1.0 + 1e-12) + 1e-15


def test_error_estimate_honesty():
    # true error <= 10x estimate in at least 95% of the battery runs
    good = 0
    total = 0
    for f, lo, hi, spec, exact in CLOSED_FORMS:
        for tol in (1e-6, 1e-9, 1e-12):
            r = integrate_1d(f, lo, hi, spec, tol=tol)
            total += 1
            if abs(r.value - exact) <= 10.0 * r.abs_error_estimate + 1e-15:
                good += 1
    assert good / total >= 0.95


def _columns(x):
    """Four integrands sharing the x^(-1/2) endpoint at 0, as an (n, 4) matrix."""
    r = x**-0.5
    return np.column_stack([r, r * np.exp(x), r * np.log(x) ** 2, r * np.cos(3.0 * x)])


def test_tanh_sinh_vector_matches_scalar_calls():
    spec = EndpointSpec(exponent_lo=-0.5)
    for tol in (1e-6, 1e-10):
        values, errors, evals = _tanh_sinh(_columns, 0.0, 1.0, tol, 12, spec)
        assert values.shape == errors.shape == (4,)
        for c in range(4):
            v, e, ev = _tanh_sinh(lambda x: _columns(x)[:, c], 0.0, 1.0, tol, 12, spec)
            assert values[c] == pytest.approx(v, rel=1e-12)
            # the vector loop stops no earlier than any component would alone;
            # allow for the rounding of the two running sums
            assert errors[c] >= e - 4.0 * np.finfo(float).eps * abs(v)
            assert evals >= ev


def test_tanh_sinh_vector_nonfinite():
    spec = EndpointSpec(exponent_lo=-0.5)

    def away(x):   # NaN in one component at the midpoint, far from 0
        return np.column_stack([x**-0.5, np.where(np.abs(x - 0.5) < 0.1, np.nan, x)])

    with pytest.raises(NonConvergence):
        _tanh_sinh(away, 0.0, 1.0, 1e-10, 12, spec)

    def at_endpoint(x):   # overflow at the declared singular endpoint is dropped
        return np.column_stack([np.where(x < 1e-200, np.inf, x**-0.5), np.ones_like(x)])

    values, errors, _ = _tanh_sinh(at_endpoint, 0.0, 1.0, 1e-10, 12, spec)
    assert values == pytest.approx([2.0, 1.0], rel=1e-9)
    assert np.all(errors >= 0.0)


def test_integrate_tail_closed_forms():
    r = integrate_tail(lambda x: x**-2.0, 1.0, -2.0, envelope_k=1.0)
    assert r.value == pytest.approx(1.0, rel=1e-9)
    r = integrate_tail(lambda x: x**-3.0, 2.0, -3.0, envelope_k=1.0)
    assert r.value == pytest.approx(0.125, rel=1e-9)


def test_integrate_tail_flat_envelope_case():
    # x^(-a/b) (1 - e^(-1/(q x^p))) with (a,b,q,p) = (0,2,2,2): envelope
    # (1/q) x^(-p) from 1 - e^(-t) <= t.  Oracle: truncation at 1e4 computed
    # by a midpoint rule in u = 1/x (smooth there), plus the series value of
    # the remaining tail int (c/x^2 - c^2/(2x^4) + ...) dx.
    def f(x):
        with np.errstate(divide="ignore", over="ignore"):
            return -np.expm1(-1.0 / (2.0 * x**2))

    r = integrate_tail(f, 1.0, -2.0, envelope_k=0.5)
    N = 2_000_000
    u = 1e-4 + (np.arange(N) + 0.5) * (1.0 - 1e-4) / N
    trunc = float(np.sum(-np.expm1(-0.5 * u * u) / (u * u))) * (1.0 - 1e-4) / N
    c = 0.5
    X = 1e4
    rem_series = c / X - c * c / (6.0 * X**3)
    assert abs(r.value - (trunc + rem_series)) <= 1e-8
    # second oracle: closed form of the whole integral minus the head piece
    A = math.sqrt(math.pi / 2.0)
    head = integrate_1d(f, 0.0, 1.0).value
    assert r.value == pytest.approx(A - head, rel=1e-9)


def test_integrate_tail_envelope_violation():
    with pytest.raises(EnvelopeViolation):
        integrate_tail(lambda x: 2.0 * x**-2.0, 1.0, -2.0, envelope_k=1.0)


def test_integrate_tail_rejections():
    with pytest.raises(DomainError):
        integrate_tail(lambda x: x**-2.0, 1.0, -0.5, envelope_k=1.0)
    with pytest.raises(DomainError):
        integrate_tail(lambda x: x**-2.0, 0.0, -2.0, envelope_k=1.0)


def test_2d_split_constant():
    r = integrate_2d_split(lambda x, y: np.ones_like(y), (0.0, 1.0), (0.0, 1.0),
                           lambda x: 0.5)
    assert r.value == pytest.approx(1.0, rel=1e-12)


def test_2d_split_separable_singular():
    r = integrate_2d_split(lambda x, y: x**-0.5 * y**-0.5, (0.0, 1.0), (0.0, 1.0),
                           lambda x: 0.3 + 0.2 * x,
                           EndpointSpec(exponent_lo=-0.5),
                           EndpointSpec(exponent_lo=-0.5))
    assert r.value == pytest.approx(4.0, rel=1e-9)


def test_2d_split_invariance_for_continuous_integrand():
    # the split position must not matter when nothing is singular on the curve
    def g(x, y):
        return np.exp(-x) * np.cos(y)

    r1 = integrate_2d_split(g, (0.0, 1.0), (0.0, 1.0), lambda x: 0.2)
    r2 = integrate_2d_split(g, (0.0, 1.0), (0.0, 1.0), lambda x: 0.8 - 0.5 * x)
    tol = r1.abs_error_estimate + r2.abs_error_estimate + 1e-12
    assert abs(r1.value - r2.value) <= max(tol, 1e-10)


def test_2d_split_family_integrand_self_consistency():
    # |f|^sigma for (a,b,q,p)=(1,2,2,1/4) at sigma=-0.45: splitting along the
    # flat crossover equals splitting along a constant line, within tolerance.
    from fractions import Fraction
    from flatzeta.model import FamilyParams
    from flatzeta.zeta import integrand

    params = FamilyParams(1, 2, 2, Fraction(1, 4))
    sigma = -0.45

    def g(x, y):
        return integrand(params, x, y, sigma)

    ep_x = EndpointSpec(exponent_lo=params.a * sigma)
    ep_y = EndpointSpec(exponent_lo=params.b * sigma)
    r1 = integrate_2d_split(g, (0.0, 0.5), (0.0, 0.5),
                            lambda x: math.exp(-1.0 / (2.0 * x**0.25)) if x > 0 else 0.0,
                            ep_x, ep_y, tol=1e-8)
    r2 = integrate_2d_split(g, (0.0, 0.5), (0.0, 0.5), lambda x: 0.25,
                            ep_x, ep_y, tol=1e-8)
    assert r1.value == pytest.approx(r2.value, rel=1e-6)


def test_2d_pieces_sum_to_total():
    below, above = integrate_2d_pieces(lambda x, y: x + y, (0.0, 1.0), (0.0, 1.0),
                                       lambda x: 0.5 * x)
    total = integrate_2d_split(lambda x, y: x + y, (0.0, 1.0), (0.0, 1.0),
                               lambda x: 0.5 * x)
    assert below.value + above.value == pytest.approx(total.value, rel=1e-14)
    # int_0^1 int_0^{x/2} (x+y) dy dx = int_0^1 5x^2/8 dx = 5/24
    assert below.value == pytest.approx(5.0 / 24.0, rel=1e-9)
