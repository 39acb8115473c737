"""Verification-suite behavior: reports are pure data, checks pass on the
canonical parameter sets, gates fire on wrong input."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import flatzeta.verify as verify_mod
from flatzeta.errors import DomainError, OutsideDisc
from flatzeta.funcs import BumpSpec
from flatzeta.model import FamilyParams, NumericConfig, PRESETS, make_schedule
from flatzeta.verify import (
    VerificationReport,
    landau_taylor_rebuild,
    verify_LM_limits,
    verify_blowup_law,
    verify_decompositions,
    verify_psi_and_flat,
    verify_sandwich,
)
from flatzeta.zeta import region_samples, zeta_samples

CFG = NumericConfig()
BUMP = BumpSpec(0.5, 0.5)
SCHED = make_schedule(0.125, 0.5, 12, 2)
SHORT = make_schedule(0.125, 0.25, 4, 2)


def test_report_passed_recomputable():
    r = VerificationReport(check_id="x", target=1.0, observed=1.01,
                           tolerance=0.02, passed=True)
    assert r.passed == (abs(r.observed - r.target) <= r.tolerance)


# the check of each regime, for the quadrant integral (no bump) and the
# bump-weighted one
CHECK_IDS = {
    "supercritical": ("thm31_power_law", "thm21_power_law"),
    "critical": ("thm31_log_law", "thm21_log_law"),
    "greenblatt": ("thm31_bounded_bracket", "thm21_bounded_limit"),
}


def test_theorem31_three_regimes():
    for name, (check_id, _) in CHECK_IDS.items():
        rep = verify_blowup_law(PRESETS[name], None, SCHED, CFG)
        assert rep.passed, rep
        assert rep.check_id == check_id
        if isinstance(rep.target, float):
            assert abs(rep.observed - rep.target) <= rep.tolerance


@pytest.mark.parametrize("params", [
    FamilyParams(1, 3, 2, Fraction(2), r1=0.5, r2=0.5),      # power, kappa=2/3
    FamilyParams(0, 3, 3, Fraction(3), r1=0.4, r2=0.6),      # power, kappa=2/3
    FamilyParams(1, 2, 2, Fraction(1, 2), r1=0.5, r2=0.5),   # log, 1/(pq)=1
    FamilyParams(2, 3, 1, Fraction(1, 3), r1=0.5, r2=0.5),   # log, 1/(pq)=3
    FamilyParams(2, 3, 2, Fraction(1, 6), r1=0.5, r2=0.5),   # bounded
    FamilyParams(0, 4, 4, Fraction(1, 2), r1=0.6, r2=0.4),   # bounded
], ids=lambda p: f"({p.a},{p.b},{p.q},{p.p})")
def test_theorem31_generalizes_beyond_presets(params):
    sched = make_schedule(0.125, 0.5, 12, params.b)
    rep = verify_blowup_law(params, None, sched, CFG)
    assert rep.passed, rep


def test_theorem31_independent_of_box_in_nonbounded_regimes():
    # cases with r-independent limits: moving (r1, r2) must not move the
    # extracted limit beyond combined uncertainty at the pilot scale
    for name in ("supercritical", "critical"):
        base = PRESETS[name]
        alt = FamilyParams(base.a, base.b, base.q, base.p, r1=0.3, r2=0.7)
        r0 = verify_blowup_law(base, None, SCHED, CFG)
        r1 = verify_blowup_law(alt, None, SCHED, CFG)
        assert r1.passed
        tol = r0.tolerance + r1.tolerance
        assert abs(r0.observed - r1.observed) <= tol


def test_theorem21_three_regimes():
    for name, (_, check_id) in CHECK_IDS.items():
        rep = verify_blowup_law(PRESETS[name], BUMP, SCHED, CFG)
        assert rep.passed, rep
        assert rep.check_id == check_id


def test_theorem21_generalizes_with_nonzero_a():
    # a > 0 activates the x-singularity and the X^(aX/p)-type corrections
    for p, target in ((Fraction(2), None), (Fraction(1, 2), 4.0)):
        params = FamilyParams(1, 2, 2, p, r1=0.5, r2=0.5)
        rep = verify_blowup_law(params, BUMP, SCHED, CFG)
        assert rep.passed, rep
        if target is not None:
            assert rep.target == pytest.approx(target)


def test_sandwich_preset_cases():
    lams = [0.25, 1.0, 4.0]
    rep = verify_sandwich(PRESETS["greenblatt"], lams, SHORT, CFG)
    assert rep.passed
    assert rep.observed == 0.0
    assert len(rep.residual_log) == 12  # 3 lambdas x 4 sigmas
    # lambda-major, each margin the worst envelope of its one-pair pieces
    p = PRESETS["greenblatt"]
    zs = zeta_samples(p, None, SHORT.xs, CFG, flat=True)
    margins = []
    for lam in lams:
        for z in zs:
            (tr,) = region_samples(p, [lam], [z.X], CFG)
            lo1 = (1.0 + lam**p.q) ** tr.sigma * tr.ztilde1
            lo2 = (1.0 + lam**(-p.q)) ** tr.sigma * tr.ztilde2
            margins.append(min(tr.z1 - lo1, tr.ztilde1 - tr.z1, tr.z2 - lo2,
                               tr.ztilde2 - tr.z2, z.value - (lo1 + lo2),
                               (tr.ztilde1 + tr.ztilde2) - z.value))
    assert rep.residual_log == tuple(margins)


def test_sandwich_computes_each_z_once(monkeypatch):
    calls, regions = [], []
    real, real_regions = verify_mod.zeta_samples, verify_mod.region_samples

    def counting(*args, **kwargs):
        calls.append(list(args[2]))
        return real(*args, **kwargs)

    def counting_regions(params, lams, xs, *args, **kwargs):
        regions.append((list(lams), list(xs)))
        return real_regions(params, lams, xs, *args, **kwargs)

    monkeypatch.setattr(verify_mod, "zeta_samples", counting)
    monkeypatch.setattr(verify_mod, "region_samples", counting_regions)
    rep = verify_sandwich(PRESETS["critical"], [0.25, 1.0, 4.0], SHORT, CFG)
    assert rep.passed
    assert calls == [list(SHORT.xs)]      # one batch for all lambdas
    # and one batch of region pieces for every (lambda, X) pair
    assert regions == [([0.25, 1.0, 4.0], list(SHORT.xs))]


def test_sandwich_flat_dead_degenerates():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    rep = verify_sandwich(p, [1.0], SHORT, CFG)
    assert rep.passed


def test_sandwich_counts_a_violation(monkeypatch):
    # each z1 lifted 1% above its ztilde1 breaks Z1 < zt1 by far more than
    # the quadrature error, so every (lambda, X) pair counts as a violation
    p, lams = PRESETS["greenblatt"], [0.25, 1.0, 4.0]
    rep = verify_sandwich(p, lams, SHORT, CFG)
    assert rep.observed == 0.0 and rep.passed is True
    real = verify_mod.region_samples

    def lifted(*args, **kwargs):
        return [dataclasses.replace(tr, z1=1.01 * tr.ztilde1) for tr in real(*args, **kwargs)]

    monkeypatch.setattr(verify_mod, "region_samples", lifted)
    rep = verify_sandwich(p, lams, SHORT, CFG)
    assert rep.passed is False and rep.observed == len(rep.residual_log) == 12


def test_sandwich_without_lambdas_rejected():
    # no (lambda, sigma) sample would be checked, and the report would pass
    with pytest.raises(DomainError):
        verify_sandwich(PRESETS["greenblatt"], [], SHORT, CFG)


def test_decompositions_presets():
    for name in ("supercritical", "critical", "greenblatt"):
        rep = verify_decompositions(PRESETS[name], 1.0, PRESETS[name].b * -0.49 + 1.0, CFG)
        assert rep.passed, rep
        assert rep.observed < 1e-5


@pytest.mark.parametrize("a, b, q, p", [(5, 6, 4, 6), (5, 6, 2, 6), (4, 5, 2, 5)])
def test_decompositions_strong_outer_singularity(a, b, q, p):
    # a/b >= 0.8 with large p: the region columns lost up to 1e-3 of Z
    # before the log-variable integrals were clipped; no numpy warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_decompositions(FamilyParams(a, b, q, Fraction(p)), 1.0,
                                    b * (-0.98 / b) + 1.0, CFG)
    assert rep.passed, rep
    assert rep.tolerance == 1e-5


def test_psi_and_flat_suite():
    rep = verify_psi_and_flat(200, seed=0)
    assert rep.passed, rep.residual_log


def test_psi_and_flat_without_samples_rejected():
    with pytest.raises(DomainError):
        verify_psi_and_flat(0, 0)


def test_LM_limits_suite():
    rep = verify_LM_limits(PRESETS["greenblatt"], CFG)
    assert rep.passed, rep.residual_log


# bounded families on which fixed factors of lambda failed: each decays or
# grows in lambda with its own exponents (M like lambda^(-q/b), L like
# (log 1/lambda)^(-g) with g = 1/7 at (3,7,2,1/2))
LM_FAMILIES = [FamilyParams(3, 7, 2, Fraction(1, 2)), FamilyParams(0, 3, 2, Fraction(5, 6)),
               FamilyParams(1, 4, 3, Fraction(1, 3), r1=0.3, r2=0.45),
               FamilyParams(0, 2, 1, Fraction(1, 3))]


@pytest.mark.parametrize("params", LM_FAMILIES, ids=["3,7,2,1/2", "0,3,2,5/6",
                                                     "1,4,3,1/3-box", "0,2,1,1/3"])
def test_LM_limits_follow_the_family_exponents(params, monkeypatch):
    rep = verify_LM_limits(params, CFG)
    assert rep.passed, rep.residual_log
    lams = []
    real_L, real_M = verify_mod.constant_L, verify_mod.constant_M
    monkeypatch.setattr(verify_mod, "constant_L", lambda p, lam: lams.append(lam) or real_L(p, lam))
    verify_LM_limits(params, CFG)
    e_r1 = verify_mod.e_flat(params, params.r1)
    # L off by 1e-3 at any one lambda breaks its constant on that side, and so
    # does M above the saturation point, where M lambda^(q/b) is constant
    for lam0 in lams:
        monkeypatch.setattr(verify_mod, "constant_L",
                            lambda p, lam, l0=lam0: real_L(p, lam) * (1.0 + 1e-3 * (lam == l0)))
        assert not verify_LM_limits(params, CFG).passed, lam0
        monkeypatch.setattr(verify_mod, "constant_L", real_L)
        if lam0 * params.r2 >= e_r1:
            monkeypatch.setattr(verify_mod, "constant_M", lambda p, lam, cfg, l0=lam0:
                                real_M(p, lam, cfg) * (1.0 + 1e-3 * (lam == l0)))
            assert verify_LM_limits(params, CFG).residual_log == ("M_power_above_saturation",)
            monkeypatch.setattr(verify_mod, "constant_M", real_M)


def test_landau_rebuild_certified_tolerance():
    rep = landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, 0.5, -0.3, 40,
                                CFG, flat=False)
    assert rep.passed
    # the rebuild error is pinned near the geometric Taylor tail 0.8^(J+1)/0.2
    assert 1e-5 < rep.observed < 2e-3


def test_landau_rebuild_improves_with_J():
    errs = []
    for J in (10, 20, 40):
        rep = landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, 0.5, -0.3, J,
                                    CFG, flat=False)
        errs.append(rep.observed)
    assert errs[0] > errs[1] > errs[2]


def test_landau_trivial_at_expansion_point():
    rep = landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, 0.5, 0.5, 0,
                                CFG, flat=False)
    assert rep.passed
    assert rep.observed < 1e-8


@pytest.mark.parametrize("J", [0, 3])
def test_landau_at_expansion_point_has_no_tail(J):
    # every term past D_0 vanishes at s = s0: the tolerance is the quadrature
    # floor alone, and the zero terms do not break the one-sign check
    rep = landau_taylor_rebuild(PRESETS["supercritical"], BUMP, 0.5, 0.5, J, CFG, flat=False)
    assert rep.passed
    assert rep.tolerance == 10.0 * CFG.tol_2d


def test_landau_single_term_away_from_expansion_point_rejected():
    # with J = 0 there is no observed term ratio to bound the tail by
    with pytest.raises(DomainError):
        landau_taylor_rebuild(PRESETS["supercritical"], BUMP, 0.5, 0.3, 0, CFG, flat=False)


def test_landau_outside_disc():
    with pytest.raises(OutsideDisc):
        landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, 0.5, -0.6, 10,
                              CFG, flat=False)


@pytest.mark.parametrize("s0, s_target", [(math.nan, -0.3), (0.5, math.nan)])
def test_landau_nan_point_outside_disc(s0, s_target):
    with pytest.raises(OutsideDisc):
        landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, s0, s_target, 10,
                              CFG, flat=False)


@pytest.mark.parametrize("s0, s_target", [(0.5, 0.55), (0.5, 0.7), (0.3, 0.5)])
def test_landau_rebuild_above_expansion_point(s0, s_target):
    # above s0 the terms D_j h^j / j! alternate, as D_j has sign (-1)^j
    rep = landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, s0, s_target, 20,
                                CFG, flat=False)
    assert rep.passed
    assert rep.observed <= rep.tolerance


@pytest.mark.parametrize("s_target", [0.3, 0.7])
def test_landau_rebuild_rejects_a_flipped_moment(monkeypatch, s_target):
    # one D_j of the wrong sign fails the sign pattern on either side of s0,
    # though the last term is far too small to move the sum past tolerance
    real = verify_mod.log_derivative_moments

    def flipped(*args, **kwargs):
        d = np.array(real(*args, **kwargs))
        d[-1] = -d[-1]
        return d

    monkeypatch.setattr(verify_mod, "log_derivative_moments", flipped)
    rep = landau_taylor_rebuild(PRESETS["greenblatt"], BUMP, 0.5, s_target, 20,
                                CFG, flat=False)
    assert rep.observed <= rep.tolerance
    assert not rep.passed
