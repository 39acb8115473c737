"""Zeta evaluators: integrand forms, closed-form reductions, region pieces,
auxiliary integrals, log-derivative moments.

Frozen reference values were produced by an adaptive tanh-sinh oracle run at
25-40 significant digits (mpmath) before the engine was tuned against them.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatzeta.asym import constant_L, constant_M
from flatzeta.errors import (
    DegenerateLowerLimit,
    DomainError,
    OddQNotSupported,
    OutOfWindow,
    PoleHit,
)
from flatzeta.funcs import (
    BumpSpec,
    bump_eval,
    bump_x_profile,
    bump_y_increment,
    bump_y_profile,
    log_e_flat,
    rho,
)
from flatzeta.model import FamilyParams, NumericConfig, PRESETS, make_schedule
from flatzeta.quad import MAX_LEVELS, EndpointSpec, _tanh_sinh, integrate_1d
from flatzeta.verify import landau_taylor_rebuild
import flatzeta.zeta as zeta_mod
from flatzeta.zeta import (
    INNER_REL_ERR,
    _bump_moments,
    _check_log_moments,
    _dead_column,
    _from_one,
    _increment_columns,
    _inner_columns,
    _inner_tables,
    _check_window,
    _k_closed,
    _ln_E_dead,
    g_pieces,
    h_pieces,
    integrand,
    j_pieces,
    log_derivative_integral,
    log_derivative_moments,
    monomial_closed_form,
    region_samples,
    zeta_samples,
    ztilde_2d,
)

CFG = NumericConfig()
MINI_TOL = min(1e-11, CFG.tol_2d * 1e-3)     # the inner tolerance of the weighted engine
SUP = PRESETS["supercritical"]     # (0,2,2,2)
CRIT = PRESETS["critical"]         # (0,2,2,1)
GREEN = PRESETS["greenblatt"]      # (1,2,2,1/4)

# Adaptive tanh-sinh oracle values (25+ digits, independent integrator)
ORACLE_Z_SUP_04 = 1.6341153349931692
ORACLE_ZT1_SUP_045 = 2.6605384323041814
ORACLE_ZT2_CRIT_L4_049 = 0.11413806470507014
ORACLE_W_SUP_049 = 26.791796839804343
ORACLE_W_CRIT_X2M8 = 10.095046683202458
ORACLE_Z_GREEN_045 = 1.3496269881465771
# Z(-0.98/6) at (a,b,q,p) = (5,6,4,6): mpmath at 30 digits, the monomial
# integral minus int x^(a s) (lim - inner(x)) dx with the closed-form inner
ORACLE_Z_5646 = 230.899148425969296
# tests/oracle_gen4.py (mpmath, 30 and 40 digits agree to 5e-30): z1 and z2
# at (a, b, q, p, r1, lambda, X), r2 = 1/2; at r1 = 0.9 lambda = 1/4 kinks
# at x = 0.703, and lambda = 4 saturates at r1
ORACLE_Z1_Z2 = {
    (5, 6, 4, 6, 0.5, 1.0, 0.02): (230.71981734912613696, 0.17933107684338404357),
    (4, 5, 2, 5, 0.5, 1.0, 0.02): (189.39281881502831239, 0.33786652067315064151),
    (5, 6, 4, 6, 0.9, 0.25, 0.02): (231.87021132236659346, 1.5396671239404006957),
    (5, 6, 4, 6, 0.5, 4.0, 0.02): (230.82731514458499913, 0.071833281384521874908),
    (5, 6, 4, 6, 0.5, 1.0, 1e-6): (3999445.3054427851359, 1.9811578586148937865),
}

# tests/oracle_inner.py (mpmath, 40 digits, cross-checked by quadrature):
# (b, q, X, log T, log E, int_0^T v^((b-q)s) (v^q + E)^s dv) with s = (X-1)/b;
# from the 21st row on, both sides of z = T^q/E = 2 and of log z = 40, X = 1e-12,
# q = b = 40, X next to q = 1, and z below 1e-308
INNER_ORACLE = [
    (2, 2, 1e-05, -0.10536051565782628, -1.0, 1.1857673522716047025),
    (7, 6, 1e-05, -0.6931471805599453, -5.0, 1.280511871054687574),
    (7, 7, 1e-05, -0.0010005003335835344, -1.0, 1.1182697699494482809),
    (2, 2, 0.125, 0.0, 0.0, 0.89484623049904758944),
    (7, 6, 1e-05, 0.0, 0.0, 1.1502084460696192861),
    (3, 1, 0.5, 0.0, 0.0, 1.4244573963521167944),
    (2, 2, 0.00390625, -0.6931471805599453, -0.1, 0.50400552600766204325),
    (1, 1, 0.0001, -1.2039728043259361, -0.5, 0.40185755440342453892),
    (3, 2, 0.0001, -0.0010005003335835344, -20.0, 11.270073432027091044),
    (6, 4, 0.00390625, -0.7985076962177716, -200.0, 45.804108841679946438),
    (2, 2, 0.125, -0.6931471805599453, -690.0, 7.3360323456373698739),
    (7, 1, 0.001, -2.995732273553991, -690.0, 498.81590103450353092),
    (5, 4, 1e-05, -1.2039728043259361, -690.0, 172.32326201858244534),
    (3, 3, 1e-07, -0.6931471805599453, -5.0, 1.8310098592816018505),
    (2, 2, 0.125, -0.6931471805599453, -700.3862943611199, 7.3360323456373698745),
    (2, 2, 0.125, -0.6931471805599453, -702.3862943611199, 7.3360323456373698746),
    (2, 2, 1e-05, -0.6931471805599453, -700.3862943611199, 349.57826711740027381),
    (2, 2, 1e-05, -0.6931471805599453, -702.3862943611199, 350.57475942081151161),
    (7, 6, 0.00390625, -1.2039728043259361, -706.2238368259556, 93.868684608776192528),
    (7, 6, 0.00390625, -1.2039728043259361, -708.2238368259556, 94.078092737058432667),
    (3, 2, 0.00390625, -0.6931471805599453, -2.069441541679836, 1.6828687489944338307),
    (3, 2, 0.00390625, -0.6931471805599453, -2.0894415416798355, 1.691519618421190258),
    (7, 6, 1e-10, -1.2039728043259361, -7.906984006515563, 1.2555984107166557723),
    (7, 6, 1e-10, -1.2039728043259361, -7.926984006515562, 1.2587441493618056029),
    (2, 2, 1e-05, -0.6931471805599453, -41.37629436111989, 20.68586805846513717),
    (2, 2, 1e-05, -0.6931471805599453, -41.396294361119885, 20.695865920063958426),
    (7, 1, 0.5, -0.7985076962177716, -40.78850769621777, 1.34164078593070855),
    (7, 1, 0.5, -0.7985076962177716, -40.80850769621777, 1.3416407859363718379),
    (2, 2, 1e-12, -0.6931471805599453, -1.8862943611198906, 1.0686734510325332378),
    (2, 2, 1e-12, -0.6931471805599453, -21.38629436111989, 10.693147181011062856),
    (2, 2, 1e-12, -0.6931471805599453, -401.3862943611199, 200.69314716028282745),
    (7, 1, 1e-12, -1.2039728043259361, -601.203972804326, 606.7867643924671067),
    (40, 40, 1e-05, -0.6931471805599453, -28.225887222397812, 1.0118153917677742787),
    (40, 40, 1e-05, -0.6931471805599453, -28.429034402957758, 1.0168387629202541757),
    (40, 40, 1e-05, -0.6931471805599453, -47.725887222397816, 1.4989736602937791861),
    (40, 40, 1e-05, -0.6931471805599453, -67.7358872223978, 1.9992114429992045541),
    (40, 40, 0.5, -0.6931471805599453, -327.72588722239783, 1.397575530710300721),
    (3, 1, 0.9999999990686774, -0.6931471805599453, -1.6931471805599454, 0.50000000066481809393),
    (40, 40, 1e-05, -18.420680743952367, -1.0, 1.0253148641956789713e-8),
]

# tests/oracle_inner.py (mpmath, 40 digits from the Gamma form, cross-checked
# by quadrature of C1 + C2(inf)): (b, q, X, K) with s = (X-1)/b
K_ORACLE = [
    (2, 1, 0.5, 0.80185976526440779256),
    (2, 1, 0.0101, 1.3684725454823863219),
    (2, 1, 0.0099, 1.3688217977950622191),
    (2, 1, 1e-05, 1.3862765275777489758),
    (2, 1, 1e-08, 1.3862943432861601051),
    (2, 1, 1e-12, 1.3862943611181072852),
    (2, 2, 0.5, 0.80185976526440779256),
    (2, 2, 0.0101, 0.69488162555441126289),
    (2, 2, 0.0099, 0.69484713826322059442),
    (2, 2, 1e-05, 0.69314889063714016245),
    (2, 2, 1e-08, 0.69314718227001542264),
    (2, 2, 1e-12, 0.69314718056011631264),
    (3, 2, 0.5, 1.0632425632231359849),
    (3, 2, 0.0101, 1.2713816226398690686),
    (3, 2, 0.0099, 1.2715001815148719598),
    (3, 2, 1e-05, 1.2774030490618964856),
    (3, 2, 1e-08, 1.2774090515510984586),
    (3, 2, 1e-12, 1.277409057559035924),
    (6, 4, 0.5, 1.1667440299536859616),
    (6, 4, 0.0101, 1.431720498934377581),
    (6, 4, 0.0099, 1.4318585131677753792),
    (6, 4, 1e-05, 1.4387209837689612045),
    (6, 4, 1e-08, 1.4387279531419579878),
    (6, 4, 1e-12, 1.4387279601176478984),
    (7, 1, 0.5, 1.5904091808649320052),
    (7, 1, 0.0101, 6.3884297629084663148),
    (7, 1, 0.0099, 6.3958738000288099322),
    (7, 1, 1e-05, 6.7863462288565926678),
    (7, 1, 1e-08, 6.7867641589491836718),
    (7, 1, 1e-12, 6.7867645772809704148),
    (7, 7, 0.5, 0.98385980980810337792),
    (7, 7, 0.0101, 0.96981145417433020676),
    (7, 7, 0.0099, 0.96980602935527804458),
    (7, 7, 1e-05, 0.96953806741007852966),
    (7, 7, 1e-08, 0.96953779703105086035),
    (7, 7, 1e-12, 0.96953779676042854344),
    (60, 60, 0.5, 0.99977288178558433391),
    (60, 60, 0.59, 0.99981355508021653592),
    (100, 1, 0.009, 52.865885543595015345),
    (100, 1, 0.00081, 92.559988782119520893),
    (100, 1, 0.00079, 92.72999345742848099),
    (50, 1, 0.0099, 33.635645904652978421),
    (50, 1, 1e-05, 49.943085956954017328),
    (2, 1, 0.9, 0.55112160718726470695),
    (2, 1, 0.999, 0.50050008900544166006),
    (2, 1, 0.9999990463256836, 0.50000047683723893598),
    (7, 1, 0.9, 0.95014422677159262147),
    (7, 1, 0.999, 0.85800065639958452778),
    (7, 1, 0.9999990463256836, 0.85714367457858186767),
]

# tests/oracle_inner.py (mpmath, 40 digits in y then w = log y, cross-checked
# at 30 digits in w alone): (b, q, X, log e, D) with s = (X-1)/b, R2 = 1/2 and
# D = int_0^R2 y^((b-q)s) (y^q + e^q)^s (phi_y(y) - 1) dy, the bump-weighted
# correction column; log e in {log 1, log(R2/2), log(R2 1e-3), log(R2 1e-8)}
# and just above the dead threshold (log E0 + 0.01)/q
DELTA_ORACLE = [
    (3, 2, 0.125, 0.0, -0.25800598306543043597),
    (3, 2, 0.125, -1.3862943611198906, -0.43468380083204805074),
    (3, 2, 0.125, -7.600902459542082, -0.50778195753306422549),
    (3, 2, 0.125, -19.11382792451231, -0.50778327432405315672),
    (3, 2, 0.125, -41.411413017506355, -0.50778327432405335519),
    (3, 2, 0.00390625, 0.0, -0.267863616602537789),
    (3, 2, 0.00390625, -1.3862943611198906, -0.48627510874335671393),
    (3, 2, 0.00390625, -7.600902459542082, -0.58410369070185548881),
    (3, 2, 0.00390625, -19.11382792451231, -0.58410610634747704813),
    (3, 2, 0.00390625, -41.411413017506355, -0.58410610634747765216),
    (3, 2, 1e-05, 0.0, -0.26818819913690604223),
    (3, 2, 1e-05, -1.3862943611198906, -0.48804075700608634614),
    (3, 2, 1e-05, -7.600902459542082, -0.5867721809810280936),
    (3, 2, 1e-05, -19.11382792451231, -0.58677464637003548626),
    (3, 2, 1e-05, -41.411413017506355, -0.58677464637003611651),
    (3, 2, 1e-10, 0.0, -0.26818903279797107125),
    (3, 2, 1e-10, -1.3862943611198906, -0.48804529748324270895),
    (3, 2, 1e-10, -7.600902459542082, -0.58677904802552618865),
    (3, 2, 1e-10, -19.11382792451231, -0.58678151354368990198),
    (3, 2, 1e-10, -41.411413017506355, -0.58678151354369053229),
    (6, 4, 0.125, 0.0, -0.26722677628192047661),
    (6, 4, 0.125, -1.3862943611198906, -0.47001236631979379304),
    (6, 4, 0.125, -7.600902459542082, -0.50778320264427395043),
    (6, 4, 0.125, -19.11382792451231, -0.50778327432405335349),
    (6, 4, 0.125, -31.413913017506356, -0.50778327432405335519),
    (6, 4, 0.00390625, 0.0, -0.27872148543007799706),
    (6, 4, 0.00390625, -1.3862943611198906, -0.53161085609774468542),
    (6, 4, 0.00390625, -7.600902459542082, -0.58410589802015874278),
    (6, 4, 0.00390625, -19.11382792451231, -0.58410610634747763225),
    (6, 4, 0.00390625, -31.413913017506356, -0.58410610634747765216),
    (6, 4, 1e-05, 0.0, -0.27910042151545810117),
    (6, 4, 1e-05, -1.3862943611198906, -0.53373019725469922192),
    (6, 4, 1e-05, -7.600902459542082, -0.58677443079598596904),
    (6, 4, 1e-05, -19.11382792451231, -0.58677464637003609496),
    (6, 4, 1e-05, -31.413913017506356, -0.58677464637003611651),
    (6, 4, 1e-10, 0.0, -0.27910139481456590726),
    (6, 4, 1e-10, -1.3862943611198906, -0.53373564819568474243),
    (6, 4, 1e-10, -7.600902459542082, -0.5867812979507226294),
    (6, 4, 1e-10, -19.11382792451231, -0.58678151354369051073),
    (6, 4, 1e-10, -31.413913017506356, -0.58678151354369053229),
    (2, 2, 0.125, 0.0, -0.18669518727838752446),
    (2, 2, 0.125, -1.3862943611198906, -0.40450191039712260087),
    (2, 2, 0.125, -7.600902459542082, -0.50778131154092035231),
    (2, 2, 0.125, -19.11382792451231, -0.50778327432405302554),
    (2, 2, 0.125, -41.411413017506355, -0.50778327432405332295),
    (2, 2, 0.00390625, 0.0, -0.18515550683953012891),
    (2, 2, 0.00390625, -1.3862943611198906, -0.44734094434260074492),
    (2, 2, 0.00390625, -7.600902459542082, -0.58410252344613165332),
    (2, 2, 0.00390625, -19.11382792451231, -0.58410610634747674999),
    (2, 2, 0.00390625, -41.411413017506355, -0.58410610634747765216),
    (2, 2, 1e-05, 0.0, -0.18510621346267949874),
    (2, 2, 1e-05, -1.3862943611198906, -0.44879598804142982934),
    (2, 2, 1e-05, -7.600902459542082, -0.58677099041350146312),
    (2, 2, 1e-05, -19.11382792451231, -0.58677464637003517535),
    (2, 2, 1e-05, -41.411413017506355, -0.58677464637003611651),
    (2, 2, 1e-10, 0.0, -0.18510608696872955983),
    (2, 2, 1e-10, -1.3862943611198906, -0.44879972886426969788),
    (2, 2, 1e-10, -7.600902459542082, -0.58677785739749997647),
    (2, 2, 1e-10, -19.11382792451231, -0.58678151354368962915),
    (2, 2, 1e-10, -41.411413017506355, -0.58678151354369057041),
    (40, 40, 0.125, 0.0, -0.19827491939053071372),
    (40, 40, 0.125, -1.3862943611198906, -0.47756013393382677392),
    (40, 40, 0.125, -7.600902459542082, -0.5077832209039739265),
    (40, 40, 0.125, -19.11382792451231, -0.50778327432405328944),
    (40, 40, 0.125, -22.416163017506356, -0.5077832743240532907),
    (40, 40, 0.00390625, 0.0, -0.19827491939053068017),
    (40, 40, 0.00390625, -1.3862943611198906, -0.54101783134912996926),
    (40, 40, 0.00390625, -7.600902459542082, -0.58410594452212814711),
    (40, 40, 0.00390625, -19.11382792451231, -0.58410610634747763669),
    (40, 40, 0.00390625, -22.416163017506356, -0.58410610634747765214),
    (40, 40, 1e-05, 0.0, -0.19827491939053067909),
    (40, 40, 1e-05, -1.3862943611198906, -0.54320100544699580205),
    (40, 40, 1e-05, -7.600902459542082, -0.58677447870459922232),
    (40, 40, 1e-05, -19.11382792451231, -0.58677464637003609975),
    (40, 40, 1e-05, -22.416163017506356, -0.58677464637003611649),
    (40, 40, 1e-10, 0.0, -0.19827491939053067909),
    (40, 40, 1e-10, -1.3862943611198906, -0.54320662054409407327),
    (40, 40, 1e-10, -7.600902459542082, -0.58678134586299937125),
    (40, 40, 1e-10, -19.11382792451231, -0.58678151354369059177),
    (40, 40, 1e-10, -22.416163017506356, -0.58678151354369060851),
]

# tests/oracle_inner.py (mpmath, 30 digits in y, cross-checked at 30 digits in
# w = log y): (b, s, D0) with R2 = 1/2 and D0 = int_0^R2 y^(b s) (phi_y(y) - 1) dy,
# the bump correction of the E = 0 column C = R2^X/X + D0
E0_ORACLE = [
    (2, -0.4999, -0.58664418655201725484),
    (2, -0.3, -0.37333570037935173322),
    (2, -0.01, -0.20236464807296990575),
    (3, -0.3332333333333333, -0.58657553706135019294),
    (3, -0.19999999999999998, -0.37333570037935172187),
    (3, -0.01, -0.20444416024830179048),
    (7, -0.14275714285714286, -0.5863010326594865534),
    (7, -0.08571428571428572, -0.37333570037935174457),
    (7, -0.01, -0.21300012846119740274),
]

# tests/oracle_gen3.py F (mpmath, 30 digits, checked against 40): (c, F(c)) with
# F(c) = int_0^1 u^c (exp(u^2/(u^2 - 1)) - 1) du, the bump correction of a
# power on the unit interval; on a half-width R it is R^(c+1) F(c)
F_ORACLE = [
    (-0.9999, -0.586753514646773142688736855233),
    (-0.6, -0.492619410024493639879224334247),
    (-0.3, -0.439508519766538105696705439337),
    (0.0, -0.396549838781061912331881001835),
    (0.5, -0.34064117775579847810564455764),
]


def test_integrand_monomial_reduction():
    # x below the flat cutoff: reduces exactly to x^(a s) y^(b s)
    p = FamilyParams(0, 2, 2, Fraction(1))
    assert integrand(p, 1e-8, 0.25, -0.25, flat=True) == pytest.approx(0.25 ** -0.5, rel=1e-15)


def test_integrand_crossover_point():
    # y^2 = E(x) at x=1/2, y=e^-1 for (0,2,2,1): value (2 e^-2)^(-1/2) = e/sqrt(2)
    p = FamilyParams(0, 2, 2, Fraction(1))
    v = integrand(p, 0.5, math.exp(-1.0), -0.5, flat=True)
    assert v == pytest.approx(math.e / math.sqrt(2.0), rel=1e-14)


def test_integrand_matches_literal_form():
    v = integrand(GREEN, 0.3, 0.2, -0.45, flat=True)
    literal = abs(0.3 * 0.2**2 + 0.3 * math.exp(-1.0 / 0.3**0.25)) ** -0.45
    assert v == pytest.approx(literal, rel=1e-12)


def test_integrand_matches_literal_randomized():
    # factored log-domain form vs the literal product, where the latter is
    # representable (moderate x, y)
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = int(rng.integers(2, 6))
        a = int(rng.integers(0, b))
        q = int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        params = FamilyParams(a, b, q, p)
        x = float(rng.uniform(0.05, 0.5))
        y = float(rng.uniform(0.05, 0.5))
        sigma = float(rng.uniform(-1.0 / b + 0.01, -0.01))
        lit = (x**a * y**b + x**a * y ** (b - q) * math.exp(-1.0 / x**float(p))) ** sigma
        assert integrand(params, x, y, sigma, flat=True) == pytest.approx(lit, rel=1e-12)


def test_integrand_where_E_underflows():
    # log E = q log e(x) = -1/x^p, not the log of an underflowed E: at
    # (0,2,2,2) the integrand is exp(s logaddexp(2 log y, -1/x^2)).  At
    # 1/x^2 = 1000, y = 1e-200 and s = -0.4 it is 1.00e160 (an E of 5e-324
    # gave 2.10e129), and on a grid of 1/x^2 from 745 to 1380, with y^2
    # on both sides of E, it meets that form within 1e-12
    params = FamilyParams(0, 2, 2, Fraction(2))
    v = integrand(params, 1000.0 ** -0.5, 1e-200, -0.4, flat=True)
    assert v == pytest.approx(math.exp(-0.4 * np.logaddexp(-400.0 * math.log(10.0), -1000.0)),
                              rel=1e-12)
    t = np.linspace(745.0, 1380.0, 128)
    for d in (-20.0, -1.0, 0.0, 3.0, 20.0):
        y = np.exp(-t / 2.0 + d)
        ref = np.exp(-0.4 * np.logaddexp(2.0 * np.log(y), -t))
        got = integrand(params, 1.0 / np.sqrt(t), y, -0.4, flat=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), d


def test_integrand_rejects_boundary():
    with pytest.raises(Exception):
        integrand(SUP, 0.0, 0.5, -0.4, flat=True)


def test_monomial_closed_form():
    # (a,b,r1,r2,X) = (1,2,1/2,1/2,1/2), sigma = -1/4 -> (8/3) (1/2)^(5/4)
    v = monomial_closed_form(1, 2, 0.5, 0.5, 0.5)
    assert v == pytest.approx(8.0 / 3.0 * 0.5**1.25, rel=1e-15)
    assert monomial_closed_form(0, 2, 1.0, 1.0, 0.5) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(PoleHit):
        monomial_closed_form(1, 2, 0.5, 0.5, 0.0)
    # X is used as given: rebuilt from sigma it would lose eps/X, 1e-4
    # relative at X = 1e-12
    X = 1e-12
    ax = (X - 1.0) / 3 + 1.0
    assert monomial_closed_form(1, 3, 0.5, 0.5, X) == pytest.approx(
        0.5**ax * 0.5**X / (ax * X), rel=4e-16)


def test_zeta_quadrant_flat_suppressed_matches_closed_form():
    # 1/(q x^p) = 1/(2 x^2) >= 5e7 on (0, 1e-4]: the flat term is cutoff-dead
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    for sigma in (-0.45, -0.25, -0.1):
        X = p.b * sigma + 1.0
        (z,) = zeta_samples(p, None, [X], CFG, flat=True)
        cf = monomial_closed_form(1, 2, 1e-4, 0.5, X)
        assert z.value == pytest.approx(cf, rel=1e-8)


def test_zeta_quadrant_flat_off_switch():
    for params in (SUP, GREEN):
        for sigma in (-0.45, -0.2):
            X = params.b * sigma + 1.0
            (z,) = zeta_samples(params, None, [X], CFG, flat=False)
            cf = monomial_closed_form(params.a, params.b, params.r1, params.r2, X)
            assert z.value == pytest.approx(cf, rel=1e-10)


@pytest.mark.parametrize("flat", [True, False])
def test_zeta_quadrant_next_to_sigma_zero_at_q1(flat):
    # X = 1 - 2^-53, the largest X in the window, and X/q next to 1 at q = 1:
    # the far columns' constant K must stay finite (the integrand is 1 to
    # double precision)
    p, X = FamilyParams(0, 3, 1, Fraction(1)), 1.0 - 2.0**-53
    (z,) = zeta_samples(p, None, [X], CFG, flat=flat)
    assert z.value == pytest.approx(p.r1 * p.r2**X / X, rel=1e-14)


def test_zeta_quadrant_monomial_oracle_grid():
    # 20-sigma grid against the closed form, flat term suppressed
    p = FamilyParams(1, 3, 2, Fraction(3), r1=0.4, r2=0.7)
    sigmas = np.linspace(-0.32, -0.01, 20)
    for s in sigmas:
        X = p.b * float(s) + 1.0
        (z,) = zeta_samples(p, None, [X], CFG, flat=False)
        cf = monomial_closed_form(p.a, p.b, p.r1, p.r2, X)
        assert abs(z.value - cf) / cf < 1e-8


def test_zeta_quadrant_frozen_oracle():
    (z,) = zeta_samples(SUP, None, [SUP.b * -0.4 + 1.0], CFG, flat=True)
    assert z.value == pytest.approx(ORACLE_Z_SUP_04, rel=1e-9)
    assert z.X == pytest.approx(0.2, abs=1e-15)


def test_zeta_quadrant_frozen_oracle_bounded_regime():
    (z,) = zeta_samples(GREEN, None, [GREEN.b * -0.45 + 1.0], CFG, flat=True)
    assert z.value == pytest.approx(ORACLE_Z_GREEN_045, rel=1e-10)
    assert abs(z.value - ORACLE_Z_GREEN_045) <= 10.0 * z.error


def test_zeta_quadrant_matches_nested_1d_integrand():
    # |f|^sigma for (a,b,q,p)=(1,2,2,1/4) at sigma=-0.45 by nested integrate_1d
    # calls on the public pointwise integrand, the inner y-interval split at
    # the flat crossover y = e(x), against the rescaled-inner engine
    sigma = -0.45
    ep_y = EndpointSpec(exponent_lo=GREEN.b * sigma)

    def column(x):
        c = math.exp(-1.0 / (2.0 * x**0.25))
        cuts = [0.0] + ([c] if 0.0 < c < 0.5 else []) + [0.5]
        return sum(integrate_1d(lambda ys: integrand(GREEN, x, ys, sigma, flat=True), lo, hi,
                                ep_y if lo == 0.0 else None, tol=1e-9).value
                   for lo, hi in zip(cuts, cuts[1:]))

    r = integrate_1d(lambda xs: np.array([column(x) for x in xs]), 0.0, 0.5,
                     EndpointSpec(exponent_lo=GREEN.a * sigma), tol=1e-8)
    (z,) = zeta_samples(GREEN, None, [GREEN.b * sigma + 1.0], CFG, flat=True)
    assert r.value == pytest.approx(z.value, rel=1e-6)


def _inner_column(b, q, X, lnT, lnE):
    """The engine's inner column at one (node, X), as _box_integral makes it."""
    tab = _inner_tables(b, q, lnT, np.array([(X - 1.0) / b]), np.array([X]))
    return _inner_columns(q, lnT, np.array([lnE / q]), np.array([lnE]), tab)[0, 0]


@pytest.mark.parametrize("b, q, X, lnT, lnE, ref", INNER_ORACLE)
def test_inner_closed_form_matches_oracle(b, q, X, lnT, lnE, ref):
    # one bound at every X down to 1e-12: neither series of the column
    # divides by a small difference
    assert abs(_inner_column(b, q, X, lnT, lnE) - ref) <= INNER_REL_ERR * ref


@pytest.mark.parametrize("b, q, X, ref", K_ORACLE)
def test_k_closed_matches_oracle(b, q, X, ref):
    # one form at every X: down to 1e-12 (the oracle's X itself), where L is
    # O(t), at large b, and up to 1 - 2^-20 at q = 1, next to the pole of
    # Gamma(1 - t); the bound is 5x the worst row, 4.0e-15
    K = _k_closed(q, np.array([(X - 1.0) / b]), np.array([X]))[0]
    assert abs(K - ref) <= 2e-14 * ref


@pytest.mark.parametrize("b, q", sorted({row[:2] for row in DELTA_ORACLE}))
def test_increment_columns_match_oracle(b, q):
    # the bump-weighted correction column is one scaled integral in y = e v
    # over (0, R2/e): e above R2, e next to the threshold of the E = 0 column,
    # b > q and q = b, and q = 40, where v^q passes the double range
    rows = [row for row in DELTA_ORACLE if row[:2] == (b, q)]
    X = np.array([row[2] for row in rows])
    sigma = (X - 1.0) / b
    ln_e = np.array([row[3] for row in rows])
    ref = np.array([row[4] for row in rows])
    assert np.all(ln_e > _ln_E_dead(q, 0.5) / q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = _increment_columns(FamilyParams(0, b, q, Fraction(2)), BumpSpec(0.5, 0.5),
                                  sigma, X, np.arange(len(rows)), ln_e, MINI_TOL)
    assert np.all(np.abs(vals - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("b", sorted({row[0] for row in E0_ORACLE}))
def test_dead_column_matches_oracle(b):
    # the E = 0 column's bump correction R2^X F(b s) over the sigmas of b,
    # next to the pole (s = -1/b + 1e-4), inside and near 0; each sigma
    # keeps its one-sigma bits
    rows = [row for row in E0_ORACLE if row[0] == b]
    bs = np.array([b * s for _, s, _ in rows])
    ref = np.array([d for *_, d in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = _dead_column(BumpSpec(0.5, 0.5), bs)
    assert np.all(np.abs(vals - ref) <= 2e-15 * np.abs(ref))
    assert vals.tolist() == [_dead_column(BumpSpec(0.5, 0.5), bs[i:i + 1])[0]
                             for i in range(bs.size)]


def _bump_moments_by_quadrature(cs, tol):
    """F(c) for every c of cs as one regular vector tanh-sinh call on (0, 1):
    the increment phi(u) - 1 vanishes like u^2 at 0, so the integrand is
    bounded there.  An independent reference for the series of _bump_moments."""
    def f(us, cols):
        u = us[:, 0]
        return np.exp(np.log(u)[:, None] * cs[cols]) * bump_y_increment(BumpSpec(1.0, 1.0), u)[:, None]

    return _tanh_sinh(f, 0.0, 1.0, tol, None, k=cs.size)


def test_bump_moments_match_oracle():
    # F(c) from its Taylor series for every c of F_ORACLE, next to the pole
    # (c = -1 + 1e-4) and up to the certified end 1/2, within the documented
    # bound; each c is summed on its own and keeps its one-c bits
    cs = np.array([c for c, _ in F_ORACLE])
    ref = np.array([f for _, f in F_ORACLE])
    vals = _bump_moments(cs)
    assert np.all(np.abs(vals - ref) <= zeta_mod._F_REL_ERR * np.abs(ref))
    assert vals.tolist() == [_bump_moments(cs[i:i + 1])[0] for i in range(cs.size)]
    assert _bump_moments(cs[::-1]).tolist() == vals[::-1].tolist()


def test_bump_moments_match_quadrature():
    # the series against an independent vector quadrature at tol 1e-13, on
    # 200 c in (-1, 1/2]
    cs = np.linspace(-1.0, 0.5, 201)[1:]
    ref, _, _ = _bump_moments_by_quadrature(cs, 1e-13)
    assert np.all(np.abs(_bump_moments(cs) - ref) <= 1e-13 * np.abs(ref))


def test_bump_moments_reject_c_outside_certified_interval():
    # the truncation bound holds on [-1, 1/2] alone
    assert np.all(np.isfinite(_bump_moments(np.array([-1.0, 0.5]))))
    for c in (np.nextafter(-1.0, -2.0), np.nextafter(0.5, 1.0), -3.0, 2.0, math.nan, -math.inf):
        with pytest.raises(DomainError):
            _bump_moments(np.array([-0.5, c]))


def test_bump_mass_is_one_plus_f_at_zero():
    # Phi = int_0^1 phi = 1 + F(0), the mass in the weighted error's share,
    # within the one rounding of 1 + F(0), from the oracle and from the series
    for f0 in (dict(F_ORACLE)[0.0], _bump_moments(np.array([0.0]))[0]):
        assert abs(zeta_mod._BUMP_MASS - (1.0 + f0)) <= math.ulp(zeta_mod._BUMP_MASS)


def test_flat_off_bump_z_error_covers_both_f_factors():
    # (a, b) = (1, 2) at X = 0.4 puts both F of the flat-off weighted Z on
    # F_ORACLE rows: b s = -0.6 and a s = -0.3.  Z = 4 Y1^(a s + 1) (1/(a s +
    # 1) + F(a s)) Y2^X (1/X + F(b s)) exactly; the error carries the
    # series' bound of both F, and is not loose by more than 1000x
    params, bump, X = FamilyParams(1, 2, 2, Fraction(2)), BumpSpec(0.3, 0.45), 0.4
    (z,) = zeta_samples(params, bump, [X], CFG, flat=False)
    assert (z.sigma * params.b, z.sigma * params.a) == (-0.6, -0.3)
    F = dict(F_ORACLE)
    with mpmath.workdps(30):
        ax1, mX = 1 + mpmath.mpf(z.sigma), mpmath.mpf(X)
        oracle = float(4 * mpmath.mpf(bump.R1) ** ax1 * (1 / ax1 + F[-0.3])
                       * mpmath.mpf(bump.R2) ** mX * (1 / mX + F[-0.6]))
    miss = abs(z.value - oracle)
    assert miss <= z.error <= 1000.0 * max(miss, 4.0 * np.finfo(float).eps * abs(z.value))


def test_k_closed_batched_equals_one_sigma():
    # a sigma's K does not depend on the other sigmas of its schedule
    Xs = np.geomspace(1e-9, 0.05, 500)
    for b in range(2, 8):
        for q in range(1, b + 1):
            sigmas = (Xs - 1.0) / b
            K = _k_closed(q, sigmas, Xs)
            one = [_k_closed(q, sigmas[i:i + 1], Xs[i:i + 1])[0] for i in range(Xs.size)]
            assert np.array_equal(K, one), (b, q)


def test_k_closed_next_to_sigma_zero_is_quiet():
    # at q = 1 and X = 1 - 2^-k, 1 - t = 1 - X/q = 2^-k exactly, where 1 - t
    # rebuilt from sigma would round to 0; K -> 1 - 1/b as -s = 2^-k / b -> 0,
    # where log1p(-t) and log1p(t/(-s)) of the shifted log-Gamma differences,
    # near -k log 2 and k log 2 + log b, cancel to log(1/b) with no warning
    Xs = 1.0 - 2.0 ** -np.array([40.0, 52.0, 53.0])
    for b in (2, 3, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = _k_closed(1, (Xs - 1.0) / b, Xs)
        assert K == pytest.approx(1.0 - 1.0 / b, rel=1e-11)


def test_zeta_quadrant_window():
    # sigma = -1/b and sigma = 0 are X = 0 and X = 1
    with pytest.raises(OutOfWindow):
        zeta_samples(SUP, None, [0.0], CFG, flat=True)
    with pytest.raises(OutOfWindow):
        zeta_samples(SUP, None, [1.0], CFG, flat=True)


@pytest.mark.parametrize("X", [0.0, 1.0, -0.25, -2.0, math.nan],
                         ids=["0", "1", "-0.25", "-2", "nan"])
def test_x_outside_the_window_is_rejected_before_quadrature(monkeypatch, X):
    # X = b sigma + 1 must lie in (0, 1) (NaN fails): -0.25 is sigma = -1.25/b,
    # below the window, though as a sigma it would lie inside (-1/b, 0) at b = 3
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", no_quadrature)
    p = FamilyParams(1, 3, 2, Fraction(3, 2))
    with pytest.raises(OutOfWindow):
        _check_window(p, X)
    with pytest.raises(OutOfWindow):
        zeta_samples(p, None, [0.5, X], CFG, flat=True)
    with pytest.raises(OutOfWindow):
        zeta_samples(p, BumpSpec(0.5, 0.5), [X], CFG, flat=False)
    with pytest.raises(OutOfWindow):
        region_samples(p, [1.0], [X, 0.5], CFG)


@pytest.mark.parametrize("b", [3, 7])
def test_samples_hold_the_callers_x_bit_for_bit(b):
    # X is the engine's input: every sample holds the caller's X bit for bit
    # and sigma = (X - 1)/b; X rebuilt as b sigma + 1 would be off by eps/X
    # relative, 1e-4 at X = 1e-12
    xs = [0.5 * 0.1**k for k in range(12)] + [1e-12]
    params = FamilyParams(1, b, 2, Fraction(3, 2))
    for flat in (True, False):
        for z, X in zip(zeta_samples(params, None, xs, CFG, flat=flat), xs):
            assert z.X == X and z.sigma == (X - 1.0) / b
    for tr, X in zip(region_samples(params, [1.0], xs[::4], CFG), xs[::4]):
        assert tr.X == X and tr.sigma == (X - 1.0) / b


@pytest.mark.parametrize("fam, x0", [((1, 2, 2, 2), 0.125), ((1, 3, 2, Fraction(3, 2)), 1e-6),
                                     ((0, 7, 1, 5), 0.8192)], ids=["1222", "1323/2", "0715"])
def test_flat_off_error_bounds_the_actual_error(fam, x0):
    # without the flat term Z is r1^(a s + 1) r2^X / ((a s + 1) X) at the
    # sample's own X; the reported error covers the actual one and is a
    # quadrature error, not a bound on the inner columns the path does not
    # build
    a, b, q, p = fam
    params = FamilyParams(a, b, q, Fraction(p))
    for z in zeta_samples(params, None, make_schedule(x0, 0.5, 14).xs, CFG, flat=False):
        exact = monomial_closed_form(a, b, params.r1, params.r2, z.X)
        assert abs(z.value - exact) <= z.error <= 1e-12 * z.value, z


def test_zeta_monotone_decreasing_in_sigma():
    sigmas = np.linspace(-0.49, -0.05, 12)
    for params in (SUP, CRIT, GREEN):
        vals = [zeta_samples(params, None, [params.b * float(s) + 1.0], CFG, flat=True)[0].value
                for s in sigmas]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_zeta_weighted_below_quadrant_bound():
    bump = BumpSpec(0.5, 0.5)
    X = CRIT.b * -0.4 + 1.0
    (zw,) = zeta_samples(CRIT, bump, [X], CFG, flat=True)
    (zq,) = zeta_samples(CRIT, None, [X], CFG, flat=True)
    assert 0.0 < zw.value < 4.0 * zq.value


def test_zeta_weighted_frozen_oracle():
    (zw,) = zeta_samples(SUP, BumpSpec(0.5, 0.5), [SUP.b * -0.49 + 1.0], CFG, flat=True)
    assert zw.value == pytest.approx(ORACLE_W_SUP_049, rel=1e-8)


def test_zeta_weighted_frozen_oracle_deep_X():
    # X = 2^-8: most of the inner mass sits below double precision; the
    # analytic main-term assembly must still track the 20-digit oracle
    (zw,) = zeta_samples(CRIT, BumpSpec(0.5, 0.5), [2.0 ** -8], CFG, flat=True)
    assert zw.value == pytest.approx(ORACLE_W_CRIT_X2M8, rel=1e-9)


def test_zeta_weighted_odd_q_rejected():
    p = FamilyParams(0, 3, 1, Fraction(2))
    with pytest.raises(OddQNotSupported):
        zeta_samples(p, BumpSpec(0.5, 0.5), [p.b * -0.2 + 1.0], CFG, flat=True)
    with pytest.raises(OddQNotSupported):
        zeta_samples(p, BumpSpec(0.5, 0.5), [p.b * -0.2 + 1.0, p.b * -0.3 + 1.0], CFG, flat=True)


def _seeded_family(seed: int, even_q: bool) -> FamilyParams:
    """A random member with b <= 7, p = num/den <= 2 and a random box."""
    rng = np.random.default_rng(seed)
    while True:
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        if p <= 2 and not (even_q and q % 2):
            return FamilyParams(a, b, q, p, *map(float, rng.uniform(0.25, 0.5, 2)))


# (family, schedule start X0, flat): 14-point schedules with ratio 1/2; the
# pinned (0,7,1,5) schedule ends at X = 1e-4, where the far columns' flat
# crossover is hardest to resolve
BATCH_CASES = [
    (SUP, 0.125, True), (CRIT, 0.1, True), (GREEN, 0.0819, True),
    (_seeded_family(7, False), 0.07, True), (GREEN, 0.125, False),
    (FamilyParams(0, 7, 1, Fraction(5)), 0.8192, True),
]
WEIGHTED_CASES = [
    (SUP, 0.125, True), (CRIT, 0.1, True), (GREEN, 0.0819, True),
    (_seeded_family(7, True), 0.07, True), (GREEN, 0.125, False),
]


@pytest.mark.parametrize("b", [7, 50])
def test_zeta_quadrant_error_meets_tolerance_at_small_X(b):
    # (0,b,1,5) at X = 1e-4: the outer quadrature converges to tol_2d; a
    # step that no longer shrinks, accepted as converged, reports 0.83 on
    # Z ~ 1850
    (z,) = zeta_samples(FamilyParams(0, b, 1, Fraction(5)), None, [b * ((1e-4 - 1.0) / b) + 1.0],
                        CFG, flat=True)
    assert z.error <= 100.0 * CFG.tol_2d * z.value


@pytest.mark.parametrize("bump", [None, BumpSpec(0.5, 0.5)], ids=["quadrant", "weighted"])
def test_zeta_samples_match_one_sigma_calls(bump):
    # each sigma of a batch is one component of the vector quadratures and
    # returns its one-sigma call's value and error bit for bit: an inner
    # column is one np.vecdot of a node's power row and the sigma's
    # coefficient row, and the weighted inner columns share their per-row
    # factors among the sigmas of a row in the same operations
    for params, x0, flat in (BATCH_CASES if bump is None else WEIGHTED_CASES):
        sched = make_schedule(x0, 0.5, 14)
        batch = zeta_samples(params, bump, sched.xs, CFG, flat=flat)
        assert len(batch) == 14
        for X, z in zip(sched.xs, batch):
            (one,) = zeta_samples(params, bump, [X], CFG, flat=flat)
            assert (z.sigma, z.X, z.value, z.error) == (one.sigma, one.X, one.value, one.error)


def test_weighted_inner_rows_share_the_bump_increment(monkeypatch):
    # the components of one inner row (one outer abscissa, its live sigmas)
    # share the mapped abscissae and the flat factor, and every component
    # the bump increment at y = R2 u: inside the scaled columns it is
    # evaluated once per node, not per (node, row) or (node, sigma)
    count = {"increment": 0, "cells": 0, "nodes": 0}
    inside = [False]
    real_increment, real_tanh_sinh = zeta_mod.bump_y_increment, zeta_mod._tanh_sinh

    def increment(spec, y):
        count["increment"] += inside[0] * np.size(y)
        return real_increment(spec, y)

    def tanh_sinh(f, *args, **kwargs):
        if f.__qualname__.split(".")[0] == "_increment_columns":
            def counted(us, cols):
                inside[0] = True
                out = f(us, cols)
                inside[0] = False
                count["cells"] += out.size
                count["nodes"] += us.shape[0]
                return out
            return real_tanh_sinh(counted, *args, **kwargs)
        return real_tanh_sinh(f, *args, **kwargs)

    monkeypatch.setattr(zeta_mod, "bump_y_increment", increment)
    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    sched = make_schedule(0.1, 0.5, 14)
    zeta_samples(CRIT, BumpSpec(0.5, 0.5), sched.xs, CFG, flat=True)
    assert count["increment"] > 0
    assert count["increment"] == count["nodes"]
    assert count["increment"] <= count["cells"] / 4


#: Evaluations of the correction columns (_increment_columns) in one
#: bump-weighted default schedule per preset, when every column ran to
#: MINI_TOL of its own value
INNER_EVALS_AT_MINI_TOL = {"critical": 210917, "greenblatt": 181888, "supercritical": 231014}


@pytest.mark.parametrize("name", sorted(INNER_EVALS_AT_MINI_TOL))
def test_correction_columns_stop_at_their_column_tolerance(monkeypatch, name):
    # each correction column Delta stops at tol max(MINI_TOL, tau C/|D|),
    # tau = tol_2d / 100, as |Delta| <= |D| and it is added to C: as the
    # tanh-sinh error about squares per level, nearly every column stops a
    # level sooner, at about half the evaluations
    evals = [0]
    real = zeta_mod._tanh_sinh

    def tanh_sinh(f, *args, **kwargs):
        values, errors, ev = real(f, *args, **kwargs)
        if f.__qualname__.split(".")[0] == "_increment_columns":
            evals[0] += ev
        return values, errors, ev

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    params = PRESETS[name]
    zeta_samples(params, BumpSpec(0.5, 0.5), make_schedule(0.125, 0.5, 14).xs, CFG,
                 flat=True)
    assert 0 < evals[0] <= 0.55 * INNER_EVALS_AT_MINI_TOL[name]


@pytest.mark.parametrize("params, bump, sched", [
    (FamilyParams(0, 40, 40, Fraction(2)), BumpSpec(0.2, 0.95), (0.3, 0.25, 12)),
    (CRIT, BumpSpec(0.5, 0.5), (0.125, 0.5, 14)),
    (GREEN, BumpSpec(0.9, 0.3), (1e-3, 0.25, 12)),
], ids=["q40", "critical", "greenblatt"])
def test_weighted_error_counts_the_inner_share(params, bump, sched):
    # the correction columns' steps are at most tau C <= (tau/Phi) W (W >=
    # Phi C by Chebyshev's integral inequality), so the error carries
    # (tau/Phi)|Z|: default samples meet those of tol_2d = 1e-10 (tau =
    # 1e-12) within it.  On q40 at X = 0.001171875 the two differ by 5x the
    # error without the share
    xs = make_schedule(*sched).xs
    got = zeta_samples(params, bump, xs, CFG, flat=True)
    ref = zeta_samples(params, bump, xs, NumericConfig(tol_2d=1e-10), flat=True)
    share = CFG.tol_2d * 1e-2 / zeta_mod._BUMP_MASS
    for z, r in zip(got, ref):
        assert z.error >= share * z.value
        assert abs(z.value - r.value) <= z.error, (z, r)


@pytest.mark.parametrize("flat", [True, False])
def test_zeta_samples_one_outer_call(monkeypatch, flat):
    # a whole schedule is one vector quadrature over x with the flat term on
    # (the far columns' constant K is a closed form, not a quadrature), and
    # none with it off, where the box integral is the product C I_x
    calls = []
    real = zeta_mod._tanh_sinh

    def tanh_sinh(f, lo, hi, *args, **kwargs):
        calls.append((lo, hi, kwargs.get("k")))
        return real(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    sched = make_schedule(0.125, 0.5, 14)
    zeta_samples(SUP, None, sched.xs, CFG, flat=flat)
    assert calls == flat * [(0.0, SUP.r1, 14)]


@pytest.mark.parametrize("bump", [None, BumpSpec()], ids=["unweighted", "bump"])
@pytest.mark.parametrize("flat", [True, False])
def test_zeta_samples_empty_batch(bump, flat):
    # an empty batch is an empty list, with the flat term on or off
    assert zeta_samples(CRIT, bump, [], CFG, flat=flat) == []


def test_ztilde1_saturated_equals_2d():
    # lam r2 = 2 >= e(r1): saturation branch, upper limit rho = r1
    lam, X = 2.0 / CRIT.r2, CRIT.b * -0.4 + 1.0
    v1 = region_samples(CRIT, [lam], [X], CFG)[0].ztilde1
    v2, _ = ztilde_2d(CRIT, lam, X, CFG)
    assert v1 == pytest.approx(v2, rel=1e-6)


def test_ztilde1_frozen_oracle():
    (tr,) = region_samples(SUP, [1.0], [SUP.b * -0.45 + 1.0], CFG)
    assert tr.ztilde1 == pytest.approx(ORACLE_ZT1_SUP_045, rel=1e-10)


def test_ztilde1_flat_suppressed_exact():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    sigma = -0.3
    X = p.b * sigma + 1.0
    lam = 1.0
    # e == 0 on the domain: lam^-X X^-1 (lam r2)^X int_0^r1 x^(a s) dx exactly
    expect = lam**-X / X * (lam * p.r2) ** X * p.r1 ** (p.a * sigma + 1.0) / (p.a * sigma + 1.0)
    assert region_samples(p, [lam], [X], CFG)[0].ztilde1 == pytest.approx(expect, rel=1e-10)


def test_ztilde2_frozen_oracle():
    (tr,) = region_samples(CRIT, [4.0], [CRIT.b * -0.49 + 1.0], CFG)
    assert tr.ztilde2 == pytest.approx(ORACLE_ZT2_CRIT_L4_049, rel=1e-9)


def test_ztilde2_vanishes_when_flat_dead():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    (tr,) = region_samples(p, [1.0], [p.b * -0.3 + 1.0], CFG)
    assert tr.ztilde2 == pytest.approx(0.0, abs=1e-300)


def test_ztilde2_matches_2d():
    for params, lam, sigma in ((GREEN, 1.0, -0.45), (CRIT, 0.5, -0.3), (SUP, 2.0, -0.45)):
        X = params.b * sigma + 1.0
        v1 = region_samples(params, [lam], [X], CFG)[0].ztilde2
        _, v2 = ztilde_2d(params, lam, X, CFG)
        assert v1 == pytest.approx(v2, rel=1e-5)


def test_ztilde_reductions_match_2d_over_families():
    # the 1D reductions against their direct iterated quadratures on seeded
    # families over the whole parameter space, kinked and saturated slices
    # alike (13 of the 60 draws kink; worst residuals 9e-12 for ztilde1 and
    # 2e-10 for ztilde2)
    rng = np.random.default_rng(7)
    n_kinked = 0
    for _ in range(60):
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 7)))
        params = FamilyParams(a, b, q, p, *map(float, rng.uniform(0.05, 0.95, 2)))
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        sigma = (10.0 ** rng.uniform(-3.0, math.log10(0.5)) - 1.0) / b
        X = b * sigma + 1.0
        n_kinked += rho(params, lam * params.r2) < params.r1
        (tr,) = region_samples(params, [lam], [X], CFG)
        for v1, v2, name in zip((tr.ztilde1, tr.ztilde2), ztilde_2d(params, lam, X, CFG),
                                ("ztilde1", "ztilde2")):
            assert abs(v1 - v2) <= 1e-8 * abs(v1), (params, lam, X, name)
    assert 0 < n_kinked < 60


ZT1_FAMILIES = {**PRESETS, "(5,6,4,6)": FamilyParams(5, 6, 4, Fraction(6)),
                "(1,2,2,1/4) kinked": FamilyParams(1, 2, 2, Fraction(1, 4), r1=0.3, r2=0.45)}


@pytest.mark.parametrize("name", sorted(ZT1_FAMILIES))
def test_ztilde1_matches_2d_down_to_tiny_X(name):
    # zt1, an x-quadrature of its exact inner integral, against
    # region_samples' ztilde1, one incomplete Gamma, down to X = 1e-12
    # (worst 2.2e-9, on the kinked box at lambda = 1, X = 1e-8)
    params = ZT1_FAMILIES[name]
    for tr in region_samples(params, [0.25, 1.0, 4.0], [0.5, 0.02, 1e-4, 1e-8, 1e-12], CFG):
        zt1, _ = ztilde_2d(params, tr.lam, tr.X, CFG)
        assert abs(zt1 - tr.ztilde1) <= 1e-8 * tr.ztilde1, (tr.lam, tr.X)


def test_ztilde2_matches_2d_down_to_tiny_X():
    # zt2's column is one exp of X log e - al log lambda inside the slice,
    # with its inner integral exactly 1/al: on (5,6,4,6) it stays within
    # 1e-12 of region_samples' ztilde2 down to X = 1e-12 (the split
    # exponent q s log e + al log(e/lambda) drifted to 7.5e-7)
    params = FamilyParams(5, 6, 4, Fraction(6))
    for tr in region_samples(params, [0.25, 1.0, 4.0], [1e-4, 1e-8, 1e-12], CFG):
        _, zt2 = ztilde_2d(params, tr.lam, tr.X, CFG)
        assert abs(zt2 - tr.ztilde2) <= 1e-12 * tr.ztilde2, (tr.lam, tr.X)


@pytest.mark.parametrize("fn", [
    pytest.param(lambda *args: ztilde_2d(*args)[0], id="ztilde1_2d"),
    pytest.param(lambda *args: ztilde_2d(*args)[1], id="ztilde2_2d"),
])
@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_ztilde_2d_rejects_nonpositive_lambda(fn, lam):
    with pytest.raises(DomainError, match="lambda must be positive"):
        fn(CRIT, lam, CRIT.b * -0.4 + 1.0, CFG)


def test_region_pieces_additivity_and_sandwich():
    rng = np.random.default_rng(11)
    for params in (SUP, CRIT, GREEN):
        for _ in range(3):
            lam = float(10.0 ** rng.uniform(-1.5, 1.5))
            sigma = float(rng.uniform(-0.47, -0.06))
            X = params.b * sigma + 1.0
            (z,) = zeta_samples(params, None, [X], CFG, flat=True)
            (tr,) = region_samples(params, [lam], [X], CFG)
            assert z.value == pytest.approx(tr.z1 + tr.z2, rel=1e-6)
            lo1 = (1.0 + lam**params.q) ** sigma * tr.ztilde1
            lo2 = (1.0 + lam ** -params.q) ** sigma * tr.ztilde2
            eps = 1e-12 * z.value + 10.0 * (z.error + tr.error)
            assert lo1 - eps <= tr.z1 <= tr.ztilde1 + eps
            assert lo2 - eps <= tr.z2 <= tr.ztilde2 + eps
            assert lo1 + lo2 - eps <= z.value <= tr.ztilde1 + tr.ztilde2 + eps


def test_region_pieces_strong_outer_singularity_against_oracle():
    # a s near -1 with the flat term alive only near the box edge, where
    # log e(x) reaches -1e15: z1 + z2 meets Z's oracle at every lambda
    p = FamilyParams(5, 6, 4, Fraction(6))
    X = 6 * (-0.98 / 6) + 1.0
    for lam in (0.25, 1.0, 4.0):
        (tr,) = region_samples(p, [lam], [X], CFG)
        assert abs(tr.z1 + tr.z2 - ORACLE_Z_5646) <= 1e-10 * ORACLE_Z_5646
    (z,) = zeta_samples(p, None, [X], CFG, flat=True)
    assert z.value == pytest.approx(ORACLE_Z_5646, rel=1e-10)


@pytest.mark.parametrize("fam", list(ORACLE_Z1_Z2))
def test_region_pieces_separately_against_oracle(fam):
    a, b, q, p, r1, lam, X = fam
    z1, z2 = ORACLE_Z1_Z2[fam]
    params = FamilyParams(a, b, q, Fraction(p), r1=r1)
    assert (rho(params, lam * params.r2) < r1) == (lam == 0.25)
    (tr,) = region_samples(params, [lam], [X], CFG)
    assert tr.z1 == pytest.approx(z1, rel=1e-10)
    assert tr.z2 == pytest.approx(z2, rel=1e-10)


REGION_FAMILIES = [SUP, CRIT, GREEN, FamilyParams(5, 6, 4, Fraction(6)),
                   FamilyParams(0, 7, 1, Fraction(5))]


LAMS = [0.25, 1.0, 4.0]     # the CLI's sandwich lambdas


@pytest.mark.parametrize("params", REGION_FAMILIES,
                         ids=lambda p: f"{p.a}{p.b}{p.q}-{p.p}")
def test_region_samples_match_one_sigma_calls(params):
    # each (lambda, sigma) pair of a batch is a component of its own in every
    # vector quadrature, outer and inner, so its trace is the one-pair calls'
    # bit for bit, ztilde1 and ztilde2 included; the batch is the CLI's
    # sandwich lambdas and schedule
    xs = make_schedule(0.125, 0.25, 4).xs
    batch = region_samples(params, LAMS, xs, CFG)
    assert [(tr.lam, tr.X) for tr in batch] == [(lam, X) for lam in LAMS for X in xs]
    for tr in batch:
        assert tr == region_samples(params, [tr.lam], [tr.X], CFG)[0]


@pytest.mark.parametrize("lams", [[0.25, 4.0], [4.0]], ids=["kink", "saturated"])
def test_region_samples_one_outer_call_per_panel(monkeypatch, lams):
    # every pair's interval is mapped onto (0, 1): z1 and z2 of every pair
    # are one call with 2k components on the left piece (the x^(a s)
    # endpoint declared), z2 and ztilde2's right term one more on the right
    # piece of the kinked pairs (regular ends), where z1's region misses the
    # box; ztilde1 and ztilde2's left term are closed forms (_slice_gamma).
    # No call is nested: the columns are closed forms, one _inner_columns
    # call per lambda of the z1/z2 components of an integrand call, and
    # V(1/lambda) one more per lambda before the quadratures.
    # ztilde_2d runs on the one-pair pieces: one outer call with both
    # components on the left piece (the endpoint declared) and one with
    # zt2's alone on the right piece of a kinked slice (regular ends); both
    # inner integrals are exact, so it makes no nested call either.  At
    # SUP, lambda = 0.25 kinks inside (0, r1) and 4 saturates at r1.
    calls, depth, level_calls, outside = [], [0], [], [0]
    real, real_inner = zeta_mod._tanh_sinh, zeta_mod._inner_columns

    def tanh_sinh(f, lo, hi, tol, ends=None, **kwargs):
        name = getattr(f, "func", f).__name__
        calls.append((name, lo, hi, kwargs["k"], ends is None, depth[0]))

        def nested(us, cols):
            depth[0] += 1
            level_calls.append([name, kwargs["k"], cols, 0])
            try:
                return f(us, cols)
            finally:
                depth[0] -= 1

        return real(nested, lo, hi, tol, ends, **kwargs)

    def inner_columns(*args):
        if depth[0]:
            level_calls[-1][3] += 1
        else:
            outside[0] += 1
        return real_inner(*args)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    monkeypatch.setattr(zeta_mod, "_inner_columns", inner_columns)
    xs = make_schedule(0.125, 0.25, 4).xs
    region_samples(SUP, lams, xs, CFG)
    n, n_kink = 4 * len(lams), 4 * sum(rho(SUP, lam * SUP.r2) < SUP.r1 for lam in lams)
    expect = [("columns", 2 * n, False), ("columns", 2 * n_kink, True)]
    expect = [c for c in expect if c[1]]
    assert [(name, k, regular) for name, lo, hi, k, regular, _ in calls] == expect
    assert all((lo, hi) == (0.0, 1.0) and not d for _, lo, hi, _, _, d in calls)
    assert n_kink == (4 if lams == [0.25, 4.0] else 0)
    assert outside[0] == len(lams)
    for name, k, cols, made in level_calls:
        if k == 2 * n:      # component c is z1 or z2 of pair c % n
            assert made == len(np.unique((cols % n) // 4))
        else:               # z2 and ztilde2 of the kinked pairs, all of lambda = 0.25
            assert made == (cols < n_kink).any()
    for lam in lams:
        kinked = rho(SUP, lam * SUP.r2) < SUP.r1
        calls.clear()
        ztilde_2d(SUP, lam, xs[0], CFG)
        assert [c[:5] for c in calls] == (
            [("columns_2d", 0.0, 1.0, 2, False)] + kinked * [("columns_2d", 0.0, 1.0, 1, True)])
        assert not any(d for *_, d in calls)


# every field of the region traces, frozen before the four kinds of region
# component became one call per slice piece: SUP at a kinked (0.25) and a
# saturated (4) lambda, (5,6,4,6), a/b >= 0.8 with p = 6, at lambda = 1, and
# greenblatt at lambda = 1, whose ztilde1 moves if its integrand's factors
# are multiplied in another order (SUP's x^(a s) is 1 at a = 0); ztilde1
# and ztilde2 frozen again when their left-piece integrals became one
# incomplete Gamma (_slice_gamma), which moved them by at most 1.4e-15
# relative, while z1, z2 and the error kept their bits
REGION_CASES = {
    "supercritical": (SUP, [0.25, 4.0], make_schedule(0.125, 0.25, 4).xs),
    "(5,6,4,6)": (FamilyParams(5, 6, 4, Fraction(6)), [1.0], [0.02]),
    "greenblatt": (GREEN, [1.0], [0.5, 0.125, 0.03125]),
}
REGION_FROZEN = {
    "supercritical": [
        (0.25, -0.4375, 0.125, 1.9828629600786027, 0.3970923031754635, 1.9851451560361895,
         0.7065400933477534, 1.2013989475877502e-11),
        (0.25, -0.484375, 0.03125, 5.315282765987876, 0.6589110914658614, 5.319329239386739,
         1.236072746600457, 8.458807373478044e-10),
        (0.25, -0.49609375, 0.0078125, 12.278333856948535, 0.8348230744658919,
         12.283605474843414, 1.5865722772694333, 1.966130407988516e-08),
        (0.25, -0.4990234375, 0.001953125, 26.38806131922152, 0.9360463696280226,
         26.394053169596116, 1.7847498381449105, 4.148442760780688e-07),
        (4.0, -0.4375, 0.125, 2.336116072313052, 0.04383919094101424, 2.4777950260821733,
         0.044231858003929925, 1.0742675480944621e-11),
        (4.0, -0.484375, 0.03125, 5.897610441650002, 0.07658341580373337, 6.176979436021257,
         0.0773429429596531, 8.438035350140547e-10),
        (4.0, -0.49609375, 0.0078125, 13.014901530800977, 0.09825540061344817,
         13.383998343285281, 0.09925346316691129, 1.1300377169105198e-08),
        (4.0, -0.4990234375, 0.001953125, 27.213596214971513, 0.1105114738781087,
         27.63180302213686, 0.11164066789654141, 4.41390504079656e-07),
    ],
    "(5,6,4,6)": [
        (1.0, -0.16333333333333333, 0.02, 230.71981734912612, 0.17933107684338434,
         230.72385116872124, 0.18270592968301227, 1.0560438474092284e-07),
    ],
    "greenblatt": [
        (1.0, -0.25, 0.5, 0.0872845001123719, 0.47600006946566953, 0.09683086748134896,
         0.5066664566411829, 2.9007422790727147e-09),
        (1.0, -0.4375, 0.125, 0.3256732267255509, 0.9353481104231094, 0.37394305693132684,
         1.042532825779368, 1.9798674877426024e-08),
        (1.0, -0.484375, 0.03125, 0.5169355011034895, 1.145220174041033, 0.5903494165367529,
         1.2911434280226954, 2.2318010757692678e-08),
    ],
}


@pytest.mark.parametrize("name", sorted(REGION_FROZEN))
def test_region_samples_keep_their_bits(name):
    got = region_samples(*REGION_CASES[name], CFG)
    assert [dataclasses.astuple(tr) for tr in got] == REGION_FROZEN[name]


# (zt1, zt2) of the 2D cross-checks, frozen while each was a function of its
# own: SUP at a kinked (0.25) and a saturated (4) lambda, greenblatt and
# (5,6,4,6) at lambda = 1, down to X = 1e-12 on the latter; the zt1 of SUP
# and (5,6,4,6) frozen again with its log-variable columns clipped at
# log r2 - 40/X instead of log r2 - 800/X, which moved them by at most
# 7.5e-14 relative; every zt2 frozen again with its column one exp of
# X log e - al log lambda (al = (b-q)s + 1) and its inner integral exactly
# 1/al, which moved them by at most 8.7e-16 relative, and by 6.1e-7 on
# (5,6,4,6) at X = 1e-12, where the split exponent had drifted; every zt1
# frozen again with its inner integral exact, r2^X (-expm1(X (log(e/lambda)
# - log r2)))/X, in place of the clipped log-variable quadrature, which
# moved them by at most 5.1e-15 relative
ZTILDE_2D_CASES = {
    "supercritical": (SUP, [0.25, 4.0], make_schedule(0.125, 0.25, 4).xs),
    "greenblatt": (GREEN, [1.0], [0.02]),
    "(5,6,4,6)": (FamilyParams(5, 6, 4, Fraction(6)), [1.0], [0.02, 1e-12]),
}
ZTILDE_2D_FROZEN = {
    "supercritical": [
        (1.9851451560361886, 0.7065400933477529), (5.319329239386737, 1.236072746600457),
        (12.283605474843412, 1.5865722772694328), (26.394053169596184, 1.7847498381449094),
        (2.4777950260821733, 0.044231858003929904), (6.176979436021256, 0.07734294295965308),
        (13.383998343285281, 0.09925346316691128), (27.63180302213701, 0.11164066789654134),
    ],
    "greenblatt": [(0.6300610865166004, 1.3269885505789338)],
    "(5,6,4,6)": [(230.72385116872118, 0.18270592968301236),
                  (2724813727701.2246, 3.9308678716589736)],
}


@pytest.mark.parametrize("name", sorted(ZTILDE_2D_FROZEN))
def test_ztilde_2d_keeps_its_bits(name):
    params, lams, xs = ZTILDE_2D_CASES[name]
    got = [ztilde_2d(params, lam, X, CFG) for lam in lams for X in xs]
    assert got == ZTILDE_2D_FROZEN[name]


@st.composite
def _families(draw):
    """A valid family: 0 <= a < b <= 7, 1 <= q <= b, rational p."""
    b = draw(st.integers(2, 7))
    p = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    return FamilyParams(draw(st.integers(0, b - 1)), b, draw(st.integers(1, b)), p)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(params=_families(), log10_X=st.floats(-5.0, math.log10(0.5)),
       lam=st.floats(-2.0, 2.0).map(lambda t: 10.0**t))
@example(params=FamilyParams(2, 5, 4, Fraction(11, 2)), log10_X=math.log10(2.449e-4), lam=71.66)
@example(params=FamilyParams(2, 5, 3, Fraction(2)), log10_X=math.log10(5.1e-5), lam=31.8)
def test_region_pieces_add_up_to_z_over_families(params, log10_X, lam):
    # z1 + z2 = Z within the sandwich suite's slack, on seeded draws over
    # the whole parameter space rather than the presets; the examples sit
    # at small X and large lambda, where accepting a z1 step that no longer
    # shrinks as converged misses by 5.4x and 1.2x the slack
    X = params.b * ((10.0**log10_X - 1.0) / params.b) + 1.0
    (z,) = zeta_samples(params, None, [X], CFG, flat=True)
    (tr,) = region_samples(params, [lam], [X], CFG)
    assert abs(tr.z1 + tr.z2 - z.value) <= 10.0 * (z.error + tr.error) + 1e-12 * z.value


def test_quadrant_invariants_over_families():
    # on seeded families over the whole parameter space, 4 values of X each:
    # 0 < Z <= the monomial closed form (the flat term only adds to f, which
    # enters at a negative power), Z grows as X falls toward the blow-up, and
    # flat=False meets the closed form within its reported error
    rng = np.random.default_rng(7)
    for _ in range(40):
        b = int(rng.integers(2, 8))
        a, q = int(rng.integers(0, b)), int(rng.integers(1, b + 1))
        p = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 7)))
        params = FamilyParams(a, b, q, p, *map(float, rng.uniform(0.05, 0.95, 2)))
        xs = np.sort(10.0 ** rng.uniform(-5.0, math.log10(0.5), 4))[::-1].tolist()
        closed = [monomial_closed_form(a, b, params.r1, params.r2, X) for X in xs]
        zs = [z.value for z in zeta_samples(params, None, xs, CFG, flat=True)]
        assert all(0.0 < z <= cf * (1.0 + 1e-12) for z, cf in zip(zs, closed)), params
        assert all(z2 > z1 for z1, z2 in zip(zs, zs[1:])), params
        for z, cf in zip(zeta_samples(params, None, xs, CFG, flat=False), closed):
            assert abs(z.value - cf) <= z.error, (params, z)


# zeta_weighted at X = 0.1, 1e-3, 1e-5 on (0,b,b,2), default box and bump, as
# the two-piece inner columns (log variable above e(x)) computed them
LARGE_Q_WEIGHTED = {
    40: (2.7569984192889034, 34.84893767764607, 353.91922555327267),
    60: (2.3405855571631253, 28.55127342656885, 289.07168919990977),
}


@pytest.mark.parametrize("b", sorted(LARGE_Q_WEIGHTED))
def test_weighted_z_at_large_q(b):
    # at q = b = 40 and 60 the scaled increment column reaches v^q past the
    # double range (R2/e up to 2.7e9); log1p(v^q) must stay finite there
    params = FamilyParams(0, b, b, Fraction(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for X, ref in zip((0.1, 1e-3, 1e-5), LARGE_Q_WEIGHTED[b]):
            (z,) = zeta_samples(params, BumpSpec(), [b * ((X - 1.0) / b) + 1.0], CFG, flat=True)
            assert abs(z.value - ref) <= z.error, (X, z)


def test_weighted_invariants_over_families():
    # as 0 <= phi <= 1 and phi < 1 off the origin, 0 < Z_w < 4 Z over the
    # bump's box, on seeded families with even q <= b <= 60 and X down to
    # 1e-8, boxes with R2 < e(R1) included (rows with e(x) > R2)
    rng = np.random.default_rng(11)
    wide = 0
    for _ in range(40):
        q = 2 * int(rng.integers(1, 31))
        b = int(rng.integers(q, 61))
        a = int(rng.integers(0, b))
        p = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        bump = BumpSpec(*map(float, rng.uniform(0.05, 0.95, 2)))
        params = FamilyParams(a, b, q, p)
        box = FamilyParams(a, b, q, p, r1=bump.R1, r2=bump.R2)
        wide += bump.R2 < math.exp(log_e_flat(params, bump.R1))
        xs = [b * ((X - 1.0) / b) + 1.0 for X in np.sort(10.0 ** rng.uniform(-8.0, -1.0, 4))]
        zw = zeta_samples(params, bump, xs, CFG, flat=True)
        zq = zeta_samples(box, None, xs, CFG, flat=True)
        assert all(0.0 < w.value < 4.0 * z.value for w, z in zip(zw, zq)), (params, bump)
    assert wide >= 10


def test_increment_columns_match_scalar_calls_on_own_intervals():
    # each row's interval (0, R2/e) is mapped onto (0, 1) inside the
    # integrand, the components of a row share its per-row factors and all
    # share the bump increment at y = R2 u; every component still returns
    # its one-component call bit for bit, and a plain quadrature of its
    # own over v in (0, R2/e) with the increment at y = e v, with its own
    # sigma, to rounding
    bump = BumpSpec(0.5, 0.5)
    ln_e = np.log(np.array([0.5, 0.37, 2.5, 1e-3, 40.0]))
    row = np.array([0, 1, 1, 2, 3, 3, 3, 4])
    X = np.array([8.0, 8.0, 3.0, 8.0, 8.0, 5.0, 11.0, 8.0]) ** -1
    sigma = (X - 1.0) / GREEN.b
    values = _increment_columns(GREEN, bump, sigma, X, row, ln_e, 1e-12)
    for i, (r, s) in enumerate(zip(row, sigma)):
        (one,) = _increment_columns(GREEN, bump, s, X[i], np.array([0]), ln_e[r:r + 1], 1e-12)
        assert values[i] == one
        e = math.exp(ln_e[r])

        def f(vs, cols):
            return (np.exp((GREEN.b - GREEN.q) * s * np.log(vs) + s * np.log1p(vs**GREEN.q))
                    * bump_y_increment(bump, e * vs))

        (v,), (err,), _ = _tanh_sinh(f, 0.0, bump.R2 / e, 1e-12, None, k=1)
        v *= math.exp(X[i] * ln_e[r])
        assert abs(values[i] - v) <= 8.0 * np.finfo(float).eps * abs(v)


def test_flat_dead_bump_columns_equal_the_e0_column():
    # every bump-weighted column with log E below log E0 = q log(1e-9 R2) - 40
    # is the one E = 0 column, one plain-y quadrature of y^(b s) (phi_y - 1)
    # on (0, R2): it meets an independent quadrature that declares the
    # exponent b s + 2 at 0, and the scaled columns at and below the
    # threshold meet it
    bump = BumpSpec(0.5, 0.5)
    for b, q in ((2, 2), (3, 2), (40, 40)):
        params = FamilyParams(0, b, q, Fraction(2))
        ln_E0 = _ln_E_dead(q, bump.R2)
        for X in (0.125, 2.0 ** -8, 1e-5, 1e-10):
            s = (X - 1.0) / b
            (e0_col,) = _dead_column(bump, np.array([b * s]))
            ref = integrate_1d(lambda ys: np.exp(b * s * np.log(ys)) * bump_y_increment(bump, ys),
                               0.0, bump.R2, EndpointSpec(exponent_lo=b * s + 2.0), 1e-13).value
            assert abs(e0_col - ref) <= 1e-12 * abs(ref)
            ln_E = ln_E0 - np.array([0.0, 5.0, 300.0])
            cols = _increment_columns(params, bump, s, X, np.arange(3), ln_E / q, MINI_TOL)
            assert np.all(np.abs(cols - e0_col) <= 1e-12 * abs(e0_col))


def test_zeta_weighted_batches_inner_columns(monkeypatch):
    # the inner integrals of one outer level are one vector call (the scaled
    # increment column of every live (row, sigma)), not one call per abscissa;
    # the first outer call takes levels 0-4, and later ones one level each
    count = {"levels": 0, "inner": 0}
    real_tanh_sinh, real_ln_e = zeta_mod._tanh_sinh, zeta_mod.log_e_flat

    def tanh_sinh(*args, **kwargs):
        count["inner"] += count["levels"] > 0     # calls from inside a level
        return real_tanh_sinh(*args, **kwargs)

    def ln_e(*args):
        count["levels"] += 1                      # once per outer level
        return real_ln_e(*args)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    monkeypatch.setattr(zeta_mod, "log_e_flat", ln_e)
    (zw,) = zeta_samples(CRIT, BumpSpec(0.5, 0.5), [2.0 ** -8], CFG, flat=True)
    assert zw.value == pytest.approx(ORACLE_W_CRIT_X2M8, rel=1e-9)
    assert count["levels"] >= 2       # an outer call after the first one
    assert count["inner"] <= count["levels"]


def test_region_pieces_flat_dead():
    p = FamilyParams(1, 2, 2, Fraction(2), r1=1e-4, r2=0.5)
    X = p.b * -0.3 + 1.0
    (tr,) = region_samples(p, [1.0], [X], CFG)
    (z,) = zeta_samples(p, None, [X], CFG, flat=True)
    assert tr.z2 == pytest.approx(0.0, abs=1e-300)
    assert tr.z1 == pytest.approx(z.value, rel=1e-9)


def test_g_identity_supercritical():
    lam, sigma = 1.0, -0.49
    X = SUP.b * sigma + 1.0
    zt1 = region_samples(SUP, [lam], [X], CFG)[0].ztilde1
    g1, g2, g3 = g_pieces(SUP, lam, X, CFG)
    pref = lam**-X * X ** (-1.0 + (1.0 + SUP.a * sigma) / SUP.p_float)
    assert zt1 == pytest.approx(pref * (g1 + g2 + g3), rel=1e-9)


def test_h_identity_critical():
    lam, X = 1.0, CRIT.b * -0.49 + 1.0
    g2, h1, h2 = h_pieces(CRIT, lam, X, CFG)
    assert g2 == pytest.approx(h1 - h2, rel=1e-9)


def test_g2_h2_integral_from_one():
    # int_1^U for U on either side of 1; U = 1 leaves the G2/H2 interval
    # empty, and the piece is 0 rather than a DomainError
    assert _from_one(lambda us: 1.0 / us, 1.0, CFG) == 0.0
    for U in (2.0, 0.5):
        assert _from_one(lambda us: 1.0 / us, U, CFG) == pytest.approx(math.log(U), rel=1e-12)


def test_j_identity_subcritical():
    lam, X = 1.0, GREEN.b * -0.49 + 1.0
    zt1 = region_samples(GREEN, [lam], [X], CFG)[0].ztilde1
    j1, j2 = j_pieces(GREEN, lam, X, CFG)
    assert zt1 == pytest.approx(j1 + j2, rel=1e-9)


def test_log_derivative_j0_is_weighted():
    bump = BumpSpec(0.5, 0.5)
    d0 = log_derivative_integral(GREEN, bump, -0.3, 0, CFG, flat=True)
    (zw,) = zeta_samples(GREEN, bump, [GREEN.b * -0.3 + 1.0], CFG, flat=True)
    assert d0 == pytest.approx(zw.value, rel=1e-9)


def test_log_derivative_finite_differences():
    # monomial x y^2: D1 and D2 against central differences of D0
    bump = BumpSpec(0.5, 0.5)
    s0, h = 0.5, 1e-4

    def d0(s):
        return log_derivative_integral(GREEN, bump, s, 0, CFG, flat=False)

    d1 = log_derivative_integral(GREEN, bump, s0, 1, CFG, flat=False)
    d2 = log_derivative_integral(GREEN, bump, s0, 2, CFG, flat=False)
    up, mid, dn = d0(s0 + h), d0(s0), d0(s0 - h)
    assert d1 == pytest.approx((up - dn) / (2.0 * h), rel=1e-6)
    assert d2 == pytest.approx((up - 2.0 * mid + dn) / h**2, rel=1e-4)


def test_log_derivative_sign_alternation():
    bump = BumpSpec(0.5, 0.5)
    for j in range(11):
        d = log_derivative_integral(GREEN, bump, 0.5, j, CFG, flat=False)
        assert (-1.0) ** j * d > 0.0


def test_log_derivative_window():
    bump = BumpSpec(0.5, 0.5)
    with pytest.raises(OutOfWindow):
        log_derivative_integral(GREEN, bump, -0.5, 0, CFG, flat=False)


def test_log_moments_check_the_box_against_the_literal_bound():
    # |f| < 1 on the bump's box is R1^a R2^(b-q) (R2^q + E(R1)) < 1: boxes
    # on both sides of 1, flat on and off, one with E(R1) below 5e-324
    p21, p22, p2421 = (FamilyParams(0, 2, 2, Fraction(1)), FamilyParams(0, 2, 2, Fraction(2)),
                       FamilyParams(2, 4, 2, Fraction(1)))
    boxes = [(p21, 0.5, 0.5), (p21, 0.9, 0.9), (p21, 0.9, 0.82), (p21, 0.5, 1.0),
             (p21, 0.05, 0.999), (GREEN, 0.95, 0.9), (GREEN, 0.6, 0.6), (p22, 0.03, 0.999),
             (p2421, 0.99, 0.99)]
    verdicts = set()
    for params, R1, R2 in boxes:
        a, b, q = params.a, params.b, params.q
        for flat in (True, False):
            E = math.exp(-1.0 / R1 ** params.p_float) if flat else 0.0
            ok = R1**a * R2 ** (b - q) * (R2**q + E) < 1.0
            verdicts.add((flat, ok))
            if ok:
                assert _check_log_moments(params, BumpSpec(R1, R2), 0.5, 3, flat) == 3
            else:
                with pytest.raises(DomainError):
                    _check_log_moments(params, BumpSpec(R1, R2), 0.5, 3, flat)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("flat", [True, False])
@pytest.mark.parametrize("s0", [0.5, -0.2])
def test_log_derivative_moments_match_per_j(s0, flat):
    # one vector quadrature for D_0..D_12 against the moment-by-moment calls
    # (D_0 at s < 0 on the weighted engine, D_j as element j of a J = j pass)
    bump = BumpSpec(0.5, 0.5)
    moments = log_derivative_moments(GREEN, bump, s0, 12, CFG, flat=flat)
    assert moments.shape == (13,)
    for j in range(13):
        d = log_derivative_integral(GREEN, bump, s0, j, CFG, flat=flat)
        assert moments[j] == pytest.approx(d, rel=1e-10)


def _moment_calls(monkeypatch, params, bump, J, flat):
    """The (k, group) of the _tanh_sinh calls of one log_derivative_moments
    pass at s = 0.5: on u in (0, 1) before the L_j call (unit), the L_j call
    on (0, R1) (outer) and the calls made inside its levels (inner); with
    the (k, group) each level of L_j should give its inner call (expected)
    and each level's live node count (levels)."""
    G = J + 1
    ln_dead = params.q * math.log(bump.R2 * zeta_mod._OFF_MIN) - 40.0
    real = zeta_mod._tanh_sinh
    unit, outer, inner, expected, levels = [], [], [], [], []

    def tanh_sinh(f, lo, hi, *args, **kwargs):
        if (lo, hi) == (0.0, bump.R1):
            outer.append((kwargs["k"], kwargs["group"]))

            def counted(xs, cols):
                x = xs[:, 0]
                x = x[bump_x_profile(bump, x) > 0.0]   # no rows where the x-bump is 0
                with np.errstate(over="ignore"):
                    lnE = params.q * zeta_mod.log_e_flat(params, x)
                live = np.count_nonzero(lnE >= ln_dead)
                levels.append(live)
                if live:
                    expected.append((live * G, G))
                return f(xs, cols)
            return real(counted, lo, hi, *args, **kwargs)
        assert (lo, hi) == (0.0, 1.0)
        (inner if outer else unit).append((kwargs["k"], kwargs["group"]))
        return real(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    log_derivative_moments(params, bump, 0.5, J, CFG, flat=flat)
    monkeypatch.setattr(zeta_mod, "_tanh_sinh", real)
    return unit, outer, inner, expected, levels


def test_log_derivative_moments_one_inner_call_per_outer_level(monkeypatch):
    # D_j = j! sum_d M_d N0_(j-d) / (j-d)! + L_j.  With the flat term on or
    # off the E = 0 row N0 and the J + 1 x-moments M_d are one call on u in
    # (0, 1), two groups of J + 1 at y = R2 u and x = R1 u.  With it L_j is
    # one more call on (0, R1), one group of J + 1, and each call of its
    # integrand makes one inner call on u in (0, 1) for its live nodes, a
    # group of J + 1 per node, a flat term below e^-40 y^q at every inner
    # node being the E = 0 row: no row at E = 0, and rows only where the
    # x-bump is not exactly 0.  Levels 0-4 are one outer call
    bump, J = BumpSpec(0.5, 0.25), 6
    G = J + 1
    unit, outer, inner, _, _ = _moment_calls(monkeypatch, GREEN, bump, J, False)
    assert unit == [(2 * G, G)] and outer == inner == []
    unit, outer, inner, expected, levels = _moment_calls(monkeypatch, GREEN, bump, J, True)
    assert 1 <= len(levels) <= MAX_LEVELS - 1
    assert unit == [(2 * G, G)] and outer == [(G, G)]
    assert inner == expected and len(expected) >= 1


def test_log_derivative_moments_at_a0_integrate_the_e0_row_alone(monkeypatch):
    # at a = 0 the x-moments are M_0 = R1 Phi and M_d = 0 for d >= 1, with no
    # quadrature: the first call is the E = 0 row alone, one group of J + 1,
    # for both flat settings.  With the flat term L_j is still one outer call
    # with one inner call per level for its live nodes
    params, bump, J = FamilyParams(0, 2, 2, Fraction(1, 4)), BumpSpec(0.5, 0.25), 6
    G = J + 1
    unit, outer, inner, _, _ = _moment_calls(monkeypatch, params, bump, J, False)
    assert unit == [(G, G)] and outer == inner == []
    unit, outer, inner, expected, _ = _moment_calls(monkeypatch, params, bump, J, True)
    assert unit == [(G, G)] and outer == [(G, G)]
    assert inner == expected and len(expected) >= 1


def test_flat_on_moments_on_a_dead_box_make_no_l_call(monkeypatch):
    # E rises with x: at (1,2,2,2) on the box (0.02, 0.45), log E(R1) = -2500
    # is below the dead threshold, so no node is live, L_j = 0 and no L_j
    # call is made; the moments are the flat-off ones bit for bit
    params, bump, J = FamilyParams(1, 2, 2, Fraction(2)), BumpSpec(0.02, 0.45), 12
    unit, outer, inner, _, _ = _moment_calls(monkeypatch, params, bump, J, True)
    assert unit == [(2 * (J + 1), J + 1)] and outer == inner == []
    on = log_derivative_moments(params, bump, 0.5, J, CFG, flat=True)
    off = log_derivative_moments(params, bump, 0.5, J, CFG, flat=False)
    assert on.tolist() == off.tolist()


def test_flat_off_moments_at_a0_are_the_e0_row_times_the_bump_mass(monkeypatch):
    # with the flat term off and a = 0, D_j = 4 R1 Phi N0_j: the convolution
    # adds exact zeros to its one product, so D_j is that product to a few
    # roundings, with N0_j = R2 times the one call's sum
    bump, J, eps = BumpSpec(0.3, 0.45), 20, np.finfo(float).eps
    real, sums = zeta_mod._tanh_sinh, []

    def tanh_sinh(*args, **kwargs):
        out = real(*args, **kwargs)
        sums.append(out[0])
        return out

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    for params in (FamilyParams(0, 3, 2, Fraction(2)), FamilyParams(0, 2, 2, Fraction(1, 4))):
        for s in (0.5, 0.05, -0.6 / params.b):
            sums.clear()
            got = log_derivative_moments(params, bump, s, J, CFG, flat=False)
            (n0,) = sums
            ref = 4.0 * bump.R1 * zeta_mod._BUMP_MASS * (bump.R2 * n0)
            assert np.all(np.abs(got - ref) <= 4.0 * eps * np.abs(ref)), (params, s)


@pytest.mark.parametrize("params, s_target", [(GREEN, -0.3), (GREEN, 0.25),
                                              (FamilyParams(0, 3, 2, Fraction(2)), -0.2),
                                              (FamilyParams(0, 3, 2, Fraction(2)), 1.0 / 6.0)],
                         ids=["a1-below0", "a1-at-bs-half", "a0-below0", "a0-at-bs-half"])
def test_flat_off_landau_rebuild_is_one_vector_call(monkeypatch, params, s_target):
    # with b s_target <= 1/2 the direct D_0 is two values of F, so a flat-off
    # rebuild makes one _tanh_sinh call, the moment pass: the E = 0 row and
    # the x-moments, two groups of J + 1, at a > 0, and the E = 0 row alone
    # at a = 0
    J, real, seen = 12, zeta_mod._tanh_sinh, []

    def tanh_sinh(*args, **kwargs):
        seen.append((kwargs["k"], kwargs.get("group", 1)))
        return real(*args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    assert params.b * s_target <= 0.5
    report = landau_taylor_rebuild(params, BumpSpec(0.5, 0.5), 0.5, s_target, J, CFG, flat=False)
    assert report.passed
    G = J + 1
    assert seen == ([(2 * G, G)] if params.a else [(G, G)])


def test_flat_on_moments_without_a_live_row_are_the_flat_off_moments():
    # on R1 = 0.02 the flat term of (1,2,2,2) is E <= e^-2500, below e^-40
    # y^q at every inner node, so no outer node has a live row, L_j is 0 and
    # the flat-on moments are the flat-off ones bit for bit
    params, bump = FamilyParams(1, 2, 2, Fraction(2)), BumpSpec(0.02, 0.45)
    on = log_derivative_moments(params, bump, 0.5, 12, CFG, flat=True)
    off = log_derivative_moments(params, bump, 0.5, 12, CFG, flat=False)
    assert on.tolist() == off.tolist()


def test_log_derivative_d0_flat_off_negative_s_runs_no_quadrature(monkeypatch):
    # D_0 without the flat term is C I_x, C = R2^X (1/X + F(b s)) and I_x =
    # R1^(a s + 1) (1/(a s + 1) + F(a s)): wherever both F come from their
    # Taylor series, b s <= 1/2 with s >= 0 included, no quadrature runs.
    # Past b s = 1/2 D_0 is the J = 0 moment pass, one call of two
    # one-moment groups
    real, seen = zeta_mod._tanh_sinh, []

    def tanh_sinh(f, lo, hi, tol, endpoints=None, **kwargs):
        seen.append((lo, hi, kwargs["k"], kwargs.get("group", 1)))
        return real(f, lo, hi, tol, endpoints, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    bump, s_max = BumpSpec(0.3, 0.45), 0.5 / GREEN.b
    for s in (-0.3, 0.0, 0.05, s_max):
        log_derivative_integral(GREEN, bump, s, 0, CFG, flat=False)
    assert seen == []
    log_derivative_integral(GREEN, bump, math.nextafter(s_max, 1.0), 0, CFG, flat=False)
    assert seen == [(0.0, 1.0, 2, 1)]


def test_log_derivative_moments_recombine_only_at_live_nodes(monkeypatch):
    # the x-moments need no per-node recombination: the sliding-window Cauchy
    # product of N - N0 runs only at outer nodes with a live row, at most
    # once per outer call, and never without the flat term
    bump = BumpSpec(0.5, 0.25)
    ln_dead = GREEN.q * math.log(bump.R2 * zeta_mod._OFF_MIN) - 40.0
    real_tanh_sinh, real_window = zeta_mod._tanh_sinh, zeta_mod.sliding_window_view
    windows, live = [], []

    def tanh_sinh(f, lo, hi, *args, **kwargs):
        if (lo, hi) == (0.0, bump.R1):
            def counted(xs, cols):
                x = xs[:, 0]
                x = x[bump_x_profile(bump, x) > 0.0]
                with np.errstate(over="ignore"):
                    live.append(np.count_nonzero(GREEN.q * zeta_mod.log_e_flat(GREEN, x)
                                                 >= ln_dead))
                return f(xs, cols)
            return real_tanh_sinh(counted, lo, hi, *args, **kwargs)
        return real_tanh_sinh(f, lo, hi, *args, **kwargs)

    def window(*args, **kwargs):
        windows.append(args[0].shape[0])      # the nodes recombined
        return real_window(*args, **kwargs)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    monkeypatch.setattr(zeta_mod, "sliding_window_view", window)
    log_derivative_moments(GREEN, bump, 0.5, 40, CFG, flat=False)
    assert windows == []
    live.clear()
    log_derivative_moments(GREEN, bump, 0.5, 40, CFG, flat=True)
    assert 1 <= len(windows) <= len(live)
    assert sum(windows) == sum(live)


@pytest.mark.parametrize("engine", ["weighted", "moments"])
def test_no_inner_columns_where_the_x_bump_is_zero(monkeypatch, engine):
    # past 1 - x/R1 ~ 6.7e-4 the x-bump underflows to exactly 0, and the
    # outer rule puts many nodes there: their columns are 0, and neither
    # _box_integral nor the flat-on moments build an inner column for them.
    # Every column built starts from log e(x), so the abscissae that reach
    # log_e_flat are those of the columns built
    bump = BumpSpec(0.5, 0.25)
    outer, built = [], []
    real_tanh_sinh, real_log_e = zeta_mod._tanh_sinh, zeta_mod.log_e_flat

    def tanh_sinh(f, lo, hi, *args, **kwargs):
        if (lo, hi) == (0.0, bump.R1):
            def seen(xs, cols):
                outer.append(xs[:, 0])
                return f(xs, cols)
            return real_tanh_sinh(seen, lo, hi, *args, **kwargs)
        return real_tanh_sinh(f, lo, hi, *args, **kwargs)

    def log_e_flat(params, x):
        if np.ndim(x):      # the 0-d calls at R1 test the box, and build no column
            built.append(np.asarray(x))
        return real_log_e(params, x)

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", tanh_sinh)
    monkeypatch.setattr(zeta_mod, "log_e_flat", log_e_flat)
    if engine == "weighted":
        zeta_samples(GREEN, bump, [GREEN.b * s + 1.0 for s in (-0.3, -0.45, -0.49)], CFG,
                     flat=True)
    else:
        log_derivative_moments(GREEN, bump, 0.5, 6, CFG, flat=True)
    outer, built = np.concatenate(outer), np.concatenate(built)
    phi = bump_x_profile(bump, outer)
    assert np.count_nonzero(phi == 0.0) >= 10       # the outer rule samples the dead end
    assert np.all(bump_x_profile(bump, built) > 0.0)
    assert sorted(built.tolist()) == sorted(outer[phi > 0.0].tolist())


# Weighted Z (value, error) at X = 1/2, 2^-8 and 1e-5 over the default bump,
# frozen from the engine whose unweighted inner columns are the near series
# and the far form of _inner_columns (each value within 2.8e-3 of its error of
# the hyp2f1 columns before them) and whose scaled columns take the bump
# increment once per node at y = R2 u (values within 2.3e-16 and errors
# within 1.6e-6 relative of it once per row at y = e (R2/e) u), refrozen
# when each correction column stopped at tol max(MINI_TOL, tau C/|D|) and the
# errors took the share (tau/Phi)|Z| (every value within 4.5e-16 relative of
# WEIGHTED_BEFORE_SHARE, the values before); greenblatt's
# flat-on D_0..D_40 at s = -0.2, frozen from the x-moments convolved with the
# E = 0 row plus the live excess (within 1.3e-10 relative of the per-node
# recombination of every row), refrozen when N0 and the x-moments became the
# flat-off call and the live excess a call of its own (within 1.7e-12
# relative of the values before, at j = 36)
WEIGHTED_FROZEN = {
    "supercritical": [(1.269370386913008, 2.577396673428738e-08),
                      (71.21814591502901, 4.664578621704919e-07),
                      (1576.1234634514487, 2.66923595845502e-06)],
    "critical": [(1.0110694567913379, 1.814242671715022e-09),
                 (10.095046683202456, 1.845289979054544e-08),
                 (22.04663695619104, 2.1580916146146245e-06)],
    "greenblatt": [(1.0063736632104328, 2.1579105803956154e-09),
                   (4.500302929154127, 4.631203402212302e-08),
                   (4.606792525008087, 2.587483826064634e-08)],
}
WEIGHTED_BEFORE_SHARE = {
    "supercritical": [1.269370386913008, 71.21814591502901, 1576.1234634514487],
    "critical": [1.0110694567913376, 10.095046683202456, 22.04663695619104],
    "greenblatt": [1.0063736632104323, 4.500302929154126, 4.6067925250080854],
}
MOMENTS_J40_FROZEN = [
    0.8057608442943831, -3.4841712371745253, 18.71444743531822, -128.62913413504293,
    1132.1071758272737, -12479.886687078455, 167520.5132257184, -2674101.327580601,
    49882787.42556, -1073055317.2228241, 26323744061.81787, -728945423510.9062,
    22567125905887.0, -774030590987008.0, 2.916899860549837e+16, -1.19868324029517e+18,
    5.335938780582904e+19, -2.5579473399542427e+21, 1.3137410577365653e+23,
    -7.196156533827774e+24, 4.1872850872154e+26, -2.579124173210394e+28, 1.676311530570927e+30,
    -1.1464578415208982e+32, 8.229676376686668e+33, -6.1863467784470135e+35,
    4.859694219042521e+37, -3.981824396384132e+39, 3.3970197518667357e+41,
    -3.0127415259547544e+43, 2.7735254970512528e+45, -2.646763987016071e+47,
    2.6149283304762606e+49, -2.671484660452576e+51, 2.819128782633269e+53,
    -3.069717267306163e+55, 3.445743371111526e+57, -3.983582729554911e+59,
    4.739139968488125e+61, -5.797084076756436e+63, 7.285728923003375e+65,
]


@pytest.mark.parametrize("name", sorted(WEIGHTED_FROZEN))
def test_weighted_z_keeps_its_bits_without_zero_weight_columns(name):
    params = PRESETS[name]
    xs = [params.b * ((X - 1.0) / params.b) + 1.0 for X in (0.5, 2.0**-8, 1e-5)]
    got = zeta_samples(params, BumpSpec(0.5, 0.5), xs, CFG, flat=True)
    assert [(z.value, z.error) for z in got] == WEIGHTED_FROZEN[name]
    assert all(abs(z.value - v) <= z.error for z, v in zip(got, WEIGHTED_BEFORE_SHARE[name]))


def test_flat_on_moments_keep_their_bits_without_zero_weight_rows():
    moments = log_derivative_moments(GREEN, BumpSpec(0.5, 0.5), -0.2, 40, CFG, flat=True)
    assert moments.tolist() == MOMENTS_J40_FROZEN


@pytest.mark.parametrize("params,bump", [
    (GREEN, BumpSpec(0.5, 0.5)),
    (FamilyParams(1, 3, 2, Fraction(1, 4)), BumpSpec(0.5, 0.5)),
    (FamilyParams(0, 2, 2, Fraction(2)), BumpSpec(0.5, 0.5)),
    (GREEN, BumpSpec(1.5, 0.2)),
], ids=["greenblatt", "1,3,2,1/4", "0,2,2,2", "greenblatt-R1=1.5"])
def test_log_derivative_moments_flat_on_against_weighted_engine(params, bump):
    # the flat-on moments at s0 < 0 against the weighted engine's D_0
    # (_box_integral, closed-form inner columns): D_0 itself, D_1 and D_2
    # against central differences.  On R1 = 1.5 a log x changes sign, so the
    # recombined terms of one moment differ in sign
    s0, h = -0.6 / params.b, 1e-4
    moments = log_derivative_moments(params, bump, s0, 2, CFG, flat=True)

    def d0(s):
        return log_derivative_integral(params, bump, s, 0, CFG, flat=True)

    up, mid, dn = d0(s0 + h), d0(s0), d0(s0 - h)
    assert moments[0] == pytest.approx(mid, rel=1e-9)
    assert moments[1] == pytest.approx((up - dn) / (2.0 * h), rel=1e-6)
    assert moments[2] == pytest.approx((up - 2.0 * mid + dn) / h**2, rel=1e-4)


def _d0_is_a_product_of_1d_integrals(params, s, bump):
    # with the flat term off |f| = x^a y^b, so D_0(s) = 4 I_x(s) I_y(s): a 1D
    # quadrature of x^(a s) against the x-bump, and I_y = R2^X/X plus one of
    # y^(b s) (phi_y - 1), X = b s + 1, with y^(b s) taken analytically.
    # s >= 0 runs on the moment pass, s < 0 on the factored box integral,
    # down to s = -1/b + 1e-4, where I_y ~ 1/X
    s = s(params.b) if callable(s) else s
    R1, R2, X = bump.R1, bump.R2, params.b * s + 1.0
    i_x = integrate_1d(lambda x: x ** (params.a * s) * bump_x_profile(bump, x), 0.0, R1,
                       EndpointSpec(exponent_lo=params.a * s), tol=1e-13).value
    i_y = R2**X / X + integrate_1d(lambda y: y ** (params.b * s) * bump_y_increment(bump, y),
                                   0.0, R2, EndpointSpec(exponent_lo=params.b * s + 2.0),
                                   tol=1e-13).value
    d0 = log_derivative_integral(params, bump, s, 0, CFG, flat=False)
    assert d0 == pytest.approx(4.0 * i_x * i_y, rel=1e-12)


D0_PARAMS = pytest.mark.parametrize("params", [GREEN, FamilyParams(1, 3, 2, Fraction(1, 4))],
                                    ids=["greenblatt", "1,3,2,1/4"])
D0_S = pytest.mark.parametrize("s", [0.0, 0.05, 0.5, -0.01,
                                     pytest.param(lambda b: -0.6 / b, id="-0.6/b"),
                                     pytest.param(lambda b: -1.0 / b + 1e-4, id="-1/b+1e-4")])


@D0_PARAMS
@D0_S
def test_log_derivative_d0_nonnegative_s_is_a_product_of_1d_integrals(params, s):
    _d0_is_a_product_of_1d_integrals(params, s, BumpSpec(0.5, 0.5))


@D0_PARAMS
@D0_S
def test_log_derivative_d0_is_a_product_of_1d_integrals_on_a_non_dyadic_box(params, s):
    # at R = 1/2 the map u -> R u of the unit-interval quadratures is exact;
    # only a non-dyadic box with R1 != R2 checks the factors R^(c+1)
    _d0_is_a_product_of_1d_integrals(params, s, BumpSpec(0.3, 0.45))


def test_log_derivative_moments_flat_off_are_binomial_sums_of_1d_moments():
    # with the flat term off D_j = 4 sum_k C(j, k) M_(j-k) N_k over the 1D
    # moments M_d of x^(a s) (a log x)^d phi_x and N_k of y^(b s) (b log y)^k
    # phi_y, each its own component of a 1e-13 quadrature.  Over a grid of
    # (a < b, s, J) on the default box and on R1 = 1.5, where a log x changes
    # sign, so the odd x-moments cancel in part; and at a = 6, J = 70, where
    # the powers of a log x + log f_y would overflow at inner nodes far above
    # the dropped deepest ones unless a log x stays out of the inner integrand
    def moments(c, s, J, R, profile, bump):     # one vector call, a component per d
        def f(us, ds):      # the powers overflow at the deepest nodes, which are dropped
            with np.errstate(over="ignore", invalid="ignore"):
                return np.exp(c * s * np.log(us)) * (c * np.log(us)) ** ds * profile(bump, us)
        return _tanh_sinh(f, 0.0, R, 1e-13, EndpointSpec(c * s), k=J + 1)[0].tolist()

    cases = [(a, b, s, bump, (0, 1, 40))
             for bump in (BumpSpec(0.5, 0.5), BumpSpec(1.5, 0.5))
             for a in (0, 1, 3) for b in (2, 3, 7) if a < b for s in (0.5, 0.05, -0.5 / b)]
    cases.append((6, 7, -0.1, BumpSpec(0.5, 0.5), (70,)))
    for a, b, s, bump, Js in cases:
        params, top = FamilyParams(a, b, 2, Fraction(1, 3)), max(Js)
        m = moments(a, s, top, bump.R1, bump_x_profile, bump)
        n = moments(b, s, top, bump.R2, bump_y_profile, bump)
        ref = [4.0 * math.fsum(math.comb(j, k) * m[j - k] * n[k] for k in range(j + 1))
               for j in range(top + 1)]
        for J in Js:
            got = log_derivative_moments(params, bump, s, J, CFG, flat=False)
            np.testing.assert_allclose(got, ref[:J + 1], rtol=1e-12,
                                       err_msg=f"a={a} b={b} s={s} R1={bump.R1} J={J}")


def test_log_derivative_moments_flat_on_deep_negative_s():
    # q = b: the inner y-integrand goes as y^(b s) (log f_y)^k where E(x) is
    # far below y^q, and its powers overflow at the deepest nodes
    bump = BumpSpec(0.5, 0.5)
    moments = log_derivative_moments(GREEN, bump, -0.3, 40, CFG, flat=True)
    assert np.all(np.isfinite(moments))
    assert np.all(np.sign(moments) == (-1.0) ** np.arange(41))
    d0 = log_derivative_integral(GREEN, bump, -0.3, 0, CFG, flat=True)
    assert moments[0] == pytest.approx(d0, rel=1e-12)


def test_log_derivative_moments_rejections():
    bump = BumpSpec(0.5, 0.5)
    with pytest.raises(DomainError):
        log_derivative_moments(GREEN, bump, 0.5, -1, CFG, flat=True)
    with pytest.raises(OutOfWindow):
        log_derivative_moments(GREEN, bump, -0.5, 4, CFG, flat=True)
    with pytest.raises(OddQNotSupported):
        log_derivative_moments(FamilyParams(0, 2, 1, Fraction(2)), bump, 0.5, 4, CFG, flat=True)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: region_samples(GREEN, [NAN], [0.2], CFG), id="region_pieces-nan"),
    pytest.param(lambda: region_samples(GREEN, [NAN], [0.2], CFG)[0].ztilde1, id="ztilde1-nan"),
    pytest.param(lambda: region_samples(GREEN, [NAN], [0.2], CFG)[0].ztilde2, id="ztilde2-nan"),
    pytest.param(lambda: region_samples(GREEN, [math.inf], [0.2], CFG), id="region_pieces-inf"),
    pytest.param(lambda: region_samples(GREEN, [math.inf], [0.2, 0.1], CFG),
                 id="region_samples-inf"),
    pytest.param(lambda: region_samples(GREEN, [NAN], [0.2, 0.1], CFG),
                 id="region_samples-nan"),
    pytest.param(lambda: region_samples(GREEN, [math.inf], [0.2], CFG)[0].ztilde1,
                 id="ztilde1-inf"),
    pytest.param(lambda: region_samples(GREEN, [math.inf], [0.2], CFG)[0].ztilde2,
                 id="ztilde2-inf"),
    pytest.param(lambda: ztilde_2d(GREEN, NAN, 0.2, CFG)[0], id="ztilde1_2d-nan"),
    pytest.param(lambda: ztilde_2d(GREEN, NAN, 0.2, CFG)[1], id="ztilde2_2d-nan"),
    pytest.param(lambda: g_pieces(SUP, NAN, 0.2, CFG), id="g_pieces-nan"),
    pytest.param(lambda: g_pieces(SUP, 0.0, 0.2, CFG), id="g_pieces-zero"),
    pytest.param(lambda: g_pieces(SUP, math.inf, 0.2, CFG), id="g_pieces-inf"),
    pytest.param(lambda: h_pieces(CRIT, NAN, 0.2, CFG), id="h_pieces-nan"),
    pytest.param(lambda: h_pieces(CRIT, -1.0, 0.2, CFG), id="h_pieces-negative"),
    pytest.param(lambda: j_pieces(GREEN, NAN, 0.2, CFG), id="j_pieces-nan"),
    pytest.param(lambda: j_pieces(GREEN, 0.0, 0.2, CFG), id="j_pieces-zero"),
    pytest.param(lambda: constant_L(GREEN, NAN), id="constant_L-nan"),
    pytest.param(lambda: constant_M(GREEN, NAN, CFG), id="constant_M-nan"),
    pytest.param(lambda: constant_L(GREEN, math.inf), id="constant_L-inf"),
    pytest.param(lambda: constant_M(GREEN, math.inf, CFG), id="constant_M-inf"),
    pytest.param(lambda: BumpSpec(NAN, 0.5), id="bump-R1-nan"),
    pytest.param(lambda: BumpSpec(0.5, NAN), id="bump-R2-nan"),
    pytest.param(lambda: BumpSpec(math.inf, 0.5), id="bump-R1-inf"),
    pytest.param(lambda: BumpSpec(0.5, math.inf), id="bump-R2-inf"),
    pytest.param(lambda: log_derivative_moments(SUP, BumpSpec(math.inf, 0.5), 0.2, 0, CFG,
                                                flat=False), id="log_derivative_moments-R1-inf"),
    pytest.param(lambda: log_derivative_integral(SUP, BumpSpec(math.inf, 0.5), -0.2, 0, CFG,
                                                 flat=False), id="log_derivative-R1-inf"),
    pytest.param(lambda: log_derivative_integral(GREEN, BumpSpec(0.5, 0.5), 0.5, math.inf, CFG,
                                                 flat=True),
                 id="log_derivative-j-inf"),
    pytest.param(lambda: log_derivative_integral(GREEN, BumpSpec(0.5, 0.5), 0.5, NAN, CFG,
                                                 flat=True),
                 id="log_derivative-j-nan"),
    pytest.param(lambda: log_derivative_moments(GREEN, BumpSpec(0.5, 0.5), 0.5, 1.5, CFG,
                                                flat=True),
                 id="log_derivative-j-fraction"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, 0.5, NAN), id="monomial-X-nan"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, 0.5, -math.inf),
                 id="monomial-X-inf"),
    pytest.param(lambda: monomial_closed_form(0, 2, -0.5, 0.5, 2.0), id="monomial-r1-negative"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, 0.0, 0.5), id="monomial-r2-zero"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, math.inf, 0.5), id="monomial-r2-inf"),
    pytest.param(lambda: monomial_closed_form(0, 2, 0.5, NAN, 0.5), id="monomial-r2-nan"),
    pytest.param(lambda: bump_eval(BumpSpec(), NAN, 0.1), id="bump_eval-x-nan"),
    pytest.param(lambda: bump_eval(BumpSpec(), 0.1, NAN), id="bump_eval-y-nan"),
    pytest.param(lambda: bump_x_profile(BumpSpec(), np.array([0.1, NAN])),
                 id="bump_x_profile-nan"),
    pytest.param(lambda: bump_y_profile(BumpSpec(), NAN), id="bump_y_profile-nan"),
    pytest.param(lambda: bump_y_increment(BumpSpec(), np.array([NAN, 0.1])),
                 id="bump_y_increment-nan"),
    pytest.param(lambda: integrand(GREEN, 0.3, math.inf, -0.4, flat=True), id="integrand-y-inf"),
    pytest.param(lambda: integrand(GREEN, math.inf, 0.2, -0.4, flat=True), id="integrand-x-inf"),
    pytest.param(lambda: integrand(GREEN, NAN, 0.2, -0.4, flat=True), id="integrand-x-nan"),
    pytest.param(lambda: integrand(GREEN, 0.3, np.array([0.2, NAN]), -0.4, flat=True),
                 id="integrand-y-nan"),
    pytest.param(lambda: integrand(GREEN, 0.3, 0.2, NAN, flat=True), id="integrand-sigma-nan"),
    pytest.param(lambda: integrand(GREEN, 0.3, 0.2, -math.inf, flat=True),
                 id="integrand-sigma-inf"),
])
def test_invalid_input_raises_domain_error(call):
    # a lambda that is not positive and finite, a bump half-width that is
    # NaN or infinite, a j that is no nonnegative integer, a monomial
    # sigma that is not finite or box side outside (0, inf), a NaN bump
    # argument (it would read as outside the support) and an integrand
    # point or sigma that is not finite fail up front, before any
    # quadrature runs
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("lams", [[], [1.0, 0.0], [-1.0, 1.0], [1.0, math.inf], [NAN, 1.0]],
                         ids=["empty", "zero", "negative", "inf", "nan"])
def test_region_samples_rejects_bad_lambdas_before_quadrature(monkeypatch, lams):
    # one bad lambda among valid ones fails the whole batch up front
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", no_quadrature)
    with pytest.raises(DomainError):
        region_samples(GREEN, lams, [0.2, 0.1], CFG)


@pytest.mark.parametrize("j", [0, 1, 4])
def test_nan_exponent_out_of_window(j):
    # a NaN s fails the window test s > -c0 instead of reaching a quadrature
    with pytest.raises(OutOfWindow):
        log_derivative_integral(GREEN, BumpSpec(0.5, 0.5), NAN, j, CFG, flat=True)
    with pytest.raises(OutOfWindow):
        log_derivative_moments(GREEN, BumpSpec(0.5, 0.5), NAN, j, CFG, flat=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(lambda p, lam, X: region_samples(p, [1.0, lam], [X], CFG), id="region_samples"),
    pytest.param(lambda p, lam, X: region_samples(p, [lam], [X], CFG)[0].ztilde1, id="ztilde1"),
    pytest.param(lambda p, lam, X: region_samples(p, [lam], [X], CFG)[0].ztilde2, id="ztilde2"),
    pytest.param(lambda p, lam, X: ztilde_2d(p, lam, X, CFG)[0], id="ztilde1_2d"),
    pytest.param(lambda p, lam, X: ztilde_2d(p, lam, X, CFG)[1], id="ztilde2_2d"),
    pytest.param(lambda p, lam, X: g_pieces(p, lam, X, CFG), id="g_pieces"),
    pytest.param(lambda p, lam, X: h_pieces(p, lam, X, CFG), id="h_pieces"),
    pytest.param(lambda p, lam, X: j_pieces(p, lam, X, CFG), id="j_pieces"),
])
def test_degenerate_lower_limit(monkeypatch, call):
    # lam r2 so tiny that rho underflows to exact zero: needs a very small p
    # so the inverse profile (1/(q |log y|))^(1/p) collapses below fp range.
    # One check (_slice_rho) rejects it for every slice integral and every
    # proof-level part, before any quadrature or incomplete Gamma and
    # without a warning
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature or an incomplete Gamma ran")

    monkeypatch.setattr(zeta_mod, "_tanh_sinh", no_quadrature)
    monkeypatch.setattr(zeta_mod, "_gamma_upper", no_quadrature)
    p = FamilyParams(0, 2, 2, Fraction(1, 150), r1=0.5, r2=0.5)
    with pytest.raises(DegenerateLowerLimit):
        call(p, 1e-300, p.b * -0.3 + 1.0)
