"""Parameter objects, exact regime classification and shared numeric config.

The family under study is

    f(x, y) = x^a y^b + x^a y^(b-q) * exp(-1/|x|^p)

on the quadrant box [0, r1] x [0, r2].  The flat decay rate p is kept as an
exact rational so that the boundary case p == 1 - a/b is decidable: with a
floating p the critical regime would be unreachable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer literal into an exact Fraction."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise DomainError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


@dataclass(frozen=True)
class FamilyParams:
    """The tuple (a, b, q, p, r1, r2) defining the family and its quadrant."""

    a: int
    b: int
    q: int
    p: Fraction
    r1: float = 0.5
    r2: float = 0.5

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (self.a, self.b, self.q)):
            raise DomainError("a, b, q must be integers")
        if not 0 <= self.a < self.b:
            raise DomainError(f"need 0 <= a < b, got a={self.a}, b={self.b}")
        if self.b < 2:
            raise DomainError(f"need b >= 2, got b={self.b}")
        if not 1 <= self.q <= self.b:
            raise DomainError(f"need 1 <= q <= b, got q={self.q}")
        if not isinstance(self.p, Fraction):
            try:
                object.__setattr__(self, "p", Fraction(self.p))
            except (ValueError, OverflowError) as exc:
                raise DomainError(f"p must be a finite rational, got p={self.p}") from exc
        if self.p <= 0:
            raise DomainError(f"need p > 0, got p={self.p}")
        if not 0.0 < self.r1 < 1.0 or not 0.0 < self.r2 < 1.0:
            raise DomainError(f"need r1, r2 in (0,1), got r1={self.r1}, r2={self.r2}")

    @property
    def p_float(self) -> float:
        return float(self.p)

    @property
    def a_over_b(self) -> Fraction:
        return Fraction(self.a, self.b)


class RegimeKind(enum.Enum):
    SUPERCRITICAL_FLAT = "SupercriticalFlat"
    CRITICAL_FLAT = "CriticalFlat"
    SUBCRITICAL_FLAT = "SubcriticalFlat"


@dataclass(frozen=True)
class Regime:
    """Classification of p against 1 - a/b with the derived blow-up exponent.

    epsilon0 = a/b + p - 1 is kept exact; its sign decides the kind.  The
    blow-up exponent 1 - (1 - a/b)/p is set only in the supercritical case,
    where it always lies in (0, 1).
    """

    kind: RegimeKind
    epsilon0: Fraction
    blowup_exponent: float | None


def classify_regime(params: FamilyParams) -> Regime:
    """Decide the flatness regime by exact rational comparison of p with 1 - a/b."""
    eps0 = params.a_over_b + params.p - 1
    if eps0 > 0:
        kappa = 1 - (1 - params.a_over_b) / params.p
        return Regime(RegimeKind.SUPERCRITICAL_FLAT, eps0, float(kappa))
    if eps0 == 0:
        return Regime(RegimeKind.CRITICAL_FLAT, eps0, None)
    return Regime(RegimeKind.SUBCRITICAL_FLAT, eps0, None)


class NewtonDistance(NamedTuple):
    d: int
    c0: Fraction


def newton_distance(a: int, b: int) -> NewtonDistance:
    """Newton distance d = b and critical integrability index c0 = 1/b.

    The flat term contributes nothing to the Newton polyhedron (all of its
    Taylor coefficients vanish), so only the monomial x^a y^b counts and,
    since a < b, the bisector meets the polyhedron at (b, b).
    """
    if not 0 <= a < b:
        raise DomainError(f"need 0 <= a < b, got a={a}, b={b}")
    return NewtonDistance(d=b, c0=Fraction(1, b))


@dataclass(frozen=True)
class SigmaSchedule:
    """A schedule of X_k = b*sigma_k + 1 in (0, 1), strictly decreasing to 0,
    i.e. sigma_k = (X_k - 1)/b in (-1/b, 0) approaching -1/b."""

    xs: tuple[float, ...]
    b: int

    def __post_init__(self):
        if len(self.xs) < 4:
            raise DomainError(f"schedule needs at least 4 points, got {len(self.xs)}")
        if not all(0.0 < x < 1.0 for x in self.xs):      # NaN fails
            raise DomainError("every X_k must lie in (0, 1)")
        if any(x2 >= x1 for x1, x2 in zip(self.xs, self.xs[1:])):
            raise DomainError("X_k must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.xs)


def make_schedule(x_start: float, ratio: float, count: int, b: int) -> SigmaSchedule:
    """Geometric schedule X_k = x_start * ratio^k.

    Proof-level correction terms scale like X log X, so geometric spacing in X
    gives a well-conditioned extrapolation later on.
    """
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"need 0 < ratio < 1, got {ratio}")
    if not 0.0 < x_start < 1.0:
        raise DomainError(f"need X_start in (0,1), got {x_start}")
    if count < 4:
        raise DomainError(f"need count >= 4, got {count}")
    return SigmaSchedule(tuple(x_start * ratio**k for k in range(count)), b)


#: Default schedule shape: geometric in X with ratio 1/2, 14 points from X = 2^-3.
DEFAULT_SCHEDULE = (0.125, 0.5, 14)


@dataclass(frozen=True)
class NumericConfig:
    """Quadrature tolerances shared by the evaluators (the refinement cap is
    flatzeta.quad.MAX_LEVELS)."""

    tol_1d: float = 1e-10
    tol_2d: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.tol_1d <= 1e-2 or not 0.0 < self.tol_2d <= 1e-2:
            raise DomainError("tolerances must lie in (0, 1e-2]")


DEFAULT_CONFIG = NumericConfig()


# Canonical parameter sets: one per flatness regime.
PRESETS: dict[str, FamilyParams] = {
    "supercritical": FamilyParams(a=0, b=2, q=2, p=Fraction(2), r1=0.5, r2=0.5),
    "critical": FamilyParams(a=0, b=2, q=2, p=Fraction(1), r1=0.5, r2=0.5),
    "greenblatt": FamilyParams(a=1, b=2, q=2, p=Fraction(1, 4), r1=0.5, r2=0.5),
}
