"""k-Le-Yomdin surface singularities (k = 1: superisolated).

A germ F = f_m + f_{m+k} + ... with projectivized tangent cone C_m whose
singular points avoid V(f_{m+k}) blows down to a stratification of the
exceptional P^n, so its zeta functions assemble from the global strata and
one generalized-suspension term per singular point of C_m, in the shift
r = (1 + n + (m+k)s)/k.  The characteristic polynomial assembles as
(tau^m - 1)^chi(P^2 \\ C) / (tau - 1) * prod_q Delta_q^(k)(tau^{m+k}).
Superisolated surfaces (k = 1) go through the same assembly.  The
eigenvalue orders are read off Delta and the residue at -3/m off Z_top;
the paper's closed forms for both are test oracles (tests/closed_forms.py).
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .arith import divisor_closure
from .cyclo import CycloProduct, OrderSet
from .errors import ValidationError, checked, json_array, json_check, \
    json_field
from .ratfun import PoleError, RatFun
from .suspension import GermSummary, summary_from_json, summary_to_json, \
    suspend_G


@checked
class LysSurface(NamedTuple):
    n: int                     # ambient projective dimension (2 for surfaces)
    m: int                     # degree of the tangent cone C_m
    k: int
    chi_complement: int        # chi(P^n \ C)
    chi_curve_smooth: int      # chi(C \ Sing C)
    points: Sequence[GermSummary]

    def _new(cls, n, m, k, chi_complement, chi_curve_smooth, points=()):
        if n < 1 or m < 1 or k < 1:
            raise ValidationError("need n, m, k >= 1")
        if n == 2:
            # a plane curve of degree m: chi(C) = 3m - m^2 + sum_p mu_p
            chi_c = 3 * m - m ** 2 + sum(q.delta.degree() for q in points)
            expected = (3 - chi_c, chi_c - len(points))
            if (chi_complement, chi_curve_smooth) != expected:
                raise ValidationError(
                    f"(chi_complement, chi_curve_smooth) = ({chi_complement}"
                    f", {chi_curve_smooth}), expected {expected}")
        return tuple.__new__(cls, (n, m, k, chi_complement, chi_curve_smooth,
                                   points))


def lys_ztop(S: LysSurface, l: int = 1) -> RatFun:
    """Z_top^(l)(F, s): global strata plus one suspension term per singular
    point of the tangent cone."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    krs = (S.n + 1, S.m)                     # k (r - s) = m s + n + 1
    terms = []
    if S.m % l == 0:
        terms.append((S.chi_complement, [krs]))
    if l == 1:
        terms.append((S.chi_curve_smooth, [krs, (1, 1)]))
    total = RatFun.sum_inv_products(terms)
    for point in S.points:
        total += suspend_G(point.zeta, S.m, S.k, S.n + 1, l)
    return total


def lys_charpoly(S: LysSurface) -> tuple[CycloProduct, CycloProduct]:
    """(Delta, Delta_tilde): the characteristic polynomial of the monodromy
    and its (tau - 1) multiple, which must be an honest polynomial."""
    delta = CycloProduct.from_brackets([(S.m, S.chi_complement), (1, -1)])
    for q in S.points:
        local = q.delta.power_transform(S.k).variable_power(S.m + S.k)
        delta = delta * local
    delta_tilde = delta * CycloProduct.from_brackets([(1, 1)])
    if not delta_tilde.is_polynomial():
        raise ValidationError("(tau - 1) Delta is not a polynomial; "
                              "inconsistent Le-Yomdin input")
    return delta, delta_tilde


def require_surface(S: LysSurface, statement: str) -> None:
    if S.n != 2:
        raise ValidationError(f"{statement} (n = 2)")


def lys_orders(S: LysSurface) -> OrderSet:
    """Divisor closure of the eigenvalue orders, read off the assembled
    characteristic polynomial."""
    require_surface(S, "order description is a surface statement")
    return divisor_closure(lys_charpoly(S)[0].root_orders())


def is_bad_divisor(S: LysSurface) -> bool:
    """deg C > 3, chi(P^2 \\ C) <= 0, and -3/m a pole of no local zeta."""
    require_surface(S, "bad divisors are defined for surfaces")
    if S.m <= 3 or S.chi_complement > 0:
        return False
    lct = Fraction(3, S.m)
    return all(lct not in q.zeta.pol_plus() for q in S.points)


def residue_lct(S: LysSurface) -> Fraction:
    """Residue of Z_top(F, s) at the log-canonical candidate -3/m, where it
    is at most a simple pole: m != 3 and -3/m a pole of no local zeta."""
    require_surface(S, "residue formula is a surface statement")
    if S.m == 3:
        raise PoleError("m = 3: the candidate -3/m = -1 is also the root of "
                        "s + 1, which other terms carry, so the pole need "
                        "not be simple")
    lct = Fraction(3, S.m)
    for q in S.points:
        if lct in q.zeta.pol_plus():
            raise PoleError(
                f"-3/m is a pole at point {q.name!r}: multiple pole regime")
    return lys_ztop(S, 1).residue_at(-lct)


# ---------------------------------------------------------------------------
# JSON


def lys_to_json(S: LysSurface) -> dict:
    return {"n": S.n, "m": S.m, "k": S.k,
            "chi_complement": S.chi_complement,
            "chi_curve_smooth": S.chi_curve_smooth,
            "points": [summary_to_json(q) for q in S.points]}


def lys_from_json(obj: dict) -> LysSurface:
    json_check(obj, dict, "'lys'")
    points = [summary_from_json(p, f"q{i + 1}") for i, p in
              enumerate(json_array(obj, "points", required=False))]
    n, m, k, chi_complement, chi_curve_smooth = [
        json_field(obj, key) for key in
        ("n", "m", "k", "chi_complement", "chi_curve_smooth")]
    return LysSurface(n, m, k, chi_complement, chi_curve_smooth, points)
