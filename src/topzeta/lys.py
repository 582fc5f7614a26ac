"""k-Le-Yomdin surface singularities (k = 1: superisolated).

A germ F = f_m + f_{m+k} + ... with projectivized tangent cone C_m whose
singular points avoid V(f_{m+k}) blows down to a stratification of the
exceptional P^n, so its zeta functions assemble from the global strata and
the generalized-suspension terms of each singular point of C_m, in the
shift r = (1 + n + (m+k)s)/k, all in one sum_inv_products, built once per
point type (zeta, delta), whose entries are shifted to r once, and scaled
by its count.  The characteristic polynomial is one bracket list in every
dimension, with eps = (-1)^n:
[(tau^m - 1)^chi(P^n \\ C) / (tau - 1)]^eps * prod_q Delta_q^(k)(tau^{m+k}),
which LysSurface derives once and refuses when it is not a polynomial;
lys_charpoly alone builds its (tau - 1) multiple Delta_tilde.  Eigenvalue
orders are read off Delta and the residue at -3/m off Z_top; the paper's
closed forms for both are test oracles (tests/closed_forms.py).
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import NamedTuple

from .arith import TRIAL_DIVISION_BOUND, divisor_closure
from .cyclo import CycloProduct, OrderSet
from .errors import ValidationError, checked, json_array, json_check, \
    json_field
from .ratfun import PoleError, RatFun
from .suspension import GermSummary, ZetaProfile, shift_entries, \
    summary_from_json, summary_to_json, suspend_reads, suspend_terms


N_MAX = 64           # n above it is refused: chi_n(m) has n log10(m) digits


@checked
class LysSurface(NamedTuple):
    """Four fields are derived here, once: support_lcm = lcm(m, (m+k)
    q.zeta.support_lcm over the points q), which every l with a nonzero
    lys_ztop(S, l) divides; point_types, one (point, count) per distinct
    (zeta, delta) of the points, in order of first appearance; at_r, per
    point type, its nonzero entries shifted to r = (n + 1 + (m+k)s)/k (a
    read-only map j -> Z^(j)(q)(r)), which lys_ztop reads at every twist;
    delta = Delta, or the ValidationError that refuses it (a bracket above
    10^12, or Delta not a polynomial), which lys_charpoly raises and
    lys_ztop never reads."""
    n: int                     # ambient projective dimension (2 for surfaces)
    m: int                     # degree of the tangent cone C_m
    k: int
    chi_complement: int        # chi(P^n \ C)
    chi_curve_smooth: int      # chi(C \ Sing C)
    points: Sequence[GermSummary]
    support_lcm: int           # derived
    point_types: tuple         # derived
    at_r: tuple                # derived
    delta: CycloProduct | ValidationError   # derived, or its refusal

    def _new(cls, n, m, k, chi_complement, chi_curve_smooth, points=()):
        if n < 1 or m < 1 or k < 1:
            raise ValidationError("need n, m, k >= 1")
        if n > N_MAX or m > TRIAL_DIVISION_BOUND:
            raise ValidationError(f"need n <= {N_MAX} and m <= 10^12")
        # degree-m C in P^n: chi(C) = chi_n(m) (C smooth) + (-1)^n sum_q mu_q
        chi_c = ((1 - m) ** (n + 1) - 1) // m + n + 1 + (-1) ** n * sum(
            q.delta.degree() for q in points)
        expected = (n + 1 - chi_c, chi_c - len(points))
        if (chi_complement, chi_curve_smooth) != expected:
            raise ValidationError(
                f"(chi_complement, chi_curve_smooth) = ({chi_complement}"
                f", {chi_curve_smooth}), expected {expected}")
        keys = [q[:2] for q in points]          # (zeta, delta), not the name
        point_types = tuple((q, keys.count(key)) for i, (q, key) in enumerate(
            zip(points, keys)) if keys.index(key) == i)
        try:        # the refusals are lys_charpoly's: Z needs no Delta
            delta = CycloProduct.from_brackets([
                (1, -(-1) ** n), (m, (-1) ** n * chi_complement), *(
                    (d, count * e) for q, count in point_types
                    for d, e in q.delta.power_brackets(k, m + k))])
            if not delta.is_polynomial():
                raise ValidationError("Delta is not a polynomial; "
                                      "inconsistent Le-Yomdin input")
        except ValidationError as refusal:
            delta = refusal
        return tuple.__new__(cls, (
            n, m, k, chi_complement, chi_curve_smooth, points,
            lcm(m, *((m + k) * q.zeta.support_lcm for q in points)),
            point_types, tuple(MappingProxyType(shift_entries(
                q.zeta, m, k, n + 1, q.zeta.support()))
                for q, _ in point_types), delta))


def lys_ztop(S: LysSurface, l: int = 1) -> RatFun:
    """Z_top^(l)(F, s): the global strata terms and each point type's
    suspend_terms, built from its entries in S.at_r, their scalars times
    the type's count, added by one RatFun.sum_inv_products.  Zero, before
    any term is built, when l does not divide S.support_lcm."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    if S.support_lcm % l:
        return RatFun.zero()
    krs = (S.n + 1, S.m)                     # k (r - s) = m s + n + 1
    terms = [(S.chi_complement, [krs])] if S.m % l == 0 else []
    if l == 1:
        terms.append((S.chi_curve_smooth, [krs, (1, 1)]))
    for (point, count), at_r in zip(S.point_types, S.at_r):
        if reads := suspend_reads(point.zeta, S.m, S.k, S.n + 1, l):
            terms += [(count * t[0], *t[1:]) for t in suspend_terms(
                reads, at_r, point.zeta.prod_nu0, S.m, S.k, S.n + 1, l)]
    return RatFun.sum_inv_products(terms)


def lys_charpoly(S: LysSurface) -> tuple[CycloProduct, CycloProduct]:
    """(Delta, Delta_tilde): S.delta, the characteristic polynomial of the
    monodromy, or its refusal raised, and its (tau - 1) multiple, which
    raises the exponent of Phi_1, the first item if present, by one."""
    if isinstance(S.delta, ValidationError):
        raise S.delta.with_traceback(None)
    e1, items = S.delta.exponent(1), S.delta.items
    return S.delta, CycloProduct(((1, e1 + 1),) + items[bool(e1):])


def lys_summary(S: LysSurface) -> GermSummary:
    """Delta and lys_ztop at every divisor of m, m + k and (m+k) s, s in a
    point's support: every other twist is zero (suspend_G's support gate).
    Z(F, 0) = 1 is checked unless a point's profile is unvalidated."""
    delta = lys_charpoly(S)[0]
    twists = divisor_closure([S.m, S.m + S.k, *(
        (S.m + S.k) * s for q, _ in S.point_types for s in q.zeta.support())])
    return GermSummary(ZetaProfile({l: lys_ztop(S, l) for l in twists}, 1, all(
        q.zeta.validate for q, _ in S.point_types)), delta)


def require_surface(S: LysSurface, statement: str) -> None:
    if S.n != 2:
        raise ValidationError(f"{statement} (n = 2)")


def lys_orders(S: LysSurface) -> OrderSet:
    """Divisor closure of the eigenvalue orders, the root orders of Delta."""
    return divisor_closure(lys_charpoly(S)[0].root_orders())


def is_bad_divisor(S: LysSurface) -> bool:
    """deg C > 3, chi(P^2 \\ C) <= 0, and -3/m a pole of no local zeta."""
    require_surface(S, "bad divisors are defined for surfaces")
    if S.m <= 3 or S.chi_complement > 0:
        return False
    lct = Fraction(3, S.m)
    return all(lct not in q.zeta.pol_plus() for q, _ in S.point_types)


def residue_lct(S: LysSurface) -> Fraction:
    """Residue of Z_top(F, s) at the log-canonical candidate -3/m, where it
    is at most a simple pole: m != 3 and -3/m a pole of no local zeta."""
    require_surface(S, "residue formula is a surface statement")
    if S.m == 3:
        raise PoleError("m = 3: the candidate -3/m = -1 is also the root of "
                        "s + 1, which other terms carry, so the pole need "
                        "not be simple")
    lct = Fraction(3, S.m)
    for q, _ in S.point_types:          # the first point of each type
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
    n = json_field(obj, "n")             # each point is a germ in n variables
    points = [summary_from_json(p, f"q{i + 1}", n) for i, p in
              enumerate(json_array(obj, "points", required=False))]
    m, k, chi_complement, chi_curve_smooth = [
        json_field(obj, key) for key in
        ("m", "k", "chi_complement", "chi_curve_smooth")]
    return LysSurface(n, m, k, chi_complement, chi_curve_smooth, points)
