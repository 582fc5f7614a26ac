"""Zeta-function transfer along suspensions.

Given the family of twisted local zeta functions of a germ f (a
ZetaProfile), suspend_G computes the corresponding functions of
G = z^m (z^k + f) in closed form; the plain suspension F = z^k + f is the
case m = 0, nu_z = 1.  The ell-twisted output is one sum over the cones
sigma+, sigma-, rho, rho* of z^m (z^k + x^N), each gated by the
divisibility of m or m+k by ell, with a Jordan-totient-weighted sum over
the divisors of k, in the shift r = ((m+k)s + nu_z)/k, which no twist
changes: suspend_profile and LysSurface shift each entry of f once.

Also here: the matrix form of the transfer identity for F, eigenvalue-order
transfer via classical Thom-Sebastiani, and the f-bad order classification
that controls which orders disappear under suspension by two points.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .arith import divisor_closure, divisors, frak_m, jordan_totient, \
    lcm_all
from .cyclo import CycloProduct, OrderSet, cyclo_to_json
from .errors import ValidationError, checked, json_array, json_field
from .ratfun import RatFun
from .resolution import CurveResolutionGraph, acampo, check_prod_nu0, \
    prod_nu0_from_json, strata_of_graph, ztop_from_strata

_ZERO = RatFun.zero()


@checked
class ZetaProfile(NamedTuple):
    """Family ell -> Z_top^(ell) describing one germ; absent entries are the
    zero function, and a nonzero entry must come with all its divisors.
    prod_nu0 is the volume-form normalization: the ell = 1 entry must
    evaluate to 1/prod_nu0 at s = 0.

    Immutable: the fields cannot be reassigned and entries is a read-only
    view of a copy, so support_lcm, the lcm of the support (every ell with
    a nonzero entry; 1 for an empty support), is computed once here and
    never goes stale."""
    entries: Mapping[int, RatFun]
    prod_nu0: int
    validate: bool
    support_lcm: int       # derived

    def _new(cls, entries, prod_nu0=1, validate=True):
        check_prod_nu0(prod_nu0)
        entries = MappingProxyType(dict(entries))
        for l in entries:
            if l < 1:
                raise ValidationError(f"twist index must be >= 1, got {l}")
        if 1 not in entries:
            raise ValidationError("profile must store the ell = 1 entry")
        support = [l for l, z in entries.items() if not z.is_zero()]
        if not entries.keys() >= divisor_closure(support):
            l, d = next((l, d) for l in support for d in divisors(l)
                        if d not in entries)
            raise ValidationError(
                f"support not divisor-closed: entry {l} is nonzero "
                f"but divisor {d} is absent")
        if validate:
            if Fraction(0) in entries[1].pol_plus():
                raise ValidationError("Z(f, s) has a pole at s = 0")
            val = entries[1].evaluate(0)
            if val != Fraction(1, prod_nu0):
                raise ValidationError(
                    f"Z(f, 0) = {val}, expected 1/{prod_nu0}")
        return tuple.__new__(cls, (entries, prod_nu0, validate,
                                   lcm_all(support)))

    def entry(self, l: int) -> RatFun:
        return self.entries.get(l, _ZERO)

    def support(self) -> frozenset[int]:
        return frozenset(l for l, z in self.entries.items() if not z.is_zero())


@checked
class GermSummary(NamedTuple):
    """A germ as constructions and checks read it: its complete zeta family
    and its monodromy's characteristic polynomial, built by summary_from_graph,
    suspend_summary, lys.lys_summary or lys.germ_from_json."""
    zeta: ZetaProfile
    delta: CycloProduct
    name: str

    def _new(cls, zeta, delta, name=""):
        if not delta.is_polynomial():
            raise ValidationError(f"germ {name!r}: delta is not a polynomial")
        return tuple.__new__(cls, (zeta, delta, name))


def profile_from_graph(g: CurveResolutionGraph) -> ZetaProfile:
    """ZetaProfile of a curve germ from its dual resolution graph; entries
    are computed for every divisor of every multiplicity (all other twists
    are identically zero)."""
    res = strata_of_graph(g)
    support = divisor_closure(c.N for c in res.components)
    entries = {l: ztop_from_strata(res, l) for l in sorted(support)}
    return ZetaProfile(entries, g.prod_nu0)


def summary_from_graph(g: CurveResolutionGraph, name: str = "") -> GermSummary:
    _, delta = acampo(g)
    return GermSummary(profile_from_graph(g), delta, name)


# ---------------------------------------------------------------------------
# generalized suspension G = z^m (z^k + f)


def suspend_reads(f: ZetaProfile, m: int, k: int, nu_z: int, l: int):
    """suspend_G's read rule at twist l: None if the twist is zero (past the
    support gate, or nothing to read), else (plus, minus, minus_1, rho):
    sigma+ reads entry l if l | m (plus), sigma- is there if l | m+k
    (minus) and reads entry 1 (minus_1), and rho, rho* read entry
    j = lcm(e, m(k,l,m+k)) with weight rho[j] = sum of J_2(e); only nonzero
    entries count.  e runs over the divisors of gcd(k, f.support_lcm): a
    nonzero entry j divides support_lcm, and so does e.  nu_z is only
    checked here, with m, k and l; no read depends on it."""
    if m < 0 or k < 1 or nu_z < 1 or l < 1:
        raise ValidationError("need m >= 0, k >= 1, nu_z >= 1, l >= 1")
    if (m + k) * f.support_lcm % l:
        return None
    plus = m % l == 0 and bool(f.entry(l).num)
    minus = (m + k) % l == 0
    minus_1 = minus and bool(f.entry(1).num)
    rho = {}                                  # j -> sum of J_2(e)
    fm = frak_m(k, l, m + k)
    for e in divisors(gcd(k, f.support_lcm)):
        if f.entry(j := lcm(e, fm)).num:
            rho[j] = rho.get(j, 0) + jordan_totient(2, e)
    return (plus, minus, minus_1, rho) if plus or minus or rho else None


def shift_entries(f: ZetaProfile, m: int, k: int, nu_z: int, js) -> dict:
    """Z^(j)(f)(r), r = ((m+k)s + nu_z)/k, for each nonzero entry j of js."""
    a, b = Fraction(m + k, k), Fraction(nu_z, k)
    return {j: f.entries[j].substitute_affine(a, b) for j in js}


def suspend_terms(reads: tuple, at_r: Mapping[int, RatFun], prod_nu0: int,
                  m: int, k: int, nu_z: int, l: int) -> list:
    """suspend_G's cone terms for RatFun.sum_inv_products at twist l, from
    suspend_reads' reads and at_r, each entry read shifted to r."""
    plus, minus, minus_1, rho = reads
    terms = [(1, [(nu_z, m)], (1,), at_r[l])] if plus else []
    # 1/prod_nu0 and rho's 1/k are constant factors (b = 0) of the terms
    if minus:
        kr = [(nu_z, m + k)]
        terms.append((1, [*kr, (prod_nu0, 0)]))
        if minus_1:
            terms.append((-1, kr, (1,), at_r[1]))
    # w_l / k: s/(k (s + 1)) or 1/k
    w_l = ([(k, 0), (1, 1)], (0, 1)) if l == 1 else ([(k, 0)], (1,))
    terms += [(-w, *w_l, at_r[j]) for j, w in rho.items()]
    return terms


def suspend_G(f: ZetaProfile, m: int, k: int, nu_z: int, l: int) -> RatFun:
    """Z_top^(l)(G, omega_{d+1}, s) for G = z^m (z^k + f) and the form
    x^nu0 z^nu_z dx/x dz/z: one term per cone of z^m (z^k + x^N), gated by
    the cone's divisibility weight (gcd(n_q, m) on sigma+, m+k on sigma-,
    (m+k) n_q/e_q on rho; the entries of f carry the n_q part), in
    r = ((m+k)s + nu_z)/k:

        [l | m]   Z^(l)(f)(r) / (k (r - s))                     sigma+
      + [l | m+k] 1/(prod_nu0 k r) - Z^(1)(f)(r)/(k r)          sigma-
      - w_l(s) sum_{e | k} J_2(e)/k Z^(lcm(e, m(k,l,m+k)))(f)(r)  rho, rho*

    with w_1 = s/(s+1) = 1 - 1/(s+1) (rho* adds the -1/(s+1)) and w_l = 1
    for l >= 2 (rho* vanishes).  suspend_reads picks the nonzero entries
    each cone reads, rho's with equal entries merged; this twist shifts
    only those to r, suspend_terms lists the terms, and
    RatFun.sum_inv_products adds them over one common denominator, where
    k r cancels from sigma-.

    Support gate: the result is zero unless l divides
    (m+k) f.support_lcm, and then no entry is read.  Each term needs it:
    sigma+ needs entry l nonzero, so l is in the support and divides
    support_lcm; sigma- needs l | m+k; rho reads lcm(e, m(k,l,m+k)), which
    is nonzero only for some s in the support that m(k,l,m+k) divides, and
    every such multiple M of m(k,l,m+k) has l gcd(k, M) | (m+k) M, so
    l | (m+k) s."""
    if (reads := suspend_reads(f, m, k, nu_z, l)) is None:
        return _ZERO
    plus, _, minus_1, rho = reads
    at_r = shift_entries(f, m, k, nu_z, {*[l] * plus, *[1] * minus_1, *rho})
    return RatFun.sum_inv_products(
        suspend_terms(reads, at_r, f.prod_nu0, m, k, nu_z, l))


def suspend_profile(f: ZetaProfile, m: int, k: int, nu_z: int) -> ZetaProfile:
    """The whole profile of G = z^m (z^k + f), validated if f is: every l
    dividing (m+k) s, s = 1 or in f's support, outside of which Z^(l)(G)
    vanishes (suspend_G's support-gate proof), so it can be suspended again;
    each nonzero entry of f is shifted to r once, for all twists."""
    support = f.support()
    twists = divisor_closure((m + k) * s for s in {1} | support)
    at_r = shift_entries(f, m, k, nu_z, support)
    entries = {l: _ZERO if (reads := suspend_reads(f, m, k, nu_z, l)) is None
               else RatFun.sum_inv_products(suspend_terms(
                   reads, at_r, f.prod_nu0, m, k, nu_z, l)) for l in twists}
    return ZetaProfile(entries, nu_z * f.prod_nu0, f.validate)


def suspend_summary(f: GermSummary, k: int, name: str = "") -> GermSummary:
    """z^k + f (m = 0, nu_z = 1); the tensor refuses k < 1 first."""
    delta = f.delta.thom_sebastiani_tensor(k)
    return GermSummary(suspend_profile(f.zeta, 0, k, 1), delta, name)


# ---------------------------------------------------------------------------
# matrix form of the suspension identity

# d(k)^2 entries, one sum per row.  At 448 divisors (k = 999,991,016,640),
# on a 2-vCPU x86-64 machine, the check takes 0.15-0.26 s of wall time and
# `suspend --matrix` 0.29-0.36 s, at a peak RSS of 30 MB for the process
MATRIX_DIVISOR_BOUND = 448


def suspend_matrix(f: ZetaProfile, k: int):
    """Matrix form over the divisors 1 = l_1 < l_2 < ... of k:
    B = k Id - J with J rows (J_2(l_i)), and the identity
    k ZF(s) = (1/t) A + B Zf(t) for F = z^k + f, t = s + 1/k (suspend_G's r
    at m = 0, nu_z = 1: f's entries are shifted to t once).  Row i holds when
    one RatFun.sum_inv_products of k ZF^(l_i), from suspend_G's terms,
    -(1/t) A_i = -k/((ks + 1) prod_nu0) and each -B_ij Zf^(l_j)(t) is zero;
    row 1's (s + 1)/s and column 1's (t + 1)/t = (ks + k + 1)/(ks + 1) are
    a linear factor and a numerator of its terms.

    Returns (B, identity_holds); refuses k with more than
    MATRIX_DIVISOR_BOUND divisors."""
    ds = list(divisors(k))
    if len(ds) > MATRIX_DIVISOR_BOUND:
        raise ValidationError(
            f"k = {k} has d(k) = {len(ds)} divisors; the matrix form allows "
            f"at most {MATRIX_DIVISOR_BOUND}")
    j2 = [jordan_totient(2, l) for l in ds]
    b_matrix = [[(k if i == j else 0) - j2[j] for j in range(len(ds))]
                for i in range(len(ds))]
    at_t = shift_entries(f, 0, k, 1, f.support())
    # (factors, numerator) of 1, of (s + 1)/s and of (t + 1)/t
    one, s1_s, t1_t = ([], (1,)), ([(0, 1)], (1, 1)), ([(1, k)], (k + 1, k))
    zf = {j: (*(one if j else t1_t), at_t[l])
          for j, l in enumerate(ds) if l in at_t}

    def row(i: int, l: int) -> RatFun:  # l | m + k: suspend_reads never None
        zF = RatFun.sum_inv_products(suspend_terms(suspend_reads(
            f, 0, k, 1, l), at_t, f.prod_nu0, 0, k, 1, l))
        factors, num = one if i else s1_s
        return RatFun.sum_inv_products([
            (Fraction(-k, f.prod_nu0), [(1, k), *factors], num),
            *[(k, factors, num, zF)] * bool(zF.num),
            *[(-b_matrix[i][j], *column) for j, column in zf.items()]])

    return b_matrix, all(row(i, l).is_zero() for i, l in enumerate(ds))


# ---------------------------------------------------------------------------
# eigenvalue orders under suspension


def suspend_orders(f: GermSummary, k: int) -> tuple[CycloProduct, OrderSet]:
    """Characteristic polynomial of z^k + f via Thom-Sebastiani and its root
    orders; z^m-twisted germs go through the Le-Yomdin assembly instead."""
    delta_f = f.delta.thom_sebastiani_tensor(k)
    return delta_f, delta_f.root_orders()


def fbad_set(orders_f: OrderSet) -> OrderSet:
    """All f-bad integers: l = 2 mod 4 in the order closure, with 2l outside
    the closure and l/2 outside the closure of the odd orders."""
    closure = divisor_closure(orders_f)
    odd_closure = divisor_closure(d for d in orders_f if d % 2 == 1)
    return frozenset(
        l for l in closure
        if l % 4 == 2 and 2 * l not in closure and l // 2 not in odd_closure)


# ---------------------------------------------------------------------------
# JSON


def profile_to_json(f: ZetaProfile) -> dict:
    return {"prod_nu0": f.prod_nu0,
            **({} if f.validate else {"validate": False}),
            "entries": [{"ell": l, **f.entries[l].to_json()}
                        for l in sorted(f.entries)]}


def profile_from_json(obj: dict) -> ZetaProfile:
    entries: dict[int, RatFun] = {}
    for i, e in enumerate(json_array(obj, "entries")):
        l = json_field(e, "ell", record=f"'entries'[{i}]")
        if l in entries:
            raise ValidationError(f"'entries'[{i}]: duplicate ell = {l}")
        entries[l] = RatFun.from_json(e)
    validate = "validate" not in obj or json_field(obj, "validate", bool)
    return ZetaProfile(entries, prod_nu0_from_json(obj), validate)


def summary_to_json(g: GermSummary) -> dict:
    return {**profile_to_json(g.zeta), "delta": cyclo_to_json(g.delta),
            **({"name": g.name} if g.name else {})}
