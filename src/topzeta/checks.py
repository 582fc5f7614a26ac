"""Mechanical monodromy- and holomorphy-conjecture checks.

check_monodromy: every pole -a/b of the untwisted zeta function must give
an eigenvalue exp(2 pi i a/b) of the monodromy somewhere on the zero set;
integer poles pass via the eigenvalue 1 at a smooth point, other poles by
Phi_b dividing (tau - 1) Delta.

check_holomorphy: for every l > 1 outside the divisor closure of the
eigenvalue orders, the l-twisted zeta function must vanish identically.

A Subject is what both checks read off one germ (a curve germ, a
suspension z^k + f, or a Le-Yomdin surface): its twist family and
(tau - 1) Delta, whose root orders give the eigenvalue orders.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .arith import divisor_closure, lcm_all
from .cyclo import CycloProduct, OrderSet
from .errors import ValidationError, json_field
from .lys import LysSurface, lys_charpoly, lys_from_json, lys_ztop, \
    require_surface
from .ratfun import RatFun
from .resolution import CurveResolutionGraph, acampo, graph_from_json, \
    strata_of_graph, ztop_from_strata
from .suspension import GermSummary, summary_from_json, suspend_G

L_MAX_CAP = 10_000
_TAU_MINUS_1 = CycloProduct.from_brackets([(1, 1)])
# a subject without "kind" has the kind of the first of these keys it holds
_KIND_KEYS = (("vertices", "curve"), ("germ", "suspension"),
              ("points", "lys"), ("chi_complement", "lys"))


class Subject(NamedTuple):
    """One checked germ: its twist family l -> Z^(l) and (tau - 1) Delta."""
    zeta: Callable[[int], RatFun]
    delta_tilde: CycloProduct

    @property
    def orders(self) -> OrderSet:
        """The root orders of (tau - 1) Delta.  They differ from the
        eigenvalue orders at most in 1, which check_holomorphy skips."""
        return self.delta_tilde.root_orders()


def curve_subject(g: CurveResolutionGraph) -> Subject:
    res = strata_of_graph(g)
    _, delta = acampo(g)
    return Subject(partial(ztop_from_strata, res), delta * _TAU_MINUS_1)


def suspension_subject(germ: GermSummary, k: int) -> Subject:
    """z^k + f, with the form dx dz (m = 0, nu_z = 1)."""
    return Subject(partial(suspend_G, germ.zeta, 0, k, 1),
                   germ.delta.thom_sebastiani_tensor(k) * _TAU_MINUS_1)


def lys_subject(S: LysSurface) -> Subject:
    _, delta_tilde = lys_charpoly(S)
    require_surface(S, "order description is a surface statement")
    return Subject(partial(lys_ztop, S), delta_tilde)


def subject_from_json(obj: dict) -> Subject:
    """A curve germ, a suspension or a Le-Yomdin surface; "kind" is
    inferred from the keys when absent."""
    kind = obj.get("kind")
    if kind is None:
        kind = next((named for key, named in _KIND_KEYS if key in obj), None)
        if kind is None:
            raise ValidationError("cannot infer subject kind")
    if kind == "curve":
        return curve_subject(graph_from_json(obj.get("graph", obj)))
    if kind == "suspension":
        k = json_field(obj, "k")
        return suspension_subject(
            summary_from_json(json_field(obj, "germ", dict)), k)
    if kind == "lys":
        return lys_subject(lys_from_json(obj.get("lys", obj)))
    raise ValidationError(f"unknown subject kind {kind!r}")


class CheckItem(NamedTuple):
    """One checked twist ell (holomorphy) or pole (monodromy, ell None);
    the order of a pole is its denominator."""
    ell: int | None
    ok: bool
    note: str = ""
    pole: Fraction | None = None

    @property
    def order(self) -> int | None:
        return None if self.pole is None else self.pole.denominator

    @property
    def label(self) -> str:
        return str(self.ell) if self.pole is None \
            else f"{self.pole}|{self.order}"

    def to_json(self) -> dict:
        out = {"ell": self.ell} if self.pole is None \
            else {"pole": str(self.pole), "order": self.order}
        out["ok"] = self.ok
        if self.note:
            out["note"] = self.note
        return out


class Report(NamedTuple):
    conjecture: str
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def to_json(self) -> dict:
        return {"conjecture": self.conjecture,
                "verdict": "pass" if self.passed else "fail",
                "items": [item.to_json() for item in self.items]}


def check_monodromy(zeta1: RatFun, delta_tilde: CycloProduct) -> Report:
    """For each pole -a/b (lowest terms) of zeta1: pass if b = 1 (eigenvalue
    1 at a smooth point) or Phi_b divides delta_tilde."""
    if not delta_tilde.is_polynomial():
        raise ValueError("delta_tilde must be a polynomial")
    items = []
    for pole, _mult in zeta1.poles_with_multiplicity():
        order = pole.denominator
        if order == 1:
            items.append(CheckItem(None, True, "accepted via smooth point",
                                   pole))
        elif delta_tilde.exponent(order) >= 1:
            items.append(CheckItem(None, True, pole=pole))
        else:
            items.append(CheckItem(
                None, False,
                f"Phi_{order} does not divide the characteristic polynomial",
                pole))
    return Report("monodromy", tuple(items))


def default_l_max(orders: OrderSet) -> int:
    closure = divisor_closure(orders)
    if not closure:
        return 2
    return min(2 * lcm_all(closure), L_MAX_CAP)


def check_holomorphy(zeta_family: Callable[[int], RatFun], orders: OrderSet,
                     l_max: int | None = None) -> Report:
    """Every 1 < l <= l_max outside the order closure must give the zero
    function; l inside the closure is unconstrained and skipped.  A given
    l_max must lie in [2, L_MAX_CAP]."""
    if l_max is not None and not 2 <= l_max <= L_MAX_CAP:
        raise ValidationError(
            f"l_max must be between 2 and {L_MAX_CAP}, got {l_max}")
    closure = divisor_closure(orders)
    if l_max is None:
        l_max = default_l_max(orders)
    items = []
    for l in range(2, l_max + 1):
        if l in closure:
            continue
        z = zeta_family(l)
        zero = z.is_zero()
        items.append(CheckItem(l, zero, "" if zero else f"Z^({l}) = {z}"))
    return Report("holomorphy", tuple(items))
