"""Mechanical monodromy- and holomorphy-conjecture checks.

check_monodromy: every pole -a/b of the untwisted zeta function must give
an eigenvalue exp(2 pi i a/b) of the monodromy somewhere on the zero set;
integer poles pass via the eigenvalue 1 at a smooth point, other poles by
Phi_b dividing Delta.

check_holomorphy: for every l > 1 outside the divisor closure of the
eigenvalue orders, the l-twisted zeta function must vanish identically.

Both read a germ (a curve, a suspension z^k + f or a Le-Yomdin surface) as
a GermSummary with a complete profile, Z^(l) = germ.zeta.entry(l), and its
characteristic polynomial Delta.  Neither reads Phi_1: an integer pole
passes via the smooth point and the twist 1 is never checked, so
(tau - 1) Delta gives the same reports as Delta.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .arith import divisor_closure, lcm_all
from .cyclo import CycloProduct, OrderSet
from .errors import ValidationError, json_field
from .lys import lys_from_json, lys_summary
from .ratfun import RatFun
from .resolution import graph_from_json
from .suspension import GermSummary, summary_from_graph, summary_from_json, \
    suspend_summary

L_MAX_CAP = 10_000
# a subject without "kind" has the kind of the first of these keys it holds
_KIND_KEYS = (("vertices", "curve"), ("germ", "suspension"),
              ("points", "lys"), ("chi_complement", "lys"))


def subject_from_json(obj: dict) -> GermSummary:
    """A curve germ, a suspension or a Le-Yomdin surface; "kind" is
    inferred from the keys when absent."""
    kind = obj.get("kind")
    if kind is None:
        kind = next((named for key, named in _KIND_KEYS if key in obj), None)
        if kind is None:
            raise ValidationError("cannot infer subject kind")
    if kind == "curve":
        return summary_from_graph(graph_from_json(obj.get("graph", obj)))
    if kind == "suspension":
        k = json_field(obj, "k")
        return suspend_summary(
            summary_from_json(json_field(obj, "germ", dict)), k)
    if kind == "lys":
        return lys_summary(lys_from_json(obj.get("lys", obj)))
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


def check_monodromy(zeta1: RatFun, delta: CycloProduct) -> Report:
    """For each pole -a/b (lowest terms) of zeta1: pass if b = 1 (eigenvalue
    1 at a smooth point) or Phi_b divides delta."""
    if not delta.is_polynomial():
        raise ValidationError("delta must be a polynomial")
    items = []
    for pole, _mult in zeta1.poles_with_multiplicity():
        order = pole.denominator
        if order == 1:
            items.append(CheckItem(None, True, "accepted via smooth point",
                                   pole))
        elif delta.exponent(order) >= 1:
            items.append(CheckItem(None, True, pole=pole))
        else:
            items.append(CheckItem(
                None, False,
                f"Phi_{order} does not divide the characteristic polynomial",
                pole))
    return Report("monodromy", tuple(items))


def default_l_max(orders: OrderSet) -> int:
    """2 lcm(orders), the lcm of their divisor closure too, capped at
    L_MAX_CAP; 2 when there are no orders (lcm_all of nothing is 1)."""
    return min(2 * lcm_all(orders), L_MAX_CAP)


def check_holomorphy(zeta_family: Callable[[int], RatFun], orders: OrderSet,
                     l_max: int | None = None) -> Report:
    """Every 1 < l <= l_max outside the order closure must give the zero
    function; l inside the closure is unconstrained and skipped.  A given
    l_max must lie in [2, L_MAX_CAP]; the default is default_l_max's.  A
    passing item is built as the checked types' _new build theirs, by
    tuple.__new__, and equals CheckItem(l, True)."""
    if l_max is not None and not 2 <= l_max <= L_MAX_CAP:
        raise ValidationError(
            f"l_max must be between 2 and {L_MAX_CAP}, got {l_max}")
    closure = divisor_closure(orders)
    items, new = [], tuple.__new__
    for l in range(2, (l_max or default_l_max(orders)) + 1):
        if l not in closure:
            z = zeta_family(l)
            items.append(CheckItem(l, False, f"Z^({l}) = {z}") if z.num
                         else new(CheckItem, (l, True, "", None)))
    return Report("holomorphy", tuple(items))
