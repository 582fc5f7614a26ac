"""Mechanical monodromy- and holomorphy-conjecture checks.

check_monodromy: every pole -a/b of the untwisted zeta function must give
an eigenvalue exp(2 pi i a/b) of the monodromy somewhere on the zero set;
integer poles pass via the eigenvalue 1 at a smooth point, other poles by
Phi_b dividing Delta.

check_holomorphy: for every l > 1 outside the divisor closure of the
eigenvalue orders, the l-twisted zeta function must vanish identically;
its report keeps the failing twists, and builds a passing item when read.

Both read a germ (a curve, a suspension z^k + f or a Le-Yomdin surface) as
a GermSummary with a complete profile, Z^(l) = germ.zeta.entry(l), and its
characteristic polynomial Delta.  Neither reads Phi_1: an integer pole
passes via the smooth point and the twist 1 is never checked, so
(tau - 1) Delta gives the same reports as Delta.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, NamedTuple

from .arith import divisor_closure, lcm_all
from .cyclo import CycloProduct, OrderSet
from .errors import ValidationError, checked, json_field
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


class HolomorphyItems(Sequence):
    """A holomorphy report's items, per 1 < l <= l_max outside the closure:
    the failure's or CheckItem(l, True), built when read.  Equal and hashed
    over l_max, skipped (the closure in 2..l_max) and failures."""
    __slots__ = ("l_max", "skipped", "failures")

    def __init__(self, l_max: int, closure, failures: dict[int, CheckItem]):
        skipped = frozenset(d for d in closure if 2 <= d <= l_max)
        for name, value in zip(self.__slots__, (
                l_max, skipped, MappingProxyType(dict(failures)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self):
        return (self.failures.get(l) or CheckItem(l, True)
                for l in range(2, self.l_max + 1) if l not in self.skipped)

    def __len__(self) -> int:
        return self.l_max - 1 - len(self.skipped)

    def __getitem__(self, i):
        if isinstance(i, slice) or not -len(self) <= i < len(self):
            return tuple(self)[i]        # a slice, or the IndexError
        l = i % len(self) + 2            # then step over each skipped <= l
        for d in sorted(self.skipped):
            l += d <= l
        return self.failures.get(l) or CheckItem(l, True)

    def __eq__(self, other):
        return type(other) is HolomorphyItems and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self) -> int:
        return hash((self.l_max, self.skipped, *self.failures.values()))


@checked
class Report(NamedTuple):
    """passed is the check's verdict, or all(item.ok) when none is given."""
    conjecture: str
    items: Sequence[CheckItem]
    passed: bool

    def _new(cls, conjecture, items, passed=None):
        return tuple.__new__(cls, (conjecture, items, all(
            item.ok for item in items) if passed is None else passed))

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
    l_max must lie in [2, L_MAX_CAP]; the default is default_l_max's.  Only
    a failing twist is recorded; the report's items are a HolomorphyItems
    view over the range, the closure and the failures."""
    if l_max is not None and not 2 <= l_max <= L_MAX_CAP:
        raise ValidationError(
            f"l_max must be between 2 and {L_MAX_CAP}, got {l_max}")
    closure, l_max = divisor_closure(orders), l_max or default_l_max(orders)
    failures = {}
    for l in range(2, l_max + 1):
        if l not in closure and (z := zeta_family(l)).num:
            failures[l] = CheckItem(l, False, f"Z^({l}) = {z}")
    return Report("holomorphy", HolomorphyItems(l_max, closure, failures),
                  not failures)
