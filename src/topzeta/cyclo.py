"""Formal products of cyclotomic polynomials with integer exponents.

A CycloProduct stores prod_d Phi_d(tau)^{e_d} as the finite map d -> e_d.
These carry monodromy zeta functions and characteristic polynomials; the
two transforms needed for Le-Yomdin assembly are the k-th power transform
h^(k) (characteristic polynomial of the k-th power of the underlying
finite-order automorphism) and the variable substitution tau -> tau^p.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .arith import divisors, jordan_totient
from .errors import ValidationError, json_array, json_check, json_number

OrderSet = frozenset


class CycloProduct(NamedTuple):
    items: tuple[tuple[int, int], ...]  # sorted (d, e_d), e_d != 0

    @staticmethod
    def from_factors(factors: dict[int, int]) -> "CycloProduct":
        for d in factors:
            if d < 1:
                raise ValidationError(f"cyclotomic index must be >= 1, got {d}")
        return CycloProduct(tuple(sorted((d, e) for d, e in factors.items() if e)))

    @property
    def factors(self) -> dict[int, int]:
        return dict(self.items)

    @staticmethod
    def one() -> "CycloProduct":
        return CycloProduct(())

    def exponent(self, d: int) -> int:
        return self.factors.get(d, 0)

    # -- bracket form --------------------------------------------------------

    @staticmethod
    def from_brackets(brackets) -> "CycloProduct":
        """Product of (tau^m - 1)^n factors; (tau^m - 1) = prod_{d|m} Phi_d."""
        acc: dict[int, int] = {}
        for m, n in brackets:
            if m < 1:
                raise ValidationError(f"bracket exponent must be >= 1, got {m}")
            for d in divisors(m):
                acc[d] = acc.get(d, 0) + n
        return CycloProduct.from_factors(acc)

    def to_brackets(self) -> tuple[tuple[int, int], ...]:
        """The unique bracket decomposition, peeling maximal orders first."""
        remaining = self.factors
        out = []
        while remaining:
            m = max(remaining)
            n = remaining[m]
            out.append((m, n))
            for d in divisors(m):
                e = remaining.get(d, 0) - n
                if e:
                    remaining[d] = e
                else:
                    remaining.pop(d, None)
        return tuple(out)

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        acc = self.factors
        for d, e in other.items:
            acc[d] = acc.get(d, 0) + e
        return CycloProduct.from_factors(acc)

    def __truediv__(self, other: "CycloProduct") -> "CycloProduct":
        return self * CycloProduct(tuple([(d, -e) for d, e in other.items]))

    def _not_a_tuple(self, other):
        """As a tuple, c + c would concatenate and n * c repeat."""
        return NotImplemented

    __add__ = __rmul__ = _not_a_tuple

    def power_transform(self, k: int) -> "CycloProduct":
        """h^(k): brackets (tau^m - 1)^n -> (tau^(m/gcd(m,k)) - 1)^(n*gcd(m,k))."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return CycloProduct.from_brackets(
            (m // gcd(m, k), n * gcd(m, k)) for m, n in self.to_brackets())

    def variable_power(self, p: int) -> "CycloProduct":
        """h(tau^p): brackets (tau^m - 1)^n -> (tau^(p*m) - 1)^n."""
        if p < 1:
            raise ValueError("p must be >= 1")
        return CycloProduct.from_brackets(
            (p * m, n) for m, n in self.to_brackets())

    # -- inspection ------------------------------------------------------------

    def is_polynomial(self) -> bool:
        return all(e >= 0 for _, e in self.items)

    def root_orders(self) -> OrderSet:
        return frozenset(d for d, e in self.items if e > 0)

    def degree(self) -> int:
        """Total degree sum e_d * phi(d); negative exponents subtract."""
        return sum(e * jordan_totient(1, d) for d, e in self.items)

    # -- Thom-Sebastiani -------------------------------------------------------

    def thom_sebastiani_tensor(self, k: int) -> "CycloProduct":
        """Root multiset of the suspension by k points: {eta*zeta} over
        eta^k = 1, eta != 1 and zeta a root of self.

        Root multisets are bilinear under this join, the k points are
        [k] - [1] in brackets, and [a] x [b] = gcd(a, b) [lcm(a, b)]."""
        if k < 1:
            raise ValidationError("k must be >= 1")
        if not self.is_polynomial():
            raise ValueError("Thom-Sebastiani tensor needs a polynomial input")
        brackets = []
        for m, n in self.to_brackets():
            brackets += [(lcm(m, k), n * gcd(m, k)), (m, -n)]
        return CycloProduct.from_brackets(brackets)


# -- serialization -----------------------------------------------------------


def cyclo_to_json(h: CycloProduct) -> dict:
    return {"cyclotomic": {str(d): e for d, e in h.items}}


def cyclo_from_json(obj: dict) -> CycloProduct:
    if "cyclotomic" in obj:
        return CycloProduct.from_factors(
            {json_number(d, "'cyclotomic' key"):
             json_number(e, f"'cyclotomic'[{d!r}]") for d, e in
             json_check(obj["cyclotomic"], dict, "'cyclotomic'").items()})
    if "brackets" in obj:
        pairs = json_array(obj, "brackets", list)
        if any(len(pair) != 2 for pair in pairs):
            raise ValidationError("each of 'brackets' must be a pair [m, n]")
        return CycloProduct.from_brackets(
            [(json_number(m, f"'brackets'[{i}]"),
              json_number(n, f"'brackets'[{i}]"))
             for i, (m, n) in enumerate(pairs)])
    raise ValidationError("expected a 'cyclotomic' or 'brackets' key")


def cyclo_str(h: CycloProduct) -> str:
    if not h.items:
        return "1"
    parts = []
    for d, e in h.items:
        base = f"Phi_{d}"
        parts.append(base if e == 1 else f"{base}^{e}")
    return " ".join(parts)
