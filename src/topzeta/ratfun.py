"""Exact univariate rational functions over Q in the variable s.

Every denominator in this package is a product of integer linear forms:
zeta functions are sums of chi/prod(N_i s + nu_i), and the suspension and
Le-Yomdin formulas only shift them affinely and multiply by more such
terms.  A RatFun is stored as num(s) / (scale * prod (a + b s)^mult): num an
integer polynomial (ascending, () for zero), scale a positive integer
coprime to its content, forms ((a, b), mult) sorted, coprime with b > 0 and
no root -a/b a root of num.  The form is canonical, so equality is exact.
Ring operations merge the forms and cancel by integer synthetic division;
poles and rendering read them.  Dense input (JSON, from_polys, division by
a polynomial) is factored once, in polynomial time, or rejected.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Union

from .errors import ConsistencyError, ValidationError, json_field, \
    json_number

Scalar = Union[int, Fraction]

# ---------------------------------------------------------------------------
# dense polynomial helpers
#
# Tuples are built from lists, never from generators: tuple(generator) grows
# by resizing, which strands tuples on CPython's per-size free lists and lets
# a long run's memory creep up.


def _trim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def linear_product(factors: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """prod (a + b s) over integer pairs (a, b), as a dense polynomial."""
    out = [1]
    for a, b in factors:
        nxt = [c * a for c in out] + [0]
        for i, c in enumerate(out):
            nxt[i + 1] += c * b
        out = nxt
    return _trim(out)


def _div_form(p, form: tuple[int, int]):
    """p / (a + b s) by integer synthetic division for a primitive form, or
    None when the form does not divide p (by Gauss's lemma the quotient of
    an integer polynomial by a primitive divisor is integral)."""
    a, b = form
    n = len(p) - 1
    if n < 1:
        return None
    q = [0] * n
    acc = p[n]
    for i in range(n - 1, -1, -1):
        c, rem = divmod(acc, b)
        if rem:
            return None
        q[i] = c
        acc = p[i] - a * c
    return None if acc else tuple(q)


def pdiv_linear(p, form: tuple[int, int]) -> tuple[int, ...]:
    """Exact quotient of the integer polynomial p by a + b s; raises
    ConsistencyError when the division is not exact in integers."""
    q = _div_form(p, form)
    if q is None:
        raise ConsistencyError(f"{_poly_str(form)} does not divide {_poly_str(p)}")
    return q


def _form(a: int, b: int) -> tuple[int, tuple[int, int]]:
    """a + b s = unit * (a' + b' s) with a', b' coprime and b' > 0; b != 0."""
    g = gcd(a, b)
    if b < 0:
        g = -g
    return g, (a // g, b // g)


def _normalize(factors) -> tuple[int, dict[tuple[int, int], int]]:
    """(unit, forms) with prod (a_i + b_i s) = unit * prod form^mult: each
    factor with b != 0 becomes a primitive form (_form, inlined), and a
    constant factor goes into the unit."""
    unit = 1
    forms: dict[tuple[int, int], int] = {}
    for a, b in factors:
        if not b:
            if not a:
                raise ZeroDivisionError("zero linear factor")
            unit *= a
            continue
        g = gcd(a, b) if b > 0 else -gcd(a, b)
        unit *= g
        form = (a // g, b // g)
        forms[form] = forms.get(form, 0) + 1
    return unit, forms


def _integer_poly(coeffs: Iterable[Scalar]) -> tuple[tuple[int, ...], int]:
    """(p, d) with coeffs = p / d, p an integer polynomial."""
    cs = [Fraction(c) for c in coeffs]
    d = lcm(1, *(c.denominator for c in cs))
    return _trim([int(c * d) for c in cs]), d


# ---------------------------------------------------------------------------
# factorization of dense input


def _roots_above(q, c: int) -> int:
    """Sign changes of q(x + c), by repeated synthetic division: the number
    of roots of q above c when every root is real (Descartes' rule)."""
    shifted = list(q)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            shifted[j] += c * shifted[j + 1]
    changes = 0
    last = 0
    for x in shifted:
        if x:
            if last and (x > 0) != (last > 0):
                changes += 1
            last = x
    return changes


def _integer_roots(q) -> list[int]:
    """Candidate integer roots of a monic integer polynomial, complete when
    all its roots are real integers: bisection on Descartes counts.  The
    roots then satisfy sum y^2 = q_{n-1}^2 - 2 q_{n-2}, which bounds them."""
    n = len(q) - 1
    power_sum = q[n - 1] ** 2 - 2 * (q[n - 2] if n > 1 else 0)
    bound = isqrt(max(power_sum, 0)) + 1
    roots = []
    todo = [(-bound - 1, n, bound, 0)]   # (lo, roots above lo, hi, roots above hi)
    while todo:
        lo, above_lo, hi, above_hi = todo.pop()
        if above_lo <= above_hi:
            continue
        if hi - lo == 1:
            roots.append(hi)
            continue
        mid = (lo + hi) // 2
        above_mid = _roots_above(q, mid)
        todo += [(lo, above_lo, mid, above_mid), (mid, above_mid, hi, above_hi)]
    return roots


def _factor(p: tuple[int, ...]) -> tuple[int, dict[tuple[int, int], int]]:
    """p = unit * prod form^mult over primitive forms, for a nonzero integer
    polynomial p that splits into linear factors over Q.

    The rational roots -a/b of p are the integer roots y = -a lead/b of the
    monic q(y) = lead^(n-1) p(y/lead); each candidate is checked by exact
    division, and anything left over raises FactorizationError."""
    unit = gcd(*p) if p[-1] > 0 else -gcd(*p)
    p = tuple([c // unit for c in p])
    forms: dict[tuple[int, int], int] = {}
    zeros = next(i for i, c in enumerate(p) if c)
    if zeros:
        forms[(0, 1)] = zeros
        p = p[zeros:]
    if len(p) > 1:
        n, lead = len(p) - 1, p[-1]
        q = [c * lead ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]
        for y in _integer_roots(q):
            _, form = _form(-y, lead)
            while (quot := _div_form(p, form)) is not None:
                p = quot
                forms[form] = forms.get(form, 0) + 1
    if len(p) > 1:
        raise FactorizationError(
            "denominator does not split into linear factors over Q: "
            + _poly_str(p))
    return unit, forms


# ---------------------------------------------------------------------------


class PoleError(ArithmeticError):
    """Evaluation or residue requested at an unsuitable pole."""


class FactorizationError(ValidationError):
    """Denominator has an irreducible non-linear factor over Q."""


class RatFun(NamedTuple):
    num: tuple[int, ...]
    scale: int
    forms: tuple[tuple[tuple[int, int], int], ...]   # ((a, b), mult)

    # -- construction ------------------------------------------------------

    @staticmethod
    def _canonical(num, scale: int, forms: dict, cancel=None) -> "RatFun":
        """num / (scale * prod form^mult) in canonical form.  num is a
        trimmed integer polynomial, scale a nonzero integer and the forms
        primitive with b > 0; only the forms in cancel (default: all of
        them) may share a root with num, and a constant num shares none."""
        if not num:
            return _ZERO
        if len(num) == 1:
            # a constant cancels no form: only the content remains
            g = gcd(scale, num[0]) if scale > 0 else -gcd(scale, num[0])
            return RatFun((num[0] // g,), scale // g,
                          tuple(sorted(forms.items())))
        for form in list(forms) if cancel is None else cancel:
            mult = forms[form]
            while mult and (quot := _div_form(num, form)) is not None:
                num, mult = quot, mult - 1
            if mult:
                forms[form] = mult
            else:
                del forms[form]
        g = gcd(scale, *num)
        if scale < 0:
            g = -g
        if g != 1:
            num = tuple([c // g for c in num])
            scale //= g
        return RatFun(num, scale, tuple(sorted(forms.items())))

    @staticmethod
    def from_polys(num: Iterable[Scalar], den: Iterable[Scalar]) -> "RatFun":
        n, n_scale = _integer_poly(num)
        d, d_scale = _integer_poly(den)
        if not d:
            raise ValidationError("zero denominator")
        if not n:
            return _ZERO
        unit, forms = _factor(d)
        return RatFun._canonical(tuple([c * d_scale for c in n]),
                                 unit * n_scale, forms)

    @staticmethod
    def scaled_inv_product(scalar: Scalar, factors, num=(1,)) -> "RatFun":
        """scalar * num(s) / prod (a_i + b_i s) for integer pairs (a_i, b_i)
        and an integer polynomial num."""
        if not isinstance(scalar, int):
            scalar = Fraction(scalar)
        if num and not num[-1]:
            num = _trim(list(num))
        if not scalar or not num:
            return _ZERO
        unit, forms = _normalize(factors)
        top = scalar.numerator
        # a constant skips the comprehension: this is the hot case
        num = (top * num[0],) if len(num) == 1 else tuple([top * c for c in num])
        return RatFun._canonical(num, unit * scalar.denominator, forms)

    @staticmethod
    def _sum(parts) -> "RatFun":
        """sum of num_i / (den_i * prod forms_i) over (num, den, forms) parts:
        num_i a nonzero integer polynomial with no root of its own forms,
        den_i a nonzero integer and forms_i a dict of primitive forms, added
        over one common denominator and canonicalized once.  A form can only
        cancel where two or more parts hold it to the top power: over the
        common denominator each part's numerator is num_i times the forms it
        lacks, so at the form's root every part below the top vanishes and a
        sole part at the top does not."""
        # a zero twist sums no part, many others one: no common denominator
        if len(parts) < 2:
            return RatFun._canonical(*parts[0], ()) if parts else _ZERO
        top: dict[tuple[int, int], int] = {}
        holders: dict[tuple[int, int], int] = {}
        scale = width = 1
        for num, den, forms in parts:
            scale = lcm(scale, den)
            if len(num) > width:
                width = len(num)
            for form, mult in forms.items():
                if mult > top.get(form, 0):
                    top[form], holders[form] = mult, 1
                elif mult == top[form]:
                    holders[form] += 1
        acc = [0] * (sum(top.values()) + width)
        for num, den, forms in parts:
            k = scale // den
            extra = linear_product(form for form, mult in top.items()
                                   for _ in range(mult - forms.get(form, 0)))
            # a constant numerator is one pass over extra: the hot case
            for j, cn in enumerate(num):
                kc = k * cn
                for i, c in enumerate(extra, j):
                    acc[i] += kc * c
        return RatFun._canonical(
            _trim(acc), scale, top, [f for f, n in holders.items() if n > 1])

    @staticmethod
    def sum_inv_products(terms) -> "RatFun":
        """sum of scalar_i / prod_j (a_ij + b_ij s) over (scalar_i, factors_i)
        pairs, added by _sum."""
        parts = []
        for scalar, factors in terms:
            if scalar:
                if not isinstance(scalar, int):
                    scalar = Fraction(scalar)
                unit, forms = _normalize(factors)
                parts.append(((scalar.numerator,), unit * scalar.denominator,
                              forms))
        return RatFun._sum(parts)

    @staticmethod
    def const(c: Scalar) -> "RatFun":
        c = Fraction(c)
        if not c:
            return _ZERO
        return RatFun((c.numerator,), c.denominator, ())

    @staticmethod
    def zero() -> "RatFun":
        return _ZERO

    @staticmethod
    def one() -> "RatFun":
        return RatFun((1,), 1, ())

    @staticmethod
    def linear(a: Scalar, b: Scalar) -> "RatFun":
        """The polynomial a*s + b."""
        num, scale = _integer_poly([b, a])
        return RatFun._canonical(num, scale, {})

    @staticmethod
    def inv_linear(a: Scalar, b: Scalar) -> "RatFun":
        """1/(a*s + b)."""
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)
        return RatFun.scaled_inv_product(d, [(int(b * d), int(a * d))])

    def is_zero(self) -> bool:
        return not self.num

    # -- ring operations ----------------------------------------------------

    # the canonical form makes tuple equality exact; held in the class body
    # so that perfbench's tracer, which wraps vars(RatFun), sees it
    __eq__ = tuple.__eq__

    @staticmethod
    def _coerce(x) -> "RatFun":
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun.const(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = RatFun._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        return RatFun._sum([(self.num, self.scale, dict(self.forms)),
                            (o.num, o.scale, dict(o.forms))])

    __radd__ = __add__

    def __neg__(self):
        return RatFun(tuple([-c for c in self.num]), self.scale, self.forms)

    def __sub__(self, other):
        o = RatFun._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return RatFun._coerce(other) - self

    def __mul__(self, other):
        o = RatFun._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.num or not o.num:
            return _ZERO
        forms = dict(self.forms)
        for f, m in o.forms:
            forms[f] = forms.get(f, 0) + m
        # a form of one factor can only cancel against the other numerator,
        # and a constant numerator cancels nothing
        cancel = {f for f, _ in self.forms} if len(o.num) > 1 else set()
        if len(self.num) > 1:
            cancel ^= {f for f, _ in o.forms}
        return RatFun._canonical(pmul(self.num, o.num), self.scale * o.scale,
                                 forms, cancel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFun._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        unit, forms = _factor(o.num)
        for f, m in self.forms:
            forms[f] = forms.get(f, 0) + m
        num = pmul(self.num, linear_product(
            f for f, m in o.forms for _ in range(m)))
        return RatFun._canonical(tuple([o.scale * c for c in num]),
                                 self.scale * unit, forms, list(forms))

    def __rtruediv__(self, other):
        return RatFun._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RatFun.one()
        for _ in range(n):
            out = out * self
        return out

    # -- analysis -----------------------------------------------------------

    def substitute_affine(self, a: Scalar, b: Scalar) -> "RatFun":
        """f(a*s + b); a must be nonzero.  Writing a*s + b = L(s)/Q with L an
        integer linear polynomial and Q an integer, a form c0 + c1 t becomes
        (c0 Q + c1 L)/Q and the numerator Q^-deg times an integer polynomial."""
        a, b = Fraction(a), Fraction(b)
        if not a:
            raise ValueError("affine substitution needs a != 0")
        if not self.num:
            return self
        big_q = a.denominator * b.denominator
        lin = (b.numerator * a.denominator, a.numerator * b.denominator)
        num: tuple = ()
        power = 1
        for c in reversed(self.num):
            num = padd(pmul(num, lin), (c * power,))
            power *= big_q
        scale = self.scale
        forms = {}
        den_degree = 0
        for (c0, c1), mult in self.forms:
            unit, form = _form(c0 * big_q + c1 * lin[0], c1 * lin[1])
            scale *= unit ** mult
            forms[form] = mult
            den_degree += mult
        # the powers of Q left over from numerator and forms
        excess = den_degree - (len(self.num) - 1)
        if excess > 0:
            num = tuple([c * big_q ** excess for c in num])
        else:
            scale *= big_q ** -excess
        return RatFun._canonical(num, scale, forms, ())

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        den = Fraction(self.scale)
        for (a, b), mult in self.forms:
            if not a + b * x:
                raise PoleError(f"evaluation at the pole s = {x}")
            den *= (a + b * x) ** mult
        value = Fraction(0)
        for c in reversed(self.num):
            value = value * x + c
        return value / den

    def poles_with_multiplicity(self) -> list[tuple[Fraction, int]]:
        """Sorted (pole, multiplicity) pairs."""
        return sorted((Fraction(-a, b), mult) for (a, b), mult in self.forms)

    def pol_plus(self) -> frozenset[Fraction]:
        """Absolute values of the poles."""
        return frozenset(abs(Fraction(a, b)) for (a, b), _ in self.forms)

    def residue_at(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        forms = dict(self.forms)
        mult = forms.pop((-x.numerator, x.denominator), 0)
        if not mult:
            return Fraction(0)
        if mult > 1:
            raise PoleError(f"pole of order >= 2 at s = {x}")
        # a + b s = b (s - x): the rest of the denominator carries b
        rest = RatFun(self.num, self.scale * x.denominator, tuple(forms.items()))
        return rest.evaluate(x)

    # -- rendering / serialization ------------------------------------------

    def __str__(self) -> str:
        return render_text(self)

    def to_json(self) -> dict:
        den = linear_product(f for f, m in self.forms for _ in range(m))
        return {"num": [str(c) for c in self.num],
                "den": [str(self.scale * c) for c in den]}

    @staticmethod
    def from_json(obj: dict) -> "RatFun":
        num, den = [[json_number(c, f"{key!r}[{i}]", Fraction) for i, c in
                     enumerate(json_field(obj, key, list))]
                    for key in ("num", "den")]
        return RatFun.from_polys(num, den)


_ZERO = RatFun((), 1, ())


# ---------------------------------------------------------------------------
# canonical text / latex rendering


def _monomial_str(c, deg: int, star: str = "*") -> str:
    if deg == 0:
        return str(c)
    var = "s" if deg == 1 else f"s^{deg}"
    if c == 1:
        return var
    if c == -1:
        return f"-{var}"
    return f"{c}{star}{var}"


def _poly_str(p, star: str = "*") -> str:
    if not p:
        return "0"
    parts = []
    for deg in range(len(p) - 1, -1, -1):
        c = p[deg]
        if not c:
            continue
        term = _monomial_str(c, deg, star)
        if parts:
            parts.append(f"- {term[1:]}" if term.startswith("-") else f"+ {term}")
        else:
            parts.append(term)
    return " ".join(parts)


def _den_factored(f: RatFun, star: str, pow_fmt) -> tuple[str, int]:
    """Denominator as scale and linear forms, largest slope first, then by
    increasing root; returns the string and the number of displayed parts."""
    parts = [] if f.scale == 1 else [str(f.scale)]
    for (a, b), mult in sorted(f.forms, key=lambda fm: (-fm[0][1], -fm[0][0])):
        base = f"({_poly_str((a, b), star)})"
        parts.append(base if mult == 1 else pow_fmt(base, mult))
    return star.join(parts), len(parts)


def render_text(f: RatFun) -> str:
    if f.is_zero():
        return "0"
    num = _poly_str(f.num)
    if f.scale == 1 and not f.forms:
        return num
    den, nparts = _den_factored(f, "*", lambda b, m: f"{b}^{m}")
    if nparts > 1:
        den = f"({den})"
    return f"({num})/{den}"


def render_latex(f: RatFun) -> str:
    if f.is_zero():
        return "0"
    num = _poly_str(f.num, star=" ")
    if f.scale == 1 and not f.forms:
        return num
    den, _ = _den_factored(f, " ", lambda b, m: f"{b}^{{{m}}}")
    return rf"\frac{{{num}}}{{{den}}}"
