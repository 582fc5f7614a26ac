import random
import time
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratroots import roots_by_search
from topzeta.errors import ConsistencyError, ValidationError
from topzeta.ratfun import FactorizationError, PoleError, RatFun, \
    linear_product, pdiv_linear, pmul, render_latex, render_text

coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=4)

# integer linear forms a + b s as (a, b): negative slopes, roots at 0 and
# repeated forms all occur
linear_forms = st.tuples(st.integers(-9, 9), st.integers(-9, 9).filter(bool))


def expand(scalar, factors):
    """scalar * prod (a + b s), expanded without the package's helpers; the
    coefficients are integers for an integer scalar."""
    out = [scalar]
    for a, b in factors:
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += a * c
            nxt[i + 1] += b * c
        out = nxt
    return out


# denominators are products of linear forms: a dense 1 + s + s^2 is not a
# RatFun any more, so the strategies build them from forms
ratfuns = st.builds(
    lambda num, scalar, factors: RatFun.from_polys(num, expand(scalar, factors)),
    coeffs, st.integers(-6, 6).filter(bool), st.lists(linear_forms, max_size=3))


def test_ring_examples():
    half = RatFun.inv_linear(2, 1)
    assert half + half == RatFun.from_polys([2], [1, 2])
    f = RatFun.from_polys([11, 10], [11, 41, 30])
    assert f + RatFun.from_polys([4], [11, 30]) * 0 == f
    # (s+3)/((s+1)(4s+3)) - 1/(4s+3), against the common-denominator oracle
    # (s+3 - (s+1))/((s+1)(4s+3))
    lhs = RatFun.from_polys([3, 1], [3, 7, 4]) - RatFun.inv_linear(4, 3)
    assert lhs == RatFun.from_polys([2], [3, 7, 4])


def test_zero_and_division():
    z = RatFun.zero()
    assert z.is_zero() and z == RatFun.from_polys([0], [5])
    with pytest.raises(ZeroDivisionError):
        RatFun.one() / z
    with pytest.raises(ValidationError, match="zero denominator"):
        RatFun.inv_linear(0, 0)
    assert (RatFun.linear(1, 0) / RatFun.linear(1, 0)) == RatFun.one()
    # dividing by a polynomial factors it: (s^2 - 1)/(2s^2 - 2s) = (s+1)/(2s)
    assert RatFun.from_polys([-1, 0, 1], [1]) / RatFun.from_polys([0, -2, 2], [1]) \
        == RatFun.from_polys([1, 1], [0, 2])


def test_substitute_affine_examples():
    inv_s = RatFun.from_polys([1], [0, 1])
    assert inv_s.substitute_affine(1, F(1, 10)) == RatFun.from_polys([10], [1, 10])
    c = RatFun.const(F(7, 3))
    assert c.substitute_affine(F(5, 2), -3) == c
    with pytest.raises(ValueError):
        c.substitute_affine(0, 1)


def test_poles_examples():
    f = RatFun.from_polys([7, 3], [7, 22, 15])  # (3s+7)/((15s+7)(s+1))
    assert f.poles_with_multiplicity() == [(F(-1), 1), (F(-7, 15), 1)]
    assert f.pol_plus() == frozenset({F(1), F(7, 15)})
    assert RatFun.const(5).poles_with_multiplicity() == []
    g = RatFun.from_polys([1], [1, 5, 8, 4])  # 1/((2s+1)^2 (s+1))
    assert g.poles_with_multiplicity() == [(F(-1), 1), (F(-1, 2), 2)]


def test_poles_nonlinear_factor():
    # denominators that do not split over Q are rejected at ingest
    for den in ([1, 0, 1], [1, 1, 1], [-2, 0, 1], [-2, -2, 1, 1]):
        with pytest.raises(FactorizationError):
            RatFun.from_polys([1], den)
    with pytest.raises(FactorizationError):
        RatFun.one() / RatFun.from_polys([1, 0, 1], [1])
    with pytest.raises(FactorizationError):
        RatFun.from_json({"num": ["1"], "den": ["1", "1", "1"]})


def test_evaluate_examples():
    f = RatFun.from_polys([11, 10], [11, 41, 30])
    assert f.evaluate(0) == 1
    assert RatFun.from_polys([1], [5, 18]).evaluate(0) == F(1, 5)
    a3 = RatFun.from_polys([3, 1], [3, 7, 4])
    assert a3.evaluate(0) == 1
    with pytest.raises(PoleError):
        a3.evaluate(-1)


def test_residue_examples():
    assert RatFun.inv_linear(2, 1).residue_at(F(-1, 2)) == F(1, 2)
    assert RatFun.inv_linear(2, 1).residue_at(7) == 0
    f = RatFun.from_polys([7, 3], [7, 22, 15])
    # limit oracle: (s + 7/15) f(s) has no pole there; evaluate it
    assert f.residue_at(F(-7, 15)) == \
        (RatFun.linear(1, F(7, 15)) * f).evaluate(F(-7, 15))
    assert f.residue_at(F(-7, 15)) == F(7, 10)
    with pytest.raises(PoleError):
        RatFun.from_polys([1], [1, 4, 4]).residue_at(F(-1, 2))


@given(ratfuns)
def test_canonical_idempotence(f):
    assert RatFun.from_json(f.to_json()) == f
    dense_form = f.to_json()
    assert RatFun.from_polys([F(c) for c in dense_form["num"]],
                             [F(c) for c in dense_form["den"]]) == f


def assert_canonical(f):
    assert f.scale > 0 and gcd(f.scale, *f.num) == 1
    assert f.num[-1] if f.num else not f.forms    # trimmed; zero is bare
    assert list(f.forms) == sorted(f.forms)
    for (a, b), mult in f.forms:
        assert b > 0 and gcd(a, b) == 1 and mult >= 1
        assert sum(c * F(-a, b) ** i for i, c in enumerate(f.num)) != 0


@given(ratfuns)
def test_canonical_form_invariants(f):
    assert_canonical(f)


def _dense(f):
    obj = f.to_json()
    return tuple(int(c) for c in obj["num"]), tuple(int(c) for c in obj["den"])


@settings(max_examples=200)
@given(ratfuns, ratfuns)
def test_equality_matches_cross_multiplication(f, g):
    (fn, fd), (gn, gd) = _dense(f), _dense(g)
    assert (f == g) == (pmul(fn, gd) == pmul(gn, fd))


@given(ratfuns, st.integers(-6, 6).filter(bool), st.integers(-6, 6))
def test_substitute_affine_roundtrip(f, a, b):
    g = f.substitute_affine(a, b)
    assert g.substitute_affine(F(1, a), F(-b, a)) == f


def test_substitute_affine_refuses_zero_slope_as_bad_input():
    with pytest.raises(ValidationError) as exc:
        RatFun.inv_linear(1, 1).substitute_affine(F(0, 3), 1)
    assert type(exc.value) is ValidationError


# a and b drawn as n/d with d in 2..6 and both signs, so that the forward
# substitution runs with Q = den(a) den(b) > 1 too, not only the way back
fractions_2_6 = st.builds(F, st.integers(-30, 30).filter(bool),
                          st.integers(2, 6))


@given(ratfuns, fractions_2_6, fractions_2_6, st.integers(-5, 5))
def test_substitute_affine_roundtrip_fractions(f, a, b, x):
    g = f.substitute_affine(a, b)
    assert_canonical(g)
    assert g.substitute_affine(1 / a, -b / a) == f
    try:
        value = f.evaluate(a * x + b)
    except PoleError:
        return
    assert g.evaluate(x) == value


# the terms suspend_terms builds with a constant factor (b = 0) for the
# 1/k or 1/prod_nu0 a Fraction scalar would carry: rho's at l = 1, with
# w_1 = s/(s+1), and at l >= 2, and sigma-'s
@given(ratfuns.filter(lambda z: z.num), st.integers(-9, 9).filter(bool),
       st.integers(1, 12), linear_forms)
def test_part_constant_factors_match_fraction_scalar(z, w, k, form):
    def value(*term):
        return RatFun.sum_inv_products([term])

    assert value(-w, [(k, 0), (1, 1)], (0, 1), z) == \
        value(F(-w, k), [(1, 1)], (0, 1), z)
    assert value(-w, [(k, 0)], (1,), z) == value(F(-w, k), (), (1,), z)
    assert value(1, [form, (k, 0)]) == value(F(1, k), [form])


# the two branches of the cancellation rule: summands that hold s + 1 at
# equal power, where 1/(s (s+1)) + 1/(s+1) = 1/s cancels it, and at unequal
# power, where s/(s+1)^2 - 1/(s+1) = -1/(s+1)^2 cannot
@example(RatFun.from_polys([1], [0, 1, 1]), RatFun.inv_linear(1, 1), 2)
@example(RatFun.from_polys([0, 1], [1, 2, 1]), -RatFun.inv_linear(1, 1), 2)
@given(ratfuns, ratfuns, st.integers(-5, 5))
def test_evaluate_respects_ring_ops(f, g, x):
    poles = {p for p, _ in f.poles_with_multiplicity() + g.poles_with_multiplicity()}
    if x in poles:
        return
    assert_canonical(f + g)
    assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
    assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
    assert (f - g).evaluate(x) == f.evaluate(x) - g.evaluate(x)
    if g.evaluate(x) and roots_by_search(_dense(g)[0]) is not None:
        assert_canonical(f / g)
        assert (f / g).evaluate(x) == f.evaluate(x) / g.evaluate(x)


@given(st.integers(-20, 20), st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda ab: ab != (0, 0)),
    max_size=4))
def test_one_term_kernel_agrees_with_generic_path(scalar, factors):
    direct = RatFun.sum_inv_products([(scalar, factors)])
    slow = RatFun.const(scalar)
    for a, b in factors:
        slow = slow * RatFun.inv_linear(b, a)
    assert direct == slow


# forms shared between numerators and denominators, so that products cancel;
# no root of one has denominator 11, so POINTS are never poles
FORM_POOL = [(1, 1), (1, 2), (2, 3), (-1, 1), (0, 1), (5, 3), (3, -2), (4, 0)]
POINTS = [F(n, 11) for n in range(-10, 11) if n]


def _peval(p, x):
    value = F(0)
    for c in reversed(p):
        value = value * x + c
    return value


def _random_factor(rng):
    """A constant, a constant over linear forms, or a numerator made of
    pool forms over linear forms."""
    scalar = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    den = [rng.choice(FORM_POOL) for _ in range(rng.randint(0, 3))]
    kind = rng.randrange(3)
    if kind == 0:
        return RatFun.const(scalar)
    if kind == 1:
        return RatFun.sum_inv_products([(scalar, den)])
    num = [rng.choice(FORM_POOL) for _ in range(rng.randint(1, 3))]
    return RatFun.from_polys(expand(scalar, num), expand(1, den))


def test_products_stay_canonical():
    # a * b and one-term sum_inv_products: canonical, and equal to the
    # cross-multiplied dense form at 20 rational points
    rng = random.Random(83)
    for _ in range(600):
        f, g = _random_factor(rng), _random_factor(rng)
        product = f * g
        assert_canonical(product)
        (fn, fd), (gn, gd) = _dense(f), _dense(g)
        for x in POINTS:
            assert product.evaluate(x) == \
                _peval(pmul(fn, gn), x) / _peval(pmul(fd, gd), x), (f, g)
    for _ in range(600):
        scalar = rng.choice([rng.randint(-9, 9),
                             F(rng.randint(-9, 9), rng.randint(1, 6))])
        factors = [rng.choice(FORM_POOL) for _ in range(rng.randint(0, 4))]
        num = rng.choice([(1,), (rng.choice([-1, 1]) * rng.randint(1, 9),),
                          linear_product(rng.choice(FORM_POOL)
                                         for _ in range(rng.randint(1, 3)))])
        f = RatFun.sum_inv_products([(scalar, factors, num)])
        assert_canonical(f)
        for x in POINTS:
            assert f.evaluate(x) == scalar * _peval(num, x) / _peval(
                linear_product(factors), x), (scalar, factors, num)
    assert RatFun.sum_inv_products([(0, [(1, 2)])]) == RatFun.zero()
    assert RatFun.sum_inv_products([(1, [])]) == RatFun.const(1)


# pairs (a, b) for a + b s: shared forms, non-primitive and negative-slope
# spellings of them, and b = 0 constants
KERNEL_FACTORS = [(1, 1), (2, 2), (1, 2), (-2, -4), (2, 3), (-1, 1), (0, 1),
                  (0, -3), (3, -6), (4, 0), (-3, 0)]


def _kernel_terms(rng):
    """Random (scalar, factors) terms plus partial-fraction blocks
    D/(f1 f2) - b2/f2 + b1/f1 = 0 with D = b2 a1 - b1 a2 over a common
    cofactor, so that whole forms cancel from the sum or the sum is zero."""
    def scalar():
        return rng.choice([rng.randint(-9, 9),
                           F(rng.randint(-9, 9), rng.randint(1, 6))])

    def factors(n):
        return [rng.choice(KERNEL_FACTORS) for _ in range(n)]

    terms = [(scalar(), factors(rng.randint(0, 4)))
             for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(0, 2)):
        (a1, b1), (a2, b2) = rng.sample([f for f in KERNEL_FACTORS if f[1]], 2)
        if b2 * a1 == b1 * a2:
            continue
        c, common = scalar(), factors(rng.randint(0, 2))
        terms += [(c * (b2 * a1 - b1 * a2), [(a1, b1), (a2, b2)] + common),
                  (-c * b2, [(a2, b2)] + common), (c * b1, [(a1, b1)] + common)]
    if terms and rng.random() < 0.2:
        terms.append((-terms[0][0], terms[0][1][::-1]))
    rng.shuffle(terms)
    return terms


# canonical z for (scalar, factors, num, z) terms: poles at s = 0, which a
# numerator s cancels, and elsewhere, and none
Z_POOL = [RatFun.from_polys([1], [0, 1]), RatFun.from_polys([1, 2], [0, 1, 1]),
          RatFun.from_polys([3, 1], [0, 0, 2]), RatFun.inv_linear(2, 1),
          RatFun.linear(1, 3)]


def _numerator_terms(rng):
    """Terms with a numerator s or s + 2, some with a z from Z_POOL, and
    pairs c num z/F - c (3 num) z/(3 F) that cancel, spelled with a b = 0
    factor; scalars may be zero."""
    terms = []
    for _ in range(rng.randint(0, 3)):
        c = rng.randint(-3, 3)
        factors = [rng.choice(KERNEL_FACTORS) for _ in range(rng.randint(0, 2))]
        num = rng.choice([(0, 1), (2, 1)])
        z = rng.choice(Z_POOL)
        terms.append((c, factors, num, z) if rng.random() < 0.8
                     else (c, factors, num))
        if rng.random() < 0.5:
            terms.append((-c, factors + [(3, 0)], tuple([3 * x for x in num]),
                          *terms[-1][3:]))
    return terms


def _convolve(p, q):
    """p q for dense polynomials, without the package's helpers."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _dense_sum(terms):
    """sum scalar_i num_i z_i / prod factors_i over (scalar, factors[, num[,
    z]]) terms as one dense fraction over a common multiple of the
    denominators: the factors as spelled and the forms of z, each to its
    largest count in one term, times the scalars' common denominator."""
    dense = []
    for t in terms:
        scalar, factors, num, z = (*t, *((1,), RatFun.one())[len(t) - 2:])
        dense.append((F(scalar, z.scale), list(factors) + [
            f for f, mult in z.forms for _ in range(mult)],
            _convolve(num, z.num)))
    common = Counter()
    for _, factors, _ in dense:
        common |= Counter(factors)
    d = lcm(1, *(scalar.denominator for scalar, _, _ in dense))
    num = [0]
    for scalar, factors, top in dense:
        lifted = _convolve(expand(int(scalar * d),
                                  (common - Counter(factors)).elements()), top)
        num = [(num[i] if i < len(num) else 0)
               + (lifted[i] if i < len(lifted) else 0)
               for i in range(max(len(num), len(lifted)))]
    return num, expand(d, common.elements())


def test_sum_inv_products_matches_dense_sum():
    # the one-denominator kernel against the cross-multiplied dense sum,
    # factored by from_polys: equal and canonical, with forms that cancel
    # and sums that vanish covered, and in every other sum terms with a
    # numerator and a canonical z (zero scalars and b = 0 factors included)
    rng = random.Random(89)
    cancelled = zeros = with_z = 0
    for i in range(2000):
        terms = _kernel_terms(rng)
        if i % 2:
            terms += _numerator_terms(rng)
            rng.shuffle(terms)
            with_z += any(len(t) == 4 and t[0] for t in terms)
        total = RatFun.sum_inv_products(terms)
        assert_canonical(total)
        assert total == RatFun.from_polys(*_dense_sum(terms)), terms
        forms = {f for t in terms
                 for f, _ in RatFun.sum_inv_products([t]).forms}
        zeros += total.is_zero()
        cancelled += bool(forms - {f for f, _ in total.forms})
    assert zeros > 250 and cancelled > 800 and with_z > 500, \
        (zeros, cancelled, with_z)
    assert RatFun.sum_inv_products([]) == RatFun.zero()
    assert RatFun.sum_inv_products(iter([(0, [(1, 1)])])) == RatFun.zero()
    with pytest.raises(ZeroDivisionError):
        RatFun.sum_inv_products([(1, [(0, 0)]), (1, [])])


def _sum_terms(rng):
    """Canonical terms for RatFun.sum: the kernel's terms (blocks that
    cancel, forms repeated within a term and so shared at unequal powers),
    terms with numerators made of pool forms, and zero terms."""
    terms = [RatFun.sum_inv_products([t]) for t in _kernel_terms(rng)]
    terms += [_random_factor(rng) for _ in range(rng.randint(0, 2))]
    terms += [RatFun.zero()] * rng.randint(0, 1)
    rng.shuffle(terms)
    return terms


def test_sum_matches_left_fold():
    # RatFun.sum against the left fold of + and the pointwise sum: equal,
    # canonical and independent of the order of the terms, over sums that
    # cancel to zero, forms shared at unequal multiplicities, a single
    # term, no term and zero terms
    rng = random.Random(97)
    seen = Counter()
    start = time.perf_counter()
    for i in range(1500):
        terms = _sum_terms(rng) if i % 50 else []
        total = RatFun.sum(terms)
        assert_canonical(total)
        fold = RatFun.zero()
        for t in terms:
            fold = fold + t
        assert total == fold, terms
        assert RatFun.sum(rng.sample(terms, len(terms))) == total
        assert RatFun.sum(reversed(terms)) == total      # any iterable
        for x in POINTS[::5]:
            assert total.evaluate(x) == sum(t.evaluate(x) for t in terms)
        nonzero = [t for t in terms if not t.is_zero()]
        powers: dict = {}
        for t in nonzero:
            for form, mult in t.forms:
                powers.setdefault(form, set()).add(mult)
        seen["no term"] += not terms
        seen["single"] += len(nonzero) == 1
        seen["zero terms"] += len(nonzero) < len(terms)
        seen["cancel to zero"] += len(nonzero) > 1 and total.is_zero()
        seen["unequal powers"] += any(len(p) > 1 for p in powers.values())
    assert min(seen.values()) >= 20 and len(seen) == 5, seen
    assert time.perf_counter() - start < 10.0
    one = RatFun.inv_linear(1, 1)
    assert RatFun.sum([]) == RatFun.zero() == RatFun.sum([RatFun.zero()])
    assert RatFun.sum([one]) == one == RatFun.sum([RatFun.zero(), one])
    assert RatFun.sum([one * one, one, -(one * one)]) == one


@given(st.integers(-30, 30).filter(bool), st.lists(linear_forms, max_size=6))
def test_ingest_factorization_matches_oracle(scalar, factors):
    den = expand(scalar, factors)
    ingested = RatFun.from_polys([1], den)
    assert ingested == RatFun.sum_inv_products([(F(1, scalar), factors)])
    assert ingested.poles_with_multiplicity() == roots_by_search(den)


def test_from_polys_reads_a_linear_denominator():
    # a degree-1 denominator is one primitive form with b > 0, its content
    # and sign in the scale and numerator
    cases = {(3, -2): RatFun((-1,), 1, (((-3, 2), 1),)),
             (4, 6): RatFun((1,), 2, (((2, 3), 1),)),
             (-4, -6): RatFun((-1,), 2, (((2, 3), 1),)),
             (F(1, 2), F(1, 3)): RatFun((6,), 1, (((3, 2), 1),)),
             (0, 5): RatFun((1,), 5, (((0, 1), 1),)),
             (0, 2, 4): RatFun((1,), 2, (((0, 1), 1), ((1, 2), 1)))}
    for den, expected in cases.items():
        f = RatFun.from_polys([1], den)
        assert f == expected, den
        assert_canonical(f)
    assert RatFun.inv_linear(2, 3) == RatFun((1,), 1, (((3, 2), 1),))
    assert RatFun.linear(-2, 3) == RatFun((3, -2), 1, ())
    # a root of the numerator cancels the form
    assert RatFun.from_polys([-6, 4], [-3, 2]) == RatFun.const(2)
    assert RatFun.one() / RatFun.linear(2, 3) == RatFun.inv_linear(2, 3)
    with pytest.raises(ValidationError, match="zero denominator"):
        RatFun.from_polys([1], [0, 0])
    with pytest.raises(FactorizationError):
        RatFun.from_polys([1], [1, 0, 1])


def test_products_match_dense_oracle_in_both_orders():
    # f * g and g * f against from_polys on the cross-multiplied dense
    # form; with two constant numerators either factor may go to _part
    rng = random.Random(121)
    both_constant = 0
    for _ in range(600):
        f, g = _random_factor(rng), _random_factor(rng)
        (fn, fd), (gn, gd) = _dense(f), _dense(g)
        dense = RatFun.from_polys(pmul(fn, gn), pmul(fd, gd))
        assert f * g == dense == g * f, (f, g)
        both_constant += len(f.num) == len(g.num) == 1 and \
            len(f.forms) != len(g.forms)
    assert both_constant > 100, both_constant


def test_linear_helpers():
    assert linear_product([]) == (1,)
    assert linear_product([(1, 1), (1, 1), (-3, 2)]) == (-3, -4, 1, 2)
    assert pdiv_linear((-3, -4, 1, 2), (-3, 2)) == (1, 2, 1)
    with pytest.raises(ConsistencyError):
        pdiv_linear((1, 0, 1), (1, 1))


def test_poles_of_four_three_digit_forms():
    # the constant term and lead have 12 digits: a divisor search is slow here
    factors = [(991, 997), (977, 983), (-967, 971), (947, 953)]
    den = expand(1, factors)
    start = time.perf_counter()
    f = RatFun.from_polys([1], den)
    poles = f.poles_with_multiplicity()
    text = render_text(f)
    assert time.perf_counter() - start < 1.0
    assert poles == sorted((F(-a, b), 1) for a, b in factors)
    assert f == RatFun.sum_inv_products([(1, factors)])
    assert text == "(1)/((997*s + 991)*(983*s + 977)*(971*s - 967)*(953*s + 947))"


def test_factorization_with_twenty_digit_coefficients():
    factors = [(12345678901234567891, 98765432109876543211),
               (-31415926535897932385, 27182818284590452354),
               (-31415926535897932385, 27182818284590452354),
               (0, 11111111111111111111)]
    den = expand(7, factors)
    start = time.perf_counter()
    f = RatFun.from_polys([3, 5], den)
    assert time.perf_counter() - start < 2.0
    assert f == RatFun.sum_inv_products([(F(1, 7), factors, (3, 5))])
    assert [m for _, m in f.poles_with_multiplicity()] == [1, 1, 2]


def test_json_roundtrip():
    f = RatFun.from_polys([F(1, 2), 3], [2, 5])
    assert RatFun.from_json(f.to_json()) == f
    assert RatFun.from_json(RatFun.zero().to_json()).is_zero()
    assert f.to_json() == {"num": ["1", "6"], "den": ["4", "10"]}


def test_render():
    f = RatFun.from_polys([7, 3], [7, 22, 15])
    assert render_text(f) == "(3*s + 7)/((15*s + 7)*(s + 1))"
    assert render_text(RatFun.from_polys([-5], [14, 30])) == "(-5)/(2*(15*s + 7))"
    assert render_text(RatFun.zero()) == "0"
    assert render_text(RatFun.linear(2, -1)) == "2*s - 1"
    assert render_text(RatFun.const(F(1, 2))) == "(1)/2"
    assert render_latex(f) == r"\frac{3 s + 7}{(15 s + 7) (s + 1)}"
    sq = RatFun.from_polys([1], [1, 5, 8, 4])
    assert render_text(sq) == "(1)/((2*s + 1)^2*(s + 1))"
