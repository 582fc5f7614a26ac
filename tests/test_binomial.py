import itertools
import random
from fractions import Fraction as F
from math import gcd, prod

import pytest

from closed_forms import _enumerate_domain, n_bullet, rho_rays, \
    w_top_twisted, ztop_binomial
from topzeta.binomial import BULLETS, RHO, RHO_STAR, SIGMA_MINUS, SIGMA_PLUS, \
    BinomialGerm, MotTerm, cone_multiplicities, euler_specialize, motivic_w, \
    w_top
from topzeta.errors import ConsistencyError, ValidationError
from topzeta.ratfun import RatFun, pmul


def _grid_shapes():
    """The (N, nu) shapes of criterion 5's grid."""
    pairs = [(n_j, nu_j) for n_j in range(1, 7) for nu_j in range(1, 4)]
    shapes = []
    for q in (1, 2, 3):
        shapes.extend(itertools.combinations_with_replacement(pairs, q))
    return [(tuple(p[0] for p in s), tuple(p[1] for p in s)) for s in shapes]


def _box_walk_domains(k, N):
    """(D_sigma+, D_rho) by the box-walk oracle."""
    rays = list(rho_rays(k, N))
    return (_enumerate_domain(rays + [tuple([0] * len(N) + [1])]),
            _enumerate_domain(rays))


def test_cone_multiplicities_examples():
    unimod = cone_multiplicities(BinomialGerm(0, 2, (2,), (1,), 1))
    assert len(unimod.d_rho) == 1
    two = cone_multiplicities(BinomialGerm(0, 2, (3,), (1,), 1))
    assert len(two.d_sigma_plus) == 2
    assert len(cone_multiplicities(BinomialGerm(0, 10, (4, 6), (1, 1), 1))
               .d_sigma_plus) == 25
    # the derived fields are computed from the others, never passed in
    with pytest.raises(TypeError):
        BinomialGerm(0, 2, (2,), (1,), 1, q=5)
    for block in ("k_forms", "h_atoms"):
        with pytest.raises(TypeError):
            BinomialGerm(0, 2, (2,), (1,), 1, **{block: ((3, 4),)})


def test_derived_blocks_match_their_formulas():
    # k_forms_j = k (N_j r + nu_j) with r = ((m+k)s + nu_z)/k, and
    # h_atoms_j = k_forms_j / gcd(k, N_j), an integer pair
    rng = random.Random(21)
    for _ in range(500):
        q = rng.randint(1, 5)
        m, k, nu_z = rng.randint(0, 6), rng.randint(1, 9), rng.randint(1, 6)
        n_vec = tuple(rng.randint(1, 12) for _ in range(q))
        nu_vec = tuple(rng.randint(1, 5) for _ in range(q))
        g = BinomialGerm(m, k, n_vec, nu_vec, nu_z)
        r = [F(nu_z, k), F(m + k, k)]
        forms = [(k * (n_j * r[0] + nu_j), k * n_j * r[1])
                 for n_j, nu_j in zip(n_vec, nu_vec)]
        k_j = [gcd(k, n_j) for n_j in n_vec]
        assert g.k_forms == tuple(forms), g
        assert g.h_atoms == tuple((a / d, b / d)
                                  for (a, b), d in zip(forms, k_j)), g
        assert all(isinstance(x, int) for pair in g.k_forms + g.h_atoms
                   for x in pair), g
        assert (g.q, g.n_q, g.k_j) == (q, gcd(*n_vec), tuple(k_j))
        assert g.e_q == gcd(k, *n_vec)


def test_sigma_minus_matches_dense_closed_form():
    # (1/(k r)) (1/prod nu - k^q/prod F) with F_j = k (N_j r + nu_j) and
    # r = ((m+k)s + nu_z)/k, over one dense denominator prod nu (k r)
    # prod F, factored by from_polys
    rng = random.Random(5)
    shapes = _grid_shapes()
    for _ in range(300):
        n_vec, nu_vec = rng.choice(shapes)
        m, k, nu_z = rng.randint(0, 4), rng.randint(1, 6), rng.randint(1, 4)
        g = BinomialGerm(m, k, n_vec, nu_vec, nu_z)
        r = [F(nu_z, k), F(m + k, k)]
        k_r = [k * r[0], k * r[1]]
        prod_f = [F(1)]
        for n_j, nu_j in zip(n_vec, nu_vec):
            prod_f = pmul(prod_f, [k * (n_j * r[0] + nu_j), k * n_j * r[1]])
        prod_nu = prod(nu_vec)
        num = list(prod_f)
        num[0] -= k ** len(n_vec) * prod_nu
        den = pmul(pmul([prod_nu], k_r), prod_f)
        assert w_top(g, SIGMA_MINUS) == RatFun.from_polys(num, den), g


def test_domains_match_box_walk_on_grid():
    keys = sorted({(k, n_vec) for n_vec, _ in _grid_shapes()
                   for k in range(1, 7)})
    assert len(keys) == 498
    for k, n_vec in keys:
        cones = cone_multiplicities(BinomialGerm(0, k, n_vec, n_vec, 1))
        assert (cones.d_sigma_plus, cones.d_rho) == \
            _box_walk_domains(k, n_vec), (k, n_vec)


def test_domains_match_box_walk_random():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.randint(1, 4)
        k = rng.randint(1, 8)
        n_vec = tuple(rng.randint(1, 9) for _ in range(q))
        cones = cone_multiplicities(BinomialGerm(0, k, n_vec, n_vec, 1))
        assert (cones.d_sigma_plus, cones.d_rho) == \
            _box_walk_domains(k, n_vec), (k, n_vec)


def test_cone_enumeration_bound():
    with pytest.raises(ValueError):
        cone_multiplicities(BinomialGerm(0, 2, (1,) * 7, (1,) * 7, 1))


def test_bad_arguments_raise_validation_error():
    # every bad argument is the package's bad-input error, not a bare
    # ValueError: the germ's fields, the enumeration bound, an unknown
    # bullet, a unit vanishing at L = 1 and a (0, 0) atom
    g = BinomialGerm(0, 2, (1,), (1,), 1)
    cases = [lambda: BinomialGerm(0, 0, (1,), (1,), 1),
             lambda: BinomialGerm(0, 1, (1, 2), (1,), 1),
             lambda: BinomialGerm(0, 1, (0,), (1,), 1),
             lambda: cone_multiplicities(
                 BinomialGerm(0, 2, (1,) * 7, (1,) * 7, 1)),
             lambda: w_top(g, "tau"), lambda: motivic_w(g, "tau"),
             lambda: MotTerm(0, (1, -1), ((1, 1),)),
             lambda: MotTerm(0, (1,), ((0, 0),))]
    for case in cases:
        with pytest.raises(ValidationError) as info:
            case()
        assert type(info.value) is ValidationError


def _brute_n_bullet(g: BinomialGerm, bullet: str, box: int = 12) -> int:
    """gcd of ord(g ° phi) over interior lattice points with coords <= box."""
    q = g.q
    acc = 0
    for point in itertools.product(range(1, box + 1), repeat=q + 1):
        bq, bz = point[:q], point[q]
        pairing = sum(x * n for x, n in zip(bq, g.N)) + bz * g.m
        zpart = (g.m + g.k) * bz
        if bullet == SIGMA_PLUS and not pairing < zpart:
            continue
        if bullet == SIGMA_MINUS and not pairing > zpart:
            continue
        if bullet == RHO and pairing != zpart:
            continue
        acc = gcd(acc, min(pairing, zpart))
    return acc


def test_n_bullet_examples():
    g = BinomialGerm(3, 2, (6,), (1,), 1)
    assert n_bullet(g, SIGMA_PLUS) == 3
    assert n_bullet(g, SIGMA_MINUS) == 5
    assert n_bullet(g, RHO) == 15
    assert n_bullet(BinomialGerm(0, 4, (6,), (1,), 1), SIGMA_MINUS) == 4
    # n_q | k forces N(rho) = m + k
    g2 = BinomialGerm(2, 6, (3,), (2,), 1)
    assert n_bullet(g2, RHO) == (2 + 6) * 3 // 3


def test_n_bullet_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        q = rng.randint(1, 2)
        g = BinomialGerm(rng.randint(0, 3), rng.randint(1, 4),
                         tuple(rng.randint(1, 4) for _ in range(q)),
                         tuple(rng.randint(1, 3) for _ in range(q)),
                         rng.randint(1, 3))
        for bullet in (SIGMA_PLUS, SIGMA_MINUS, RHO):
            assert n_bullet(g, bullet) == _brute_n_bullet(g, bullet), (g, bullet)


def test_w_top_rho_star_relation():
    inv_s1 = RatFun.inv_linear(1, 1)
    for m in range(0, 4):
        for k in (1, 2, 3, 6):
            g = BinomialGerm(m, k, (2, 3), (1, 2), 2)
            assert w_top(g, RHO_STAR) == -inv_s1 * w_top(g, RHO)


def test_w_top_smooth_germ_oracle():
    # z + x with the standard form: the suspension of a smooth germ is smooth
    g = BinomialGerm(0, 1, (1,), (1,), 1)
    assert ztop_binomial(g, 1) == RatFun.from_polys([1], [1, 1])


def test_w_top_rho_with_trivial_gcd():
    g = BinomialGerm(1, 4, (3,), (2,), 1)
    assert g.e_q == 1
    # -1/k prod 1/(N_j r + nu_j) with k(N r + nu) = N(m+k)s + N nu_z + k nu
    assert w_top(g, RHO) == RatFun.from_polys([-1], [11, 15])


def test_w_top_twisted_gates():
    g = BinomialGerm(3, 2, (6,), (1,), 1)
    assert w_top_twisted(g, RHO_STAR, 5).is_zero()
    assert w_top_twisted(g, SIGMA_MINUS, 5) == w_top(g, SIGMA_MINUS)
    assert w_top_twisted(g, SIGMA_PLUS, 2).is_zero()
    assert w_top_twisted(g, SIGMA_PLUS, 3) == w_top(g, SIGMA_PLUS)
    with pytest.raises(ValueError):
        w_top_twisted(g, RHO, 1)


def test_motivic_structure():
    g = BinomialGerm(2, 4, (2, 6), (1, 2), 3)
    (term,) = motivic_w(g, RHO_STAR)
    assert (1, 1) in term.atoms and term.monomials == ((1, 1),)
    # e_q (L-1)^{q+1}: the unit vanishes at L = 1
    assert term.order == g.q + 1 and term.cofactor == (g.e_q,)
    assert motivic_w(g, SIGMA_MINUS)[0].p_exponents == ((0, 0),)
    assert len(motivic_w(g, SIGMA_MINUS)) == 3
    trivial = BinomialGerm(1, 1, (1,), (1,), 1)
    for bullet in BULLETS:
        for term in motivic_w(trivial, bullet):
            assert len(term.domain) == 1


def _eager_pairing(points, nu_vec, weight_vec):
    """The pairing exponents computed up front, point by point."""
    out = []
    for beta in points:
        a = 0
        b = 0
        for i, x in enumerate(beta):
            if x:
                a += x * nu_vec[i]
                b += x * weight_vec[i]
        out.append((a, b))
    out.sort()
    return tuple(out)


def test_p_exponents_match_eager_pairing():
    rng = random.Random(11)
    shapes = _grid_shapes()
    for _ in range(300):
        n_vec, nu_vec = rng.choice(shapes)
        g = BinomialGerm(rng.randint(0, 4), rng.randint(1, 6), n_vec, nu_vec,
                         rng.randint(1, 4))
        d_sigma, d_rho = _box_walk_domains(g.k, g.N)
        nu_full = (*g.nu, g.nu_z)
        n_full = (*g.N, g.m)
        mk_ez = (0,) * g.q + (g.m + g.k,)
        expected = {
            SIGMA_PLUS: [_eager_pairing(d_sigma, nu_full, n_full)],
            SIGMA_MINUS: [((0, 0),), _eager_pairing(d_sigma, nu_full, mk_ez),
                          _eager_pairing(d_rho, nu_full, mk_ez)],
            RHO: [_eager_pairing(d_rho, nu_full, n_full)],
            RHO_STAR: [_eager_pairing(d_rho, nu_full, n_full)],
        }
        for bullet in BULLETS:
            terms = motivic_w(g, bullet)
            assert [t.p_exponents for t in terms] == expected[bullet], \
                (g, bullet)
            assert [len(t.domain) for t in terms] == \
                [len(e) for e in expected[bullet]]


def test_euler_examples():
    # chi(K) = 1/(nu_z + m s)
    k_factor = (MotTerm(order=1, cofactor=(1,), atoms=((3, 2),)),)
    assert k_factor[0].p_exponents == ((0, 0),)
    assert euler_specialize(k_factor) == RatFun.inv_linear(2, 3)
    # chi of an H-type factor equals k_j/(k (N_j r + nu_j))
    g = BinomialGerm(1, 4, (6,), (1,), 2)
    k_j = gcd(4, 6)
    atom = ((4 * 1 + 2 * 6) // k_j, (1 + 4) * 6 // k_j)
    h_factor = (MotTerm(order=1, cofactor=(1,), atoms=(atom,)),)
    # k (N r + nu) = 30 s + 16 here, so k_j/(k(Nr+nu)) = 2/(30s+16)
    assert euler_specialize(h_factor) == RatFun.from_polys([2], [16, 30])
    assert euler_specialize(()).is_zero()


def test_euler_unpaired_units_vanish():
    dead = (MotTerm(order=2, cofactor=(1,),
                    atoms=((1, 1),)),)  # (L-1)^2 but one atom
    assert euler_specialize(dead).is_zero()


def test_euler_underpaired_unit_raises():
    bad = (MotTerm(order=0, cofactor=(1,), atoms=((1, 1),)),)
    with pytest.raises(ConsistencyError):
        euler_specialize(bad)


def test_atom_validation():
    with pytest.raises(ValueError):
        MotTerm(order=0, cofactor=(1,), atoms=((0, 0),), domain=())


@pytest.mark.parametrize("cofactor", [(), (0,), (1, -1), (-3, 1, 2)])
def test_cofactor_vanishing_at_one_rejected(cofactor):
    # the order of L - 1 would not be the unit's order of vanishing
    with pytest.raises(ValueError):
        MotTerm(order=1, cofactor=cofactor, atoms=((1, 1),))


def test_oracle_equivalence_sample():
    rng = random.Random(99)
    for _ in range(150):
        q = rng.randint(1, 3)
        g = BinomialGerm(rng.randint(0, 4), rng.randint(1, 6),
                         tuple(rng.randint(1, 6) for _ in range(q)),
                         tuple(rng.randint(1, 3) for _ in range(q)),
                         rng.randint(1, 4))
        for bullet in BULLETS:
            assert euler_specialize(motivic_w(g, bullet)) == w_top(g, bullet)


def test_normalization_at_zero():
    rng = random.Random(5)
    for _ in range(60):
        q = rng.randint(1, 3)
        g = BinomialGerm(rng.randint(0, 4), rng.randint(1, 6),
                         tuple(rng.randint(1, 6) for _ in range(q)),
                         tuple(rng.randint(1, 3) for _ in range(q)),
                         rng.randint(1, 4))
        assert ztop_binomial(g, 1).evaluate(0) == F(1, g.nu_z * prod(g.nu))


# ---------------------------------------------------------------------------
# truncated generating-function series check


def _series_mul(a, b, tmax):
    out = {}
    for (ta, la), ca in a.items():
        for (tb, lb), cb in b.items():
            if ta + tb > tmax:
                continue
            key = (ta + tb, la + lb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _geom_series(t_deg, l_deg, tmax):
    if t_deg == 0:
        raise ValueError("needs positive T-degree to truncate")
    out = {}
    i = 0
    while i * t_deg <= tmax:
        out[(i * t_deg, i * l_deg)] = 1
        i += 1
    return out


def _phi_series(points, rays, nu_full, n_full, tmax):
    """P_C * prod geometric(rays) under t = L^-nu T^N, as {(Tdeg, Ldeg): c}."""
    acc = {}
    for beta in points:
        t = sum(x * w for x, w in zip(beta, n_full))
        lg = -sum(x * w for x, w in zip(beta, nu_full))
        if t <= tmax:
            acc[(t, lg)] = acc.get((t, lg), 0) + 1
    for ray in rays:
        t = sum(x * w for x, w in zip(ray, n_full))
        lg = -sum(x * w for x, w in zip(ray, nu_full))
        acc = _series_mul(acc, _geom_series(t, lg, tmax), tmax)
    return acc


def _brute_lattice_series(g, bullet, tmax):
    """sum over interior lattice points of L^-<b,nu> T^<b,N>, truncated."""
    out = {}
    max_bq = [tmax // n_j + 1 for n_j in g.N]
    if bullet == SIGMA_PLUS:
        max_bz = tmax // max(g.m, 1) + tmax + 2
        ranges = [range(1, m + 1) for m in max_bq]
        for bq in itertools.product(*ranges):
            pairing = sum(x * n for x, n in zip(bq, g.N))
            for bz in range(1, max_bz + 2):
                if pairing + g.m * bz >= (g.m + g.k) * bz:
                    continue
                t = pairing + g.m * bz
                if t > tmax:
                    break
                lg = -(sum(x * w for x, w in zip(bq, g.nu)) + g.nu_z * bz)
                out[(t, lg)] = out.get((t, lg), 0) + 1
    else:  # rho
        ranges = [range(1, m + 1) for m in max_bq]
        for bq in itertools.product(*ranges):
            pairing = sum(x * n for x, n in zip(bq, g.N))
            if pairing % g.k:
                continue
            bz = pairing // g.k
            t = pairing + g.m * bz
            if t > tmax or bz < 1:
                continue
            lg = -(sum(x * w for x, w in zip(bq, g.nu)) + g.nu_z * bz)
            out[(t, lg)] = out.get((t, lg), 0) + 1
    return out


@pytest.mark.parametrize("germ", [
    BinomialGerm(1, 2, (2,), (1,), 1),
    BinomialGerm(2, 3, (1, 2), (2, 1), 2),
    BinomialGerm(1, 4, (2, 2), (1, 1), 1),
    BinomialGerm(3, 2, (3,), (2,), 3),
])
def test_truncated_series_sigma_plus(germ):
    tmax = 8
    cones = cone_multiplicities(germ)
    rays = list(rho_rays(germ.k, germ.N)) + [tuple([0] * germ.q + [1])]
    nu_full = (*germ.nu, germ.nu_z)
    n_full = (*germ.N, germ.m)
    assert _phi_series(cones.d_sigma_plus, rays, nu_full, n_full, tmax) == \
        _brute_lattice_series(germ, SIGMA_PLUS, tmax)


@pytest.mark.parametrize("germ", [
    BinomialGerm(0, 2, (2,), (1,), 1),
    BinomialGerm(1, 2, (2, 4), (1, 2), 2),
    BinomialGerm(0, 6, (4, 2), (1, 1), 1),
    BinomialGerm(2, 4, (6,), (3,), 1),
])
def test_truncated_series_rho(germ):
    tmax = 8
    cones = cone_multiplicities(germ)
    rays = list(rho_rays(germ.k, germ.N))
    nu_full = (*germ.nu, germ.nu_z)
    n_full = (*germ.N, germ.m)
    assert _phi_series(cones.d_rho, rays, nu_full, n_full, tmax) == \
        _brute_lattice_series(germ, RHO, tmax)
