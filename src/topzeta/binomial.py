"""Zeta-function building blocks for germs z^m (z^k + x^N) with a monomial
form x^nu z^nu_z dx/x dz/z.

The Newton polyhedron of such a germ induces a subdivision of the positive
orthant into the cones sigma+, sigma-, rho (with rho* the extra arc regime
over rho), and the local zeta function splits into four corresponding
terms, from forms and atoms derived once per germ.  This module computes:

  * the cone data (primitive rays, multiplicities, fundamental-domain
    point sets D_C, enumerated from their coordinates in O(|D_C|) and
    counted against the closed-form multiplicities);
  * the topological terms w_top in closed form, in the variable
    r = ((m+k)s + nu_z)/k, as one integer kernel term per cone;
  * a symbolic motivic layer (a tuple of MotTerms per cone) mirroring the
    generating-function expressions term by term, whose Euler
    specialization must reproduce w_top exactly - the package's main
    internal oracle.  Units are kept factored as (L - 1)^order *
    cofactor(L), so the specialization reads the order and cofactor(1)
    without dividing; the P factors keep their domain and pairing
    vectors, and their exponents are computed only when asked for.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from .errors import ConsistencyError, ValidationError, checked
from .ratfun import RatFun, linear_product, pdiv_linear

SIGMA_PLUS = "sigma+"
SIGMA_MINUS = "sigma-"
RHO = "rho"
RHO_STAR = "rho*"
BULLETS = (SIGMA_PLUS, SIGMA_MINUS, RHO, RHO_STAR)

ENUMERATION_MAX_Q = 6


@checked
class BinomialGerm(NamedTuple):
    m: int                 # may be 0 (plain suspension)
    k: int
    N: tuple[int, ...]
    nu: tuple[int, ...]
    nu_z: int
    # derived, computed at construction
    q: int                 # len(N)
    n_q: int               # gcd(N)
    e_q: int               # gcd(k, n_q)
    k_j: tuple[int, ...]   # gcd(k, N_j)
    k_forms: tuple[tuple[int, int], ...]   # k (N_j r + nu_j), w_top's forms
    h_atoms: tuple[tuple[int, int], ...]   # k_forms_j / k_j, motivic_w's atoms

    def _new(cls, m, k, N, nu, nu_z):
        if m < 0 or k < 1 or nu_z < 1:
            raise ValidationError("need m >= 0, k >= 1, nu_z >= 1")
        if len(N) != len(nu) or not N:
            raise ValidationError("N and nu must have equal positive length")
        if any(x < 1 for x in N) or any(x < 1 for x in nu):
            raise ValidationError("N_j and nu_j must be >= 1")
        n_q = gcd(*N)
        k_j = tuple([gcd(k, x) for x in N])
        k_forms = tuple([(x * nu_z + k * y, x * (m + k)) for x, y in zip(N, nu)])
        h_atoms = tuple([(a // d, b // d) for (a, b), d in zip(k_forms, k_j)])
        return tuple.__new__(cls, (m, k, N, nu, nu_z, len(N), n_q, gcd(k, n_q),
                                   k_j, k_forms, h_atoms))


# ---------------------------------------------------------------------------
# cone data


class ConeData(NamedTuple):
    d_sigma_plus: tuple[tuple[int, ...], ...]
    d_rho: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _cone_data_cached(k: int, N: tuple[int, ...]) -> ConeData:
    """D_C = {sum lambda_i a_i : lambda_i in (0, 1]} over the rays a_i of C,
    read off coordinates: the rays v_i = (k e_i + N_i e_z)/k_i of rho fix
    x_i = lambda_i k/k_i in 1..k/k_i, and with S = sum x_i N_i the last
    coordinate is S/k + lambda_z, so D_sigma+ is {(x, floor(S/k) + 1)} and
    D_rho is {(x, S/k) : k | S}; both come out sorted."""
    k_j = [gcd(k, x) for x in N]
    mult_sigma = k ** len(N) // prod(k_j)
    mult_rho = k ** (len(N) - 1) * gcd(k, *N) // prod(k_j)
    d_sigma = []
    d_rho = []
    for x in product(*[range(1, k // kj + 1) for kj in k_j]):
        z, rem = divmod(sum(map(mul, x, N)), k)
        d_sigma.append((*x, z + 1))
        if not rem:
            d_rho.append((*x, z))
    if len(d_sigma) != mult_sigma:
        raise ConsistencyError(
            f"|D_sigma+| = {len(d_sigma)} != closed form {mult_sigma}")
    if len(d_rho) != mult_rho:
        raise ConsistencyError(
            f"|D_rho| = {len(d_rho)} != closed form {mult_rho}")
    return ConeData(tuple(d_sigma), tuple(d_rho))


def cone_multiplicities(g: BinomialGerm) -> ConeData:
    """The fundamental domains of sigma+ and rho; their sizes, the cone
    multiplicities, are checked against the closed forms k^q/prod k_j and
    k^{q-1} e_q/prod k_j."""
    if g.q > ENUMERATION_MAX_Q:
        raise ValidationError(f"enumeration bound exceeded: q = {g.q}")
    return _cone_data_cached(g.k, g.N)


# ---------------------------------------------------------------------------
# topological terms


def w_top(g: BinomialGerm, bullet: str) -> RatFun:
    """Closed-form topological term of the given cone, in s."""
    fs = g.k_forms
    kq = g.k ** g.q
    if bullet == SIGMA_PLUS:
        term = (kq, [(g.nu_z, g.m), *fs])
    elif bullet in (RHO, RHO_STAR):
        rho = g.e_q ** 2 * g.k ** (g.q - 1)
        term = (-rho, fs) if bullet == RHO else (rho, [*fs, (1, 1)])
    elif bullet == SIGMA_MINUS:
        # (1/(k r)) (1/prod nu - k^q/prod F) over the forms F = k (N_j r +
        # nu_j) and the constant prod nu; k r = (m+k)s + nu_z divides the
        # numerator exactly, in integers
        prod_nu = prod(g.nu)
        num = list(linear_product(fs))
        num[0] -= kq * prod_nu
        term = (1, [(prod_nu, 0), *fs], pdiv_linear(num, (g.nu_z, g.m + g.k)))
    else:
        raise ValidationError(f"unknown bullet {bullet!r}")
    return RatFun.sum_inv_products([term])


# ---------------------------------------------------------------------------
# motivic layer


@checked
class MotTerm(NamedTuple):
    """(L - 1)^order * cofactor(L) * prod bare monomials L^-a T^b
    * sum_{(a,b) in p_exponents} L^-a T^b * prod_{(a,b) in atoms}
    1/(1 - L^-a T^b).

    cofactor is an integer polynomial in L (ascending coefficients) with
    cofactor(1) != 0, so order is the unit's order of vanishing at L = 1.
    The P factor is kept as a fundamental domain and two pairing vectors:
    each point beta gives (a, b) = (<beta, nu_vec>, <beta, weights>); the
    default domain, one empty point, is P = 1.  Atoms must have
    (a, b) != (0, 0).
    """
    order: int
    cofactor: tuple[int, ...]
    atoms: tuple[tuple[int, int], ...]
    domain: tuple[tuple[int, ...], ...]
    nu_vec: tuple[int, ...]
    weights: tuple[int, ...]
    monomials: tuple[tuple[int, int], ...]

    def _new(cls, order, cofactor, atoms, domain=((),), nu_vec=(), weights=(),
             monomials=()):
        if not sum(cofactor):
            raise ValidationError("unit cofactor vanishes at L = 1")
        if (0, 0) in atoms:
            raise ValidationError("atom with (a, b) = (0, 0)")
        return tuple.__new__(cls, (order, cofactor, atoms, domain, nu_vec,
                                   weights, monomials))

    @property
    def p_exponents(self) -> tuple[tuple[int, int], ...]:
        out = []
        for beta in self.domain:
            a = 0
            b = 0
            for x, nu, w in zip(beta, self.nu_vec, self.weights):
                a += x * nu
                b += x * w
            out.append((a, b))
        out.sort()
        return tuple(out)


def motivic_w(g: BinomialGerm, bullet: str) -> tuple[MotTerm, ...]:
    """The generating-function expression of the given cone term, kept
    symbolic: units (L - 1)^order * cofactor(L), fundamental domains with
    their pairings for the P factors, and geometric atoms
    1/(1 - L^-a T^b)."""
    cones = cone_multiplicities(g)
    q = g.q
    nu_full = (*g.nu, g.nu_z)
    n_full = (*g.N, g.m)                       # T-weights on sigma+/rho
    mk_ez = tuple([0] * q + [g.m + g.k])       # T-weights (m+k) e_z
    k_atom = (g.nu_z, g.m)
    k_tilde_atom = (g.nu_z, g.m + g.k)

    if bullet == SIGMA_PLUS:
        return (MotTerm(q + 1, (1,), (k_atom, *g.h_atoms),
                        cones.d_sigma_plus, nu_full, n_full),)

    if bullet == SIGMA_MINUS:
        term1 = MotTerm(q + 1, (1,),
                        (k_tilde_atom, *[(nu_j, 0) for nu_j in g.nu]))
        term2 = MotTerm(q + 1, (-1,), (k_tilde_atom, *g.h_atoms),
                        cones.d_sigma_plus, nu_full, mk_ez)
        term3 = MotTerm(q + 1, (-1,), g.h_atoms, cones.d_rho, nu_full, mk_ez)
        return term1, term2, term3

    if bullet == RHO:
        # (L - 1 - e_q) (L - 1)^q
        return (MotTerm(q, (-1 - g.e_q, 1), g.h_atoms,
                        cones.d_rho, nu_full, n_full),)

    if bullet == RHO_STAR:
        return (MotTerm(q + 1, (g.e_q,), ((1, 1), *g.h_atoms),
                        cones.d_rho, nu_full, n_full, monomials=((1, 1),)),)

    raise ValidationError(f"unknown bullet {bullet!r}")


def euler_specialize(terms: tuple[MotTerm, ...]) -> RatFun:
    """Euler-characteristic specialization at T = L^-s, L -> 1.

    Each (L - 1) unit paired with an atom 1/(1 - L^-(a+bs)) contributes
    1/(a + bs); P monomials and bare monomials go to 1, so P counts its
    domain; terms whose unit vanishes at L = 1 to higher order than the
    number of atoms vanish by additivity.  A unit vanishing to *lower*
    order would be a genuine pole at L = 1 and raises.
    """
    paired = []
    for term in terms:
        n_atoms = len(term.atoms)
        if term.order > n_atoms:
            continue
        if term.order < n_atoms:
            raise ConsistencyError(
                f"term has {n_atoms} atoms but unit vanishes to order "
                f"{term.order}")
        paired.append((sum(term.cofactor) * len(term.domain), term.atoms))
    return RatFun.sum_inv_products(paired)
