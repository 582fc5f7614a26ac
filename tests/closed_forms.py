"""Closed-form specializations kept as test oracles.

The library computes every suspension and Le-Yomdin zeta function through
the general formulas (suspension.suspend_G, lys.lys_ztop) and the
Thom-Sebastiani eigenvalue transfer in bracket form, and it enumerates
the fundamental domains of the binomial cones from their coordinates.
The paper's special cases below (the four gated cone terms of the binomial
germ z^m (z^k + x^N), the five-case statement of the generalized
suspension z^m (z^k + f), the plain suspension z^k + f, the k = 2 split,
the superisolated k = 1 surfaces), the Le-Yomdin pole candidates,
eigenvalue orders and residue at -3/m, the residue-class walk over the
root multiset and the box walk that solves for every integer point of a
cone's bounding box are independent derivations of the same quantities;
so is the dense Gauss-Jordan solve of a resolution graph's numerical data,
beside the tree elimination of resolution.solve_multiplicities, and so
is the Newton-polyhedron formula of Denef-Loeser for the Brieskorn-Pham
suspensions z^m (z^k + x_1^a_1 + ... + x_{n-1}^a_{n-1}), which does not go
through the transfer theorem at all.  The tests compare them with the
production path.  The surface statements read off lys.lys_ztop (whether
the tangent cone is a bad divisor, and the residue at -3/m) sit here too:
no production path reads them, and the tests hold the residue to
residue_lct_formula.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

from topzeta.arith import divisor_closure, divisors, frak_m, \
    jordan_totient, lcm_all
from topzeta.binomial import BULLETS, RHO, RHO_STAR, SIGMA_MINUS, \
    SIGMA_PLUS, BinomialGerm, w_top
from topzeta.cyclo import CycloProduct
from topzeta.errors import ConsistencyError, ValidationError
from topzeta.lys import LysSurface, lys_ztop
from topzeta.ratfun import PoleError, RatFun
from topzeta.suspension import GermSummary, ZetaProfile


# ---------------------------------------------------------------------------
# the binomial germ z^m (z^k + x^N), cone by cone


def rho_rays(k: int, N: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Primitive integral rays of rho: v_i = (k e_i + N_i e_z)/gcd(k, N_i)."""
    q = len(N)
    rays = []
    for i, n_i in enumerate(N):
        ki = gcd(k, n_i)
        v = [0] * (q + 1)
        v[i] = k // ki
        v[q] = n_i // ki
        rays.append(tuple(v))
    return tuple(rays)


def n_bullet(g: BinomialGerm, bullet: str) -> int:
    """gcd of ord(g ° phi) over arcs with order vector interior to the cone:
    gcd(n_q, m) on sigma+, m+k on sigma-, (m+k) n_q / e_q on rho."""
    if bullet == SIGMA_PLUS:
        return gcd(g.n_q, g.m)   # gcd(n, 0) = n covers m = 0
    if bullet == SIGMA_MINUS:
        return g.m + g.k
    if bullet == RHO:
        return (g.m + g.k) * g.n_q // g.e_q
    raise ValueError(f"no divisibility weight for bullet {bullet!r}")


def w_top_twisted(g: BinomialGerm, bullet: str, l: int) -> RatFun:
    """l-twisted term: w_top if l | N(bullet), else 0; rho* is always 0."""
    if l < 2:
        raise ValueError("twisted terms need l >= 2")
    if bullet == RHO_STAR:
        return RatFun.zero()
    if n_bullet(g, bullet) % l == 0:
        return w_top(g, bullet)
    return RatFun.zero()


def ztop_binomial(g: BinomialGerm, l: int = 1) -> RatFun:
    """Full (twisted) local zeta function of the binomial germ."""
    if l == 1:
        return sum((w_top(g, b) for b in BULLETS), RatFun.zero())
    return sum((w_top_twisted(g, b, l) for b in BULLETS), RatFun.zero())


# ---------------------------------------------------------------------------
# plain suspension F = z^k + f


def suspend_F(f: ZetaProfile, k: int, l: int) -> RatFun:
    """Z_top^(l)(F, s) for F = z^k + f (volume form with nu_z = 1); the
    three-case closed form in t = s + 1/k.  Must agree with
    suspend_G(f, 0, k, 1, l), which the test suite enforces."""
    if k < 1 or l < 1:
        raise ValueError("need k >= 1, l >= 1")
    shift = Fraction(1, k)

    def at_t(e: int) -> RatFun:
        return f.entry(e).substitute_affine(1, shift)

    inv_kt = RatFun.inv_linear(k, 1)                  # 1/(k t)
    t_fun = RatFun.linear(1, shift)
    s_fun = RatFun.linear(1, 0)
    inv_s1 = RatFun.inv_linear(1, 1)

    if l == 1:
        total = (inv_kt * Fraction(1, f.prod_nu0)
                 + (s_fun * inv_s1 * Fraction(k - 1, k) * (t_fun + 1)
                    * RatFun.inv_linear(1, shift) * at_t(1)))
        for e in divisors(k):
            if e == 1:
                continue
            total = total - (s_fun * inv_s1 * Fraction(jordan_totient(2, e), k)
                             * at_t(e))
        return total

    if k % l == 0:
        total = (inv_kt * Fraction(1, f.prod_nu0)
                 + at_t(l)
                 - (t_fun + 1) * inv_kt * at_t(1))
        for e in divisors(k):
            if e == 1:
                continue
            total = total - Fraction(jordan_totient(2, e), k) * at_t(e)
        return total

    fm = frak_m(k, l, k)
    total = at_t(l)
    for e in divisors(k):
        total = total - Fraction(jordan_totient(2, e), k) * at_t(lcm(e, fm))
    return total


# ---------------------------------------------------------------------------
# generalized suspension G = z^m (z^k + f), case by case


def suspend_G_dispatch(f: ZetaProfile, m: int, k: int, nu_z: int,
                       l: int) -> RatFun:
    """Z_top^(l)(G, omega_{d+1}, s) for G = z^m (z^k + f) and the form
    x^nu0 z^nu_z dx/x dz/z, as the paper states it: a five-case dispatch
    on l = 1, l | m and l | m+k, in r = ((m+k)s + nu_z)/k.  Must agree
    with suspension.suspend_G, the sum over the four cones."""
    if m < 0 or k < 1 or nu_z < 1 or l < 1:
        raise ValueError("need m >= 0, k >= 1, nu_z >= 1, l >= 1")
    a = Fraction(m + k, k)
    b = Fraction(nu_z, k)

    def at_r(e: int) -> RatFun:
        return f.entry(e).substitute_affine(a, b)

    inv_kr = RatFun.inv_linear(m + k, nu_z)          # 1/(k r)
    inv_krs = RatFun.inv_linear(m, nu_z)             # 1/(k (r - s))
    r_fun = RatFun.linear(a, b)
    s_fun = RatFun.linear(1, 0)
    inv_s1 = RatFun.inv_linear(1, 1)                 # 1/(s + 1)

    div_mk = (m + k) % l == 0
    div_m = m % l == 0

    if l == 1:
        # 1/(k r (r-s)(s+1)) = [1/(k r)] [1/(k (r-s))] [1/(s+1)] k
        coeff = (s_fun * (s_fun - r_fun + 1) * (r_fun + 1)
                 * inv_kr * inv_krs * inv_s1 * k)
        total = inv_kr * Fraction(1, f.prod_nu0) + coeff * at_r(1)
        for e in divisors(k):
            if e == 1:
                continue
            total = total - (s_fun * inv_s1 * Fraction(jordan_totient(2, e), k)
                             * at_r(e))
        return total

    if div_mk and div_m:
        total = (inv_kr * Fraction(1, f.prod_nu0)
                 + inv_krs * at_r(l)
                 - (r_fun + 1) * inv_kr * at_r(1))
        for e in divisors(k):
            if e == 1:
                continue
            total = total - Fraction(jordan_totient(2, e), k) * at_r(e)
        return total

    if div_mk:
        total = (inv_kr * Fraction(1, f.prod_nu0)
                 - (r_fun + 1) * inv_kr * at_r(1))
        for e in divisors(k):
            if e == 1:
                continue
            total = total - Fraction(jordan_totient(2, e), k) * at_r(e)
        return total

    fm = frak_m(k, l, m + k)
    total = inv_krs * at_r(l) if div_m else RatFun.zero()
    for e in divisors(k):
        total = total - (Fraction(jordan_totient(2, e), k) * at_r(lcm(e, fm)))
    return total


# ---------------------------------------------------------------------------
# k = 2 twisted specialization


def k2_twisted(f: ZetaProfile, l: int) -> RatFun:
    """Z_top^(l)(z^2 + f, s) via the four-way split on l = 2^a l2, t = s + 1/2.

    The odd-l case follows the general suspension theorem
    (1/2) Z^(l) - (3/2) Z^(2l); the specialization lemma's printed sign
    for that case fails on the cusp z^2 + x^3 and is not used.
    """
    if l < 2:
        raise ValueError("k2_twisted needs l >= 2")
    half = Fraction(1, 2)

    def at_t(e: int) -> RatFun:
        return f.entry(e).substitute_affine(1, half)

    if l % 2 == 1:
        return half * at_t(l) - Fraction(3, 2) * at_t(2 * l)
    if l == 2:
        t_fun = RatFun.linear(1, half)
        inv_t = RatFun.inv_linear(1, half)
        return half * (inv_t * Fraction(1, f.prod_nu0) - at_t(2)
                       - (t_fun + 1) * inv_t * at_t(1))
    if l % 4 == 2:
        return -half * (at_t(l // 2) + at_t(l))
    return -at_t(l)


# ---------------------------------------------------------------------------
# superisolated surfaces (Le-Yomdin with k = 1)


def sis_ztop(S: LysSurface, l: int = 1) -> RatFun:
    """Superisolated specialization (k = 1), with t = (1+m)s + n + 1; agrees
    with lys_ztop at k = 1."""
    if S.k != 1:
        raise ValidationError("sis_ztop needs k = 1")
    if l < 1:
        raise ValueError("l must be >= 1")
    m, n = S.m, S.n
    t_fun = RatFun.linear(1 + m, n + 1)
    inv_t = RatFun.inv_linear(1 + m, n + 1)
    inv_ts = RatFun.inv_linear(m, n + 1)           # 1/(t - s)
    inv_s1 = RatFun.inv_linear(1, 1)
    s_fun = RatFun.linear(1, 0)

    def at_t(point: GermSummary, e: int) -> RatFun:
        return point.zeta.entry(e).substitute_affine(1 + m, n + 1)

    if l == 1:
        total = (S.chi_complement * inv_ts
                 + S.chi_curve_smooth * inv_ts * inv_s1)
        for q in S.points:
            total = total + inv_t + (s_fun * (t_fun + 1) * (s_fun - t_fun + 1)
                                     * inv_t * inv_s1 * inv_ts * at_t(q, 1))
        return total
    if (m + 1) % l == 0:
        total = RatFun.zero()
        for q in S.points:
            total = total + inv_t * (RatFun.one() - (t_fun + 1) * at_t(q, 1))
        return total
    if m % l == 0:
        total = S.chi_complement * inv_ts
        for q in S.points:
            total = total + (s_fun - t_fun + 1) * inv_ts * at_t(q, l)
        return total
    total = RatFun.zero()
    for q in S.points:
        total = total - at_t(q, l // gcd(l, m + 1))
    return total


# ---------------------------------------------------------------------------
# Le-Yomdin pole candidates


def candidate_a(rho0: Fraction, nu: int, m: int, k: int) -> Fraction:
    """(k rho0 + nu)/(m + k), the pole-transfer map."""
    return (k * Fraction(rho0) + nu) / Fraction(m + k)


def lys_candidate_poles(S: LysSurface) -> frozenset[Fraction]:
    """{1, (n+1)/m} plus the transfer of every local pole."""
    out = {Fraction(1), Fraction(S.n + 1, S.m)}
    for q in S.points:
        for rho0 in q.zeta.entry(1).pol_plus():
            out.add(candidate_a(rho0, S.n + 1, S.m, S.k))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Le-Yomdin Euler characteristics, eigenvalue orders and the residue at the
# lct candidate


def lys_euler_characteristics(n: int, m: int, points) -> tuple[int, int]:
    """(chi(P^n \\ C), chi(C \\ Sing C)) for C of degree m in P^n with
    isolated singular points q of Milnor numbers deg Delta_q: chi(C) is a
    smooth C's sum_{j=1}^n (-1)^(j-1) binom(n+1, n-j) m^j, the degree-n
    coefficient of the total Chern class (1 + h)^(n+1) m h/(1 + m h), plus
    (-1)^n sum_q deg Delta_q."""
    chi_c = sum((-1) ** (j - 1) * comb(n + 1, n - j) * m ** j
                for j in range(1, n + 1)) \
        + (-1) ** n * sum(q.delta.degree() for q in points)
    return n + 1 - chi_c, chi_c - len(points)


def frak_n(n: int, m: int, k: int) -> int:
    """(m+k) * n / gcd(n,k); transfers eigenvalue orders through a blow-up."""
    if min(n, m, k) < 1:
        raise ValidationError(f"expected positive integers, got {(n, m, k)}")
    return (m + k) * n // gcd(n, k)


def lys_orders_formula(S: LysSurface) -> frozenset[int]:
    """Divisor closure of {m when chi(P^2 \\ C) != 0} together with
    n(n_0, m, k) for each local eigenvalue order n_0."""
    gens = {S.m} if S.chi_complement != 0 else set()
    for q in S.points:
        gens |= {frak_n(n0, S.m, S.k) for n0 in q.delta.root_orders()}
    return divisor_closure(gens)


def residue_lct_formula(S: LysSurface) -> Fraction:
    """(1/m) R(C_m) with R = chi(P^2 \\ C) + m/(m-3) chi(C \\ Sing)
    + sum_q Z(f_q, -3/m): the residue of Z_top(F, s) at -3/m when that is
    a pole of no local zeta.  PoleError at m = 3 or at a local pole."""
    if S.m == 3:
        raise PoleError("m = 3: the middle term of R degenerates")
    lct = Fraction(3, S.m)
    r_val = (Fraction(S.chi_complement)
             + Fraction(S.m, S.m - 3) * S.chi_curve_smooth
             + sum((q.zeta.entry(1).evaluate(-lct) for q in S.points),
                   Fraction(0)))
    return r_val / S.m


def require_surface(S: LysSurface, statement: str) -> None:
    if S.n != 2:
        raise ValidationError(f"{statement} (n = 2)")


def is_bad_divisor(S: LysSurface) -> bool:
    """deg C > 3, chi(P^2 \\ C) <= 0, and -3/m a pole of no local zeta."""
    require_surface(S, "bad divisors are defined for surfaces")
    if S.m <= 3 or S.chi_complement > 0:
        return False
    lct = Fraction(3, S.m)
    return all(lct not in q.zeta.entry(1).pol_plus()
               for q, _ in S.point_types)


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
        if lct in q.zeta.entry(1).pol_plus():
            raise PoleError(
                f"-3/m is a pole at point {q.name!r}: multiple pole regime")
    return lys_ztop(S, 1).residue_at(-lct)


# ---------------------------------------------------------------------------
# the two halves of CycloProduct.power_brackets, one product each


def power_transform(h: CycloProduct, k: int) -> CycloProduct:
    """h^(k), the k-th power transform."""
    return CycloProduct.from_brackets(h.power_brackets(k, 1))


def variable_power(h: CycloProduct, p: int) -> CycloProduct:
    """h(tau^p)."""
    return CycloProduct.from_brackets(h.power_brackets(1, p))


# ---------------------------------------------------------------------------
# Thom-Sebastiani by walking the root multiset


def thom_sebastiani_walk(h: CycloProduct, k: int) -> CycloProduct:
    """Root multiset of the suspension by k points: {eta*zeta} over
    eta^k = 1, eta != 1 and zeta a root of h.

    Roots are tracked as residues modulo L = lcm(orders, k) and the
    resulting counts refactored into cyclotomics; the multiset must be
    Galois-stable, which is checked.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not h.is_polynomial():
        raise ValueError("Thom-Sebastiani tensor needs a polynomial input")
    if not h.items:
        return CycloProduct.one()
    L = lcm_all([d for d, _ in h.items] + [k])
    counts: dict[int, int] = {}
    for d, e in h.items:
        step = L // d
        for j in range(d):
            if gcd(j, d) != 1:
                continue
            zeta = j * step
            for a in range(1, k):
                res = (zeta + a * (L // k)) % L
                counts[res] = counts.get(res, 0) + e
    return _refactor_counts(counts, L)


def brieskorn_pham_eigenvalues(exponents: tuple[int, ...]) -> CycloProduct:
    """Monodromy eigenvalues of x_1^a_1 + ... + x_n^a_n: the products
    w_1 ... w_n with w_i^a_i = 1 and w_i != 1 (Milnor-Orlik, Topology 9,
    1970), counted as residues modulo L = lcm(a_i)."""
    L = lcm_all(exponents)
    counts = {0: 1}
    for a in exponents:
        nxt: dict[int, int] = {}
        for res, c in counts.items():
            for j in range(1, a):
                r = (res + j * (L // a)) % L
                nxt[r] = nxt.get(r, 0) + c
        counts = nxt
    return _refactor_counts(counts, L)


def _refactor_counts(counts: dict[int, int], L: int) -> CycloProduct:
    """Turn residue-class multiplicities mod L into Phi_d exponents."""
    by_order: dict[int, dict[int, int]] = {}
    for res, c in counts.items():
        d = L // gcd(res, L)
        by_order.setdefault(d, {})[res] = c
    factors = {}
    for d, residues in by_order.items():
        mults = set(residues.values())
        if len(mults) != 1 or len(residues) != jordan_totient(1, d):
            raise ConsistencyError(
                f"root multiset is not Galois-stable at order {d}")
        factors[d] = mults.pop()
    return CycloProduct.from_factors(factors)


# ---------------------------------------------------------------------------
# dense elimination over Q: cone coordinates and a graph's numerical data


def gauss_jordan(rows: list[list[Fraction]], ncols: int) -> bool:
    """Reduce augmented rows over Q in place so that the first ncols rows
    carry the identity in the first ncols columns; the trailing columns then
    hold the solution and any further rows the consistency conditions.
    Returns False, leaving rows partly reduced, when those columns are
    linearly dependent."""
    for col in range(ncols):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / Fraction(rows[col][col])
        rows[col] = [x * inv for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return True


def dense_multiplicities(self_intersections: dict[str, int], arrows,
                         edges) -> dict[str, tuple[Fraction, Fraction]] | None:
    """(N, nu) of each vertex, solved from the full intersection matrix M:
    M N = -arrows (projection formula) and M (nu - 1) = -2 - E_i^2
    (adjunction), both in one Gauss-Jordan elimination; None when M is
    singular.  Any graph shape is accepted."""
    index = {vid: i for i, vid in enumerate(self_intersections)}
    n = len(index)
    m = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        m[index[u]][index[v]] += 1
        m[index[v]][index[u]] += 1
    for vid, i in index.items():
        e = self_intersections[vid]
        arrow_load = sum(a.mult for a in arrows if a.attached_to == vid)
        m[i][i] = Fraction(e)
        m[i] += [Fraction(-arrow_load), Fraction(-e - 2)]
    if not gauss_jordan(m, n):
        return None
    return {vid: (m[i][n], m[i][n + 1] + 1) for vid, i in index.items()}


# ---------------------------------------------------------------------------
# fundamental domains of simplicial cones by a walk over the bounding box


def _coordinate_solver(rays: list[tuple[int, ...]]):
    """Exact solver for lambda = M^-1 x, precomputed once per cone.

    Row-reduces the ray matrix over Q to a left inverse A (so lambda = A x)
    plus consistency rows C (points with C x != 0 lie outside the span);
    both are returned integerized over a common denominator d, so the
    membership test 0 < lambda_i <= 1 becomes 0 < (A x)_i <= d in integers.
    """
    nrows = len(rays[0])
    ncols = len(rays)
    aug = [[Fraction(rays[j][i]) for j in range(ncols)]
           + [Fraction(int(i == r)) for r in range(nrows)]
           for i in range(nrows)]
    if not gauss_jordan(aug, ncols):
        raise ConsistencyError("rays are linearly dependent")
    solve_rows = [aug[r][ncols:] for r in range(ncols)]
    consistency = [aug[r][ncols:] for r in range(ncols, nrows)]
    denom = 1
    for line in solve_rows + consistency:
        for c in line:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    int_solve = [[int(c * denom) for c in line] for line in solve_rows]
    int_cons = [[int(c * denom) for c in line] for line in consistency]
    return int_solve, int_cons, denom


def _enumerate_domain(rays: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Integer points sum lambda_i a_i with lambda_i in (0, 1], by walking the
    integer box [0, sum a_i] and solving for lambda exactly."""
    dim = len(rays[0])
    box = [sum(r[i] for r in rays) for i in range(dim)]
    solve, cons, denom = _coordinate_solver(rays)
    points = []

    def walk(i: int, current: list[int]):
        if i == dim:
            for line in cons:
                if sum(c * x for c, x in zip(line, current)):
                    return
            for line in solve:
                lam = sum(c * x for c, x in zip(line, current))
                if not 0 < lam <= denom:
                    return
            points.append(tuple(current))
            return
        for x in range(box[i] + 1):
            current.append(x)
            walk(i + 1, current)
            current.pop()

    walk(0, [])
    return tuple(sorted(points))


# ---------------------------------------------------------------------------
# Newton polyhedron of a Brieskorn-Pham suspension


def newton_bp_ztop(exponents: tuple[int, ...], m: int, nu_z: int,
                   l: int) -> RatFun:
    """Z_top^(l) of z^m (z^k + x_1^a_1 + ... + x_{n-1}^a_{n-1}) with the form
    z^(nu_z - 1) dx dz, where exponents = (a_1, ..., a_{n-1}, k), from its
    Newton polyhedron; the germ is Newton non-degenerate (Denef-Loeser,
    J. AMS 5, 1992, Thm 5.3).

    The vertices V_i = a_i e_i + m e_n (i < n) and V_n = (m+k) e_n span the
    one compact facet, of primitive normal w = (L/a_1, ..., L/a_n) with
    L = lcm(a_i).  The face on {V_i : i in S} has the simplicial dual cone
    R_S = {w} + {e_j : j not in S}, of multiplicity gcd(w_i : i in S), on
    which N(r) = min_i <r, V_i> and nu(r) = <r, (1, ..., 1, nu_z)>.  A cone
    counts for the twist l when l divides gate_S, the gcd of N over the
    lattice points of its span, which the basis {e_j : j not in S} plus
    (w_i / gcd(w_i : i in S) on S, 0 elsewhere) generates.  A vertex cone
    (|S| = 1) adds mult / prod (N s + nu); a face of dimension |S| - 1 >= 1
    adds (-1)^{|S| - 1} vol_S times that, with vol_S = prod a_i / lcm(a_i)
    over S, and times s/(s + 1) when l = 1."""
    n = len(exponents)
    vertices = [tuple(a * (i == j) + m * (j == n - 1) for j in range(n))
                for i, a in enumerate(exponents)]      # V_n = (k + m) e_n
    nu_vec = (1,) * (n - 1) + (nu_z,)
    big_l = lcm_all(exponents)
    w = tuple(big_l // a for a in exponents)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def form(r):
        return dot(r, nu_vec), min(dot(r, v) for v in vertices)

    terms = []
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            mult = gcd(*(w[i] for i in S))
            rest = [j for j in range(n) if j not in S]
            u = [w[i] // mult if i in S else 0 for i in range(n)]
            gate = gcd(dot(u, vertices[S[0]]),
                       *(vertices[S[0]][j] for j in rest))
            if gate % l:
                continue
            forms = [form(w)] + [form([int(i == j) for i in range(n)])
                                 for j in rest]
            if size == 1:
                terms.append((mult, forms))
                continue
            vol = prod(exponents[i] for i in S) \
                // lcm_all(exponents[i] for i in S)
            coef = (-1) ** (size - 1) * vol * mult
            terms.append((coef, forms + [(1, 1)], (0, 1)) if l == 1
                         else (coef, forms))
    return RatFun.sum_inv_products(terms)
