"""Truncated generating functions: J, I^X, I^Y, H-factorizations, H^Y'.

Conventions used throughout:

* the distinguished direction (coordinate dual to the grading sector) is
  variable slot 0: exponent k0 of t on the t-side, of q^(1/d) on the q-side;
* the remaining variables are the coordinates t^{g_s} dual to the sectors
  g_s with N_{g_s} > 0, in a fixed sorted order;
* a(k)^j = sum_s k_s m_j(g_s) and r_j = k0 c_j / d + a(k)^j, so that the
  sector of an index (k0, k) has m_j = frac(r_j) on the t-side;
* t-truncation bounds the total multidegree (k0 counts once, also on the
  q-side where it is a q^(1/d)-exponent).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import NamedTuple

from .exactalg import (
    Cyclotomic,
    GammaAtom,
    SectorValue,
    SeriesRing,
    ZLaurentSeries,
    _atoms_key,
    _linear_product,
    gamma_shift_product,
)
from .cohseries import (
    CohSeries,
    Orders,
    TOKEN_Q_H,
    TOKEN_T_LAMBDA,
    _sector_nilpotency,
)
from .lgmodel import GroupElement, LGPair, load_pair, pair_to_dict
from .transforms import delta_circ, gamma_class_op, ubar_block

__all__ = [
    "IdentityError",
    "untwisted_j",
    "untwisted_j_oracle",
    "psi_integral_oracle",
    "i_function_x",
    "i_function_y",
    "modification_factor",
    "y_ray_levels",
    "h_function_x",
    "h_function_y",
    "h_factorization",
    "h_continued",
    "gamma_pole_residue",
    "fjrw_i_function",
    "fjrw_limit",
    "z_ddt_distinguished",
    "assert_lambda_divisibility",
    "serialize_series",
    "deserialize_series",
]


class IdentityError(AssertionError):
    """A termwise identity failed to verify; ``witness`` names where."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# the untwisted J-function and its psi-integral oracle
# ---------------------------------------------------------------------------

def _multidegree_walk(rows, total: int):
    """Every exponent tuple of the given total over len(rows) variables,
    lexicographic, as (degs, sums, fact).

    sums = sum_i degs_i rows[i] is an integer tuple and fact = prod_i degs_i!.
    Each step is one odometer carry from the previous tuple: of the last
    nonzero entry v, one unit moves one slot to the left and the other v - 1
    to the last slot, and sums and fact follow in integers.
    """
    last = len(rows) - 1
    degs = [0] * last + [total]
    sums = tuple(total * e for e in rows[last])
    fact = factorial(total)
    while True:
        yield tuple(degs), sums, fact
        t = last
        while t >= 0 and not degs[t]:
            t -= 1
        if t <= 0:
            return
        v = degs[t]
        degs[t] = 0
        degs[t - 1] += 1
        degs[last] = v - 1
        fact = fact // v * degs[t - 1]
        sums = tuple([s - v * a + b + (v - 1) * e for s, a, b, e
                      in zip(sums, rows[t], rows[t - 1], rows[last])])


@lru_cache(maxsize=1)
def _j_classes(pair: LGPair, orders: Orders) -> tuple:
    """Per total 0..T, its multidegrees grouped by their exponent sums over
    the rows ``g.exps`` mod d/c_j: a tuple of classes, each a tuple of
    members (degs, fact, sector) in walk order, sector being the member's
    own reduced sums; empty where z = 1 - total is outside the z-window.

    The one walk under both J routes, kept for the last (pair object,
    orders).  The closed J writes each member under its own sector, the
    oracle reads only the grouping, so a member in the wrong class splits
    them.  Over the rows g j^c the sums move by c total j, one translation
    per total, so the classes hold at every twist c.
    """
    exponents = pair.fermat.exponents
    z_min, z_max = orders.z_window
    rows = [g.exps for g in pair.group.elements]
    table = []
    for total in range(orders.t_order + 1):
        classes: dict = {}
        if z_min <= 1 - total <= z_max:
            for degs, sums, fact in _multidegree_walk(rows, total):
                sector = tuple([s % m for s, m in zip(sums, exponents)])
                classes.setdefault(sector, []).append((degs, fact, sector))
        table.append(tuple(map(tuple, classes.values())))
    return tuple(table)


def untwisted_j(pair: LGPair, c: int, orders: Orders) -> CohSeries:
    """Closed-form J: sum over {a_g} of z^(1-sum a) prod t^a / a! on phi_{prod g^a}.

    Variables are all group coordinates, in element order.  The sector
    prod g^a is the member's own sector in ``_j_classes``.  No term depends
    on the twist c, which only tags the series: the terms are built once per
    (pair, orders) by ``_closed_j_terms`` and every c gets its own copy,
    which is clean by construction and so is not re-validated.
    """
    pair.require_twist(c)
    return CohSeries._unchecked("lg", pair, tuple(g.exps for g in pair.group.elements),
                                orders, dict(_closed_j_terms(pair, orders)), (), c_twist=c)


@lru_cache(maxsize=1)
def _closed_j_terms(pair: LGPair, orders: Orders) -> dict:
    """The closed J's terms (sector, z, degs) -> 1/fact at ``orders``, each
    member of ``_j_classes`` written under its own sector.

    Every term is inside the z-window and the t-order, with a nonzero
    ``SectorValue`` under tuple keys.  The last dict is kept per (pair
    object, orders); it is only ever read, by ``untwisted_j``, which copies
    it.
    """
    ring = SeriesRing(pair.fermat.degree, orders.lam_order, 1)
    terms: dict = {}
    scalars: dict = {}   # fact -> the value 1/fact, shared by its terms
    for total, classes in enumerate(_j_classes(pair, orders)):
        for members in classes:
            for degs, fact, sector in members:
                value = scalars.get(fact)
                if value is None:
                    value = scalars[fact] = ring.scalar(Fraction(1, fact))
                terms[(sector, 1 - total, degs)] = value
    return terms


@lru_cache(maxsize=None)
def psi_integral_oracle(exponents: tuple[int, ...]) -> Fraction:
    """Genus-zero psi-integral over the moduli of stable curves.

    Computed by the string-equation recursion, never by the closed form
    (n-3)!/prod a_i!, so it can serve as an independent oracle for it.
    """
    n = len(exponents)
    if n < 3:
        raise ValueError("need at least three marked points")
    if sum(exponents) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)
    exponents = tuple(sorted(exponents))
    # smallest entry is 0 whenever the dimension condition holds
    rest = exponents[1:]
    total = Fraction(0)
    for i, a in enumerate(rest):
        if a > 0:
            lowered = rest[:i] + (a - 1,) + rest[i + 1:]
            total += psi_integral_oracle(tuple(sorted(lowered)))
    return total


def untwisted_j_oracle(pair: LGPair, c: int, orders: Orders) -> CohSeries:
    """J assembled from the psi-integral oracle and the selection rules.

    Independent route: correlators come from ``psi_integral_oracle`` and the
    moduli non-emptiness criterion, duals from the untwisted pairing, not
    from the closed-form product formula.  Every dual g0 is scanned through
    ``is_nonempty`` once per class of ``_j_classes``, with the class's first
    multidegree as insertions, and the duals that pass are written for each
    member.  No dual is solved for, and no member's sector or product is
    read.

    Every key is written once and only inside the orders: the unit (z = 1)
    and the linear terms (z = 0, t-degree 1) when the z-window and the
    t-order hold them, and the class terms at z = 1 - total, which
    ``_j_classes`` leaves empty outside the window.  The series is built
    unchecked, so a key written outside the orders reaches ``compare``.
    """
    pair.require_twist(c)
    elements = pair.group.elements
    ring = SeriesRing(pair.fermat.degree, orders.lam_order, 1)
    jc = pair.grading ** c
    shifted = [g * jc for g in elements]
    j2c_inverse = (jc * jc).inverse()
    duals = [g0.inverse() * j2c_inverse for g0 in elements]
    z_min, z_max = orders.z_window
    terms: dict = {}
    if z_min <= 1 <= z_max:
        terms[(pair.identity.exps, 1, (0,) * len(elements))] = ring.one()
    if z_min <= 0 <= z_max and orders.t_order >= 1:
        for i, g in enumerate(elements):
            degs = [0] * len(elements)
            degs[i] = 1
            terms[(g.exps, 0, tuple(degs))] = ring.one()
    dual_norm = pair.fermat.degree ** pair.fermat.n_variables
    for total, classes in enumerate(_j_classes(pair, orders)):
        if total < 2 or not classes:
            continue
        # n = total + 1 points: the dimension condition leaves only psi^(n-3)
        a = total - 2
        corr = Fraction(1, dual_norm) * psi_integral_oracle((a,) + (0,) * total)
        # is_nonempty reads its insertions only through n and the sums
        # sum_i k_j(g_i), and asks that d/c_j divide c(n - 2) minus them, so
        # within this total one class shares one verdict per dual; the
        # coefficient depends on fact alone
        scalars: dict = {}
        for members in classes:
            insertions = [g_jc for g_jc, k in zip(shifted, members[0][0]) for _ in range(k)]
            passing = [dual_sector.exps for g0_jc, dual_sector in zip(shifted, duals)
                       if pair.is_nonempty(c, 0, [g0_jc] + insertions)]
            if not passing:
                continue
            for degs, fact, _ in members:
                value = scalars.get(fact)
                if value is None:
                    value = scalars[fact] = ring.scalar(Fraction(1, fact) * corr * dual_norm)
                for exps in passing:
                    terms[(exps, -a - 1, degs)] = value
    return CohSeries._unchecked("lg", pair, tuple(g.exps for g in elements), orders,
                                terms, (), c_twist=c)


# ---------------------------------------------------------------------------
# the index table shared by every I/H walk
# ---------------------------------------------------------------------------

class IndexTerm(NamedTuple):
    """One index (k0, k) with k0 + sum(k) <= T and the integers it carries.

    degs = (k0,) + k, so k0 is degs[0].  base, the exponent tuple of
    prod_s g_s^{k_s}, and sector, that of the index's sector on the table's
    side, are reduced mod d/c_j.  comb and offset are the side's
    combinatorial factor and I z-power: 1/(k0! prod_s k_s!) and
    1 - k0 - sum k on X, 1/prod_s k_s! and 1 - sum k on Y.
    r_j = k0 c_j / d + a(k)^j and v_j = k0 c_j / d - a(k)^j are carried as
    their integer numerators over d: r_num and v_num.
    shift = sum_s (age(g_s) - 1) k_s is the H z-power and age the age of
    ``sector``; both are None on a non-SL pair, whose z-grading
    ``LGPair.require_sl`` refuses.  ``ring`` is the ring of the index's
    coefficients on the table's side.
    """

    degs: tuple[int, ...]
    base: tuple[int, ...]
    comb: Fraction
    offset: int
    r_num: tuple[int, ...]
    v_num: tuple[int, ...]
    shift: int | None
    age: int | None
    sector: tuple[int, ...]
    ring: SeriesRing


@lru_cache(maxsize=1)
def _index_tables(pair: LGPair, orders: Orders) -> dict:
    """{"x": X table, "y": Y table}: the IndexTerm of every (k0, k) on each
    side, by total degree, then lexicographic, from one multidegree walk.

    On side "x" an index lives on the sector j^k0 base, in nilpotency 1; on
    side "y" it lives on j^-k0 base, in nilpotency N_g, and indices whose
    sector has N_g = 0 are skipped.  The multidegree walk runs over a zero
    row for k0 and one row per positive-dimensional sector g_s: its
    exponents, then the column d age(g_s) - d.  Its sums are sum_s k_s
    k_j(g_s).  Reduced mod d/c_j, they give base, and shifted by +- k0 j
    they give the two sectors.  They also give r_j, v_j = (k0 +- sums_j)
    c_j / d and, in the last column, d shift.  base, r_num, v_num and shift
    are the same on both sides, so a Y term shares them with the X term of
    its multidegree.

    This is the one place that computes an index's integers; every I/H walk
    reads its side's table here.  Sectors and bases are exponent tuples,
    and the tables share one comb per factorial and one interned ring per
    nilpotency.  The last pair of tables is kept per (pair object, orders);
    no identity compares an X-table output with a Y-table output, and what
    each walk derives from a table (atoms, products, Gamma shifts) stays per
    walk.
    """
    sectors = pair.positive_dim_sectors()
    weights, d, exponents = pair.fermat.weights, pair.fermat.degree, pair.fermat.exponents
    grading = pair.grading.exps
    graded = pair.is_sl
    # the age column is last, so zip with the weights and the reductions
    # read the exponent sums alone
    rows = [(0,) * (len(weights) + 1)] + \
        [g.exps + (sum(e * c for e, c in zip(g.exps, weights)) - d,) for g in sectors]
    x_ring = SeriesRing(d, orders.lam_order, 1)
    combs: dict = {}       # factorial -> its inverse
    x_table, y_table = [], []
    for total in range(orders.t_order + 1):
        for degs, sums, fact in _multidegree_walk(rows, total):
            k0 = degs[0]
            base = tuple([s % m for s, m in zip(sums, exponents)])
            if k0:
                # the sectors j^(+-k0) base are the reductions of sums +- k0 j
                x_sector = tuple([(s + k0 * e) % m for s, e, m in zip(sums, grading, exponents)])
                y_sector = tuple([(s - k0 * e) % m for s, e, m in zip(sums, grading, exponents)])
            else:
                x_sector = y_sector = base
            r_num = tuple([(k0 + s) * cj for s, cj in zip(sums, weights)])
            v_num = tuple([(k0 - s) * cj for s, cj in zip(sums, weights)])
            shift = sums[-1] // d if graded else None
            comb = combs.get(fact)
            if comb is None:
                comb = combs[fact] = Fraction(1, fact)
            age = sum(e * c for e, c in zip(x_sector, weights)) // d if graded else None
            x_table.append(IndexTerm(degs, base, comb, 1 - total, r_num, v_num,
                                     shift, age, x_sector, x_ring))
            nilpotency = y_sector.count(0)
            if not nilpotency:
                continue   # a Y index on a sector with N_g = 0
            if k0:   # at k0 = 0 the Y term's sector, comb and age are the X term's
                # prod_s k_s! is the comb of the X term of (0, k), filed at total - k0
                comb = combs[fact // factorial(k0)]
                age = sum(e * c for e, c in zip(y_sector, weights)) // d if graded else None
            y_table.append(IndexTerm(degs, base, comb, 1 - total + k0, r_num, v_num, shift,
                                     age, y_sector, SeriesRing(d, orders.lam_order, nilpotency)))
    return {"x": tuple(x_table), "y": tuple(y_table)}


def _index_signature(pair: LGPair, variable: str) -> tuple:
    """(variables, tokens) of a series over the index table's variables:
    ``variable`` ("t" or "q^(1/d)") with its prefactor token, then t^{g_s}
    per indexing sector."""
    token = TOKEN_T_LAMBDA if variable == "t" else TOKEN_Q_H
    return (variable,) + tuple(g.exps for g in pair.positive_dim_sectors()), ((token, 1),)


# ---------------------------------------------------------------------------
# the hypergeometric I-functions
# ---------------------------------------------------------------------------

def modification_factor(pair: LGPair, r_num, ring: SeriesRing,
                        z_min: int, z_max: int) -> ZLaurentSeries:
    """M(k0, k) = prod_j prod_{l < floor(r_j)} (-c_j lam - (frac(r_j) + l) z).

    r_j = r_num[j] / d.  Each factor goes to ``_linear_product`` over d as
    (-c_j d lam - (r_num[j] mod d + l d) z) / d.
    """
    d = pair.fermat.degree
    return _linear_product(ring, z_min, z_max,
                           [(-cj * d, 0, -(r % d + l * d), d)
                            for cj, r in zip(pair.fermat.weights, r_num)
                            for l in range(r // d)])


def _i_x_product(pair: LGPair, term: IndexTerm, z_min: int, z_max: int,
                 products: dict) -> tuple:
    """(r, M(k0, k)): the I^X coefficient of one index is M(k0, k) times the
    table's comb z^offset.

    M(k0, k) depends on r alone; ``products`` keeps it per r for the span
    of one walk over the index table.
    """
    m_factor = products.get(term.r_num)
    if m_factor is None:
        m_factor = products[term.r_num] = \
            modification_factor(pair, term.r_num, term.ring, z_min, z_max)
    return term.r_num, m_factor


def _wide_window(orders: Orders, pair: LGPair) -> tuple[int, int]:
    """The z-window every I value is built on: the declared window padded by
    2T + 2n + 2 on each side, n the number of variables.

    The I products and the Gamma-ratio blocks are exact products that
    ``_linear_product`` clamps once, at the end.  The I builders shift
    nothing: they write each z + offset of comb times the product straight
    into the declared window.  The padding guards only what the
    factorization check clamps later: its per-key products, I product times
    I block against the operator block shifted by the key's z-offset.
    """
    z_min, z_max = orders.z_window
    pad = 2 * orders.t_order + 2 * pair.fermat.n_variables + 2
    return z_min - pad, z_max + pad


def _i_function(pair: LGPair, orders: Orders, side: str, product_of,
                variable: str) -> CohSeries:
    """The I-function of one side: at every index of the side's table, the
    product of ``product_of`` on ``_wide_window`` times the table's comb,
    one key per z at z + offset inside the declared window.

    comb times the product is formed once per (product key, comb), keyed
    on integers, and its nonzero values go straight into the series' terms,
    which are clean by construction.
    """
    pair.require_cy()
    window = _wide_window(orders, pair)
    z_min, z_max = orders.z_window
    terms: dict = {}
    products: dict = {}
    scaled: dict = {}   # (product key, comb numerator, denominator) -> comb * product
    for term in _index_tables(pair, orders)[side]:
        key, product = product_of(pair, term, *window, products)
        comb, offset = term.comb, term.offset
        scaled_key = (key, comb.numerator, comb.denominator)
        value = scaled.get(scaled_key)
        if value is None:
            value = scaled[scaled_key] = product * comb
        sector, degs = term.sector, term.degs
        for z, coeff in value.terms.items():
            z += offset
            if z_min <= z <= z_max:
                terms[(sector, z, degs)] = coeff
    variables, tokens = _index_signature(pair, variable)
    return CohSeries._unchecked(side, pair, variables, orders, terms, tokens)


def i_function_x(pair: LGPair, orders: Orders) -> CohSeries:
    """The hypergeometric point on the local quotient-stack cone.

    z t^(d lam/tau) sum_{k,k0} prod (t^{g_s})^{k_s} / (z^{k_s} k_s!) *
    M(k0,k) t^{k0} / (z^{k0} k0!) on the sector j^{k0} prod g_s^{k_s}.
    """
    return _i_function(pair, orders, "x", _i_x_product, "t")


def y_ray_levels(v: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(numerator levels, denominator levels) of one ray factor of I^Y, as
    integer numerators over d of the levels of v / d.

    The Gamma-ratio Gamma(1 + c H/tau - frac(-v)) / Gamma(1 + c H/tau + v)
    expands to denominator factors (cH + lz) over 0 < l <= v and numerator
    factors over v < l <= 0, always with frac(l) = frac(v).  The displayed
    denominator-only product is the v > 0 case; for v <= -1 the numerator
    factors (including a bare cH at l = 0 when v is a negative integer) are
    forced by the ratio form, which is what the factorization identity and
    the toric cone statement require.  The numerator levels start at the
    largest l <= 0 with frac(l) = frac(v), whose numerator is -(-v mod d).
    """
    if v > 0:
        return (), tuple(range(v, 0, -d))
    return tuple(range(-(-v % d), v, -d)), ()


def _i_y_product(pair: LGPair, term: IndexTerm, z_min: int, z_max: int,
                 products: dict) -> tuple:
    """((n_g, k0, v), factors): the I^Y coefficient of one index is the k0
    fiber factors times the ray factors of every j, times the table's comb
    z^offset.

    The factors depend on (n_g, k0, v) alone; ``products`` keeps their
    product under that key for the span of one walk over the index table.
    """
    key = (term.ring.nilpotency, term.degs[0], term.v_num)
    value = products.get(key)
    if value is None:
        value = products[key] = \
            _i_y_factors(pair, term.degs[0], term.v_num, term.ring, z_min, z_max)
    return key, value


def _i_y_factors(pair: LGPair, k0: int, v_num, ring: SeriesRing,
                 z_min: int, z_max: int) -> ZLaurentSeries:
    """The k0 fiber factors times the ray factors of every j; v_j = v_num[j] / d.

    The fiber factors -d (lam + H) - l z and the numerator ray factors
    c_j H + level z go to ``_linear_product`` as linear factors, the
    denominator ray factors (c_j H + level z)^-1 as inverse factors, each
    ray factor over d with the level numerators of ``y_ray_levels``.
    """
    d = pair.fermat.degree
    linear = [(-d, -d, -l, 1) for l in range(k0)]
    inverse = []
    for cj, v in zip(pair.fermat.weights, v_num):
        numerator_levels, denominator_levels = y_ray_levels(v, d)
        linear += [(0, cj * d, level, d) for level in numerator_levels]
        inverse += [(cj * d, level, d) for level in denominator_levels]
    return _linear_product(ring, z_min, z_max, linear, inverse)


def i_function_y(pair: LGPair, orders: Orders) -> CohSeries:
    """The toric I-function of the canonical-bundle total space, in q.

    Supported on sectors with N_g > 0; carries the q^(H/tau) prefactor.
    The multidegree slot 0 is the exponent of q^(1/d).
    """
    return _i_function(pair, orders, "y", _i_y_product, "q^(1/d)")


# ---------------------------------------------------------------------------
# H-functions and the Gamma factorization
# ---------------------------------------------------------------------------

def _keyed_atoms(d: int, counts: dict) -> tuple[tuple, tuple]:
    """(key, atoms) of ``counts``, (weight, offset, h_weight) numerators
    over d -> exponent: key is its sorted items, which are equal exactly
    when the atoms are (over one d each atom has one set of numerators) and
    hash in integers, where an atoms tuple hashes each atom in Python."""
    return tuple(sorted(counts.items())), _atoms_key(d, counts)


def _x_atoms(pair: LGPair, term: IndexTerm, memo: dict) -> tuple[tuple, tuple]:
    """(key, Gamma atoms) of H^X at one index, as ``_keyed_atoms``.  They
    depend on r alone; ``memo`` keeps them per r for the span of one walk
    over the table."""
    found = memo.get(term.r_num)
    if found is None:
        d = pair.fermat.degree
        counts: dict = {}
        for cj, r in zip(pair.fermat.weights, term.r_num):
            parts = (cj * d, r, 0)
            counts[parts] = counts.get(parts, 0) - 1
        found = memo[term.r_num] = _keyed_atoms(d, counts)
    return found


def _y_atoms(pair: LGPair, term: IndexTerm, memo: dict) -> tuple[tuple, tuple]:
    """(key, Gamma atoms) of H^Y at one index, as ``_keyed_atoms``, kept
    per (k0, v) in ``memo`` for the span of one walk over the table."""
    key = (term.degs[0], term.v_num)
    found = memo.get(key)
    if found is None:
        d = pair.fermat.degree
        counts: dict = {(d * d, term.degs[0] * d, d * d): -1}
        for cj, v in zip(pair.fermat.weights, term.v_num):
            parts = (0, -v, -cj * d)
            counts[parts] = counts.get(parts, 0) - 1
        found = memo[key] = _keyed_atoms(d, counts)
    return found


def _atom_value(ring: SeriesRing, atoms: tuple, comb: Fraction) -> SectorValue:
    """The H closed form of one index: comb times the Gamma-atom monomial."""
    return SectorValue._unchecked(
        ring, {(0, 0, 0, atoms): Cyclotomic.from_rational(ring.order, comb)})


def _h_function(pair: LGPair, orders: Orders, side: str, atoms_of,
                variable: str) -> CohSeries:
    """The H-function of one side: comb times the Gamma atoms of
    ``atoms_of`` at every index of the side's table whose z^shift lies in
    the declared window.

    One closed-form value is built per (ring, atoms, comb) and shared by
    the terms that have it; the table's rings are shared per nilpotency, so
    the nilpotency stands for the ring, and the atoms' integer key stands
    for the atoms.  The terms are clean by construction.
    """
    pair.require_cy()
    pair.require_sl()
    z_min, z_max = orders.z_window
    terms: dict = {}
    memo: dict = {}
    values: dict = {}   # (nilpotency, atoms key, comb numerator, denominator) -> value
    for term in _index_tables(pair, orders)[side]:
        if not z_min <= term.shift <= z_max:
            continue
        ring, comb = term.ring, term.comb
        atoms_key, atoms = atoms_of(pair, term, memo)
        key = (ring.nilpotency, atoms_key, comb.numerator, comb.denominator)
        value = values.get(key)
        if value is None:
            value = values[key] = _atom_value(ring, atoms, comb)
        terms[(term.sector, term.shift, term.degs)] = value
    variables, tokens = _index_signature(pair, variable)
    return CohSeries._unchecked(side, pair, variables, orders, terms, tokens)


def h_function_x(pair: LGPair, orders: Orders) -> CohSeries:
    """H(t, t, z): Gamma denominators as atoms, age-shifted z-powers."""
    return _h_function(pair, orders, "x", _x_atoms, "t")


def h_function_y(pair: LGPair, orders: Orders) -> CohSeries:
    """H^Y before reflection: 1 / (Gamma(1-k0-d(lam+H)/tau) prod_j Gamma(...)).

    The Gamma(1 - d(lam+H)/tau) numerator of the displayed form belongs to
    the Gamma-class operator and is not stored here.
    """
    return _h_function(pair, orders, "y", _y_atoms, "q^(1/d)")


def h_factorization(pair: LGPair, series: CohSeries, side: str):
    """Split an I-function as z^(1-Gr) GammaClass tau^(deg0/2) H and verify.

    Returns (Gamma-class atoms per sector, H).  The verification pairs every
    atom of the Gamma class with an atom of H at an integer offset gap,
    re-expands each ratio through the polynomial rewrite and insists on an
    identically zero residual; the first bad coefficient is carried
    on the raised IdentityError.  The residual is formed once per (I product,
    Gamma-ratio blocks, z-offset) key, and a failing key names its first
    term's z and comb.  The stored I series is compared with comb times the
    I product in integers, without rebuilding the I value.  The H builder
    and the verification walk the side's index table at the series' orders,
    which ``_index_tables`` keeps with the other side's.
    """
    gamma = gamma_class_op(pair, side)
    build = h_function_x if side == "x" else h_function_y
    h_series = build(pair, series.orders)
    _verify_factorization(pair, side, series, h_series, gamma)
    return gamma, h_series


def _stored_counts(series: CohSeries) -> dict:
    """The number of stored keys per (sector, degree) in the declared window."""
    z_min, z_max = series.orders.z_window
    counts: dict = {}
    for sector, z, degs in series.terms:
        if z_min <= z <= z_max:
            counts[sector, degs] = counts.get((sector, degs), 0) + 1
    return counts


def _assert_is_clamp(series: CohSeries, counts: dict, term: IndexTerm,
                     product: ZLaurentSeries, fact: int, label: str):
    """The stored series must be the window clamp of the index's I product
    over the check's own ``fact`` times z^offset.

    Each stored coefficient at z + offset must lie in the product's ring and
    equal the product's coefficient at z over fact cell by cell, compared by
    cross-multiplying integer numerators and denominators; ``counts``, from
    ``_stored_counts``, then rules out a stored z that the product lacks.
    """
    z_min, z_max = series.orders.z_window
    ring, terms = product.ring, series.terms
    sector, degs, offset = term.sector, term.degs, term.offset
    found = 0
    for z, value in product.terms.items():
        z += offset
        if not z_min <= z <= z_max:
            continue
        found += 1
        stored = terms.get((sector, z, degs))
        if stored is None or stored.ring is not ring \
                or not _scaled_equals(stored, value, fact):
            break
    else:
        if counts.get((sector, degs), 0) == found:
            return
    raise IdentityError(f"{label}: stored series is not the declared clamp",
                        {"sector": list(sector), "degree": list(degs)})


def _scaled_equals(stored: SectorValue, value: SectorValue, fact: int) -> bool:
    """stored == value / fact, cell by cell, with each cell's numerators
    cross-multiplied by the other side's denominator in integers."""
    if len(stored.terms) != len(value.terms):
        return False
    cells = stored.terms
    for key, coeff in value.terms.items():
        cell = cells.get(key)
        if cell is None:
            return False
        left, right = coeff.den * fact, cell.den
        for x, y in zip(cell.nums, coeff.nums):
            if x * left != y * right:
                return False
    return True


def _assert_h_term(h_series: CohSeries, term: IndexTerm, atoms: tuple, fact: int):
    """The stored H term must be its closed form, the atoms monomial over
    the check's own ``fact`` in the index's ring, wherever the window keeps
    it: its one cell is compared with (atoms, 1/fact) directly, in integers,
    with no closed-form value built."""
    z_min, z_max = h_series.orders.z_window
    sector, shift, degs = term.sector, term.shift, term.degs
    if not z_min <= shift <= z_max:
        return
    stored = h_series.terms.get((sector, shift, degs))
    if stored is not None and stored.ring is term.ring and len(stored.terms) == 1:
        [(key, cell)] = stored.terms.items()
        nums = cell.nums
        if key == (0, 0, 0, atoms) and cell.den == fact \
                and nums[0] == 1 and not any(nums[1:]):
            return
    raise IdentityError("H-function term disagrees with its closed form",
                        {"sector": list(sector), "degree": list(degs)})


def _assert_no_residual(lhs: ZLaurentSeries, rhs: ZLaurentSeries, side: str,
                        sector, degs, comb: Fraction, offset: int):
    """The two sides of one factorization key must agree at every z.  They
    leave out the index's comb z^offset, which the witness puts back: it
    names the first bad z plus offset and both coefficients times comb."""
    if lhs != rhs:
        z_bad = min((lhs - rhs).terms)
        raise IdentityError(
            f"Gamma factorization residual on the {side} side",
            {"sector": list(sector), "z": z_bad + offset, "degree": list(degs),
             "left": str(lhs.coefficient(z_bad) * comb),
             "right": str(rhs.coefficient(z_bad) * comb)})


def _equals_shifted(lhs: ZLaurentSeries, block: ZLaurentSeries, delta: int) -> bool:
    """lhs == block.shift(delta), read in place: each term of ``block`` at
    z + delta inside the window must be lhs's term there, and lhs may have
    no other term.  No shifted series is built."""
    if lhs.ring is not block.ring or (lhs.z_min, lhs.z_max) != (block.z_min, block.z_max):
        return False
    z_min, z_max, terms = lhs.z_min, lhs.z_max, lhs.terms
    found = 0
    for z, value in block.terms.items():
        z += delta
        if z_min <= z <= z_max:
            stored = terms.get(z)
            if stored is None or stored.ring is not value.ring or stored.terms != value.terms:
                return False
            found += 1
    return found == len(terms)


def _gamma_ratio_blocks(gamma_atoms: tuple, h_atoms: tuple, ring: SeriesRing,
                        window: tuple[int, int], sector, degs, memo: dict):
    """(I block, operator block) of one pairing of Gamma-class and H atoms.

    Each Gamma-class atom g pairs with an H atom h of the same weights whose
    offset is larger by an integer n.  Gamma(g) / Gamma(h) is z^-n times n
    linear factors from the lower of the two offsets on: a ratio of the
    operator block for n > 0, while for n < 0 the inverse ratio belongs to
    the I block.  Each block is one ``gamma_shift_product`` call over its
    ratios; the I block is None when it has none, so no I value is
    multiplied by 1.  An atom left unpaired on either side raises.

    The pairing reads each atom's integer numerators, brought over the
    common denominator ``den`` of all the atoms: weights match when their
    numerators do, and the gap is an integer n when the offset numerators
    differ by n den.  Each ratio goes to ``gamma_shift_product`` as its
    integers (q, weight, h_weight, base, steps), in lowest terms over q, and
    ``memo`` keeps each block per (ring, those integers) for the span of one
    walk.
    """
    den = lcm(*(atom.den for atom, _ in gamma_atoms + h_atoms))

    def over_den(atom):
        scale = den // atom.den
        weight, offset, h_weight = atom.nums
        return (weight * scale, h_weight * scale), offset * scale

    # H atom -> [weights, offset numerator, copies left]
    pool = {h: [*over_den(h), -exp] for h, exp in h_atoms}
    unpaired, i_shifts, shifts = [], [], []
    for atom, exp in gamma_atoms:
        weights, offset = over_den(atom)
        for _ in range(exp):
            partner = next((h for h, (h_weights, h_offset, left) in pool.items()
                            if left > 0 and h_weights == weights
                            and (h_offset - offset) % den == 0), None)
            if partner is None:
                unpaired.append(atom)
                continue
            entry = pool[partner]
            entry[2] -= 1
            n = (entry[1] - offset) // den
            if n:
                # the weights and the lower offset over one denominator q,
                # in lowest terms, so that equal ratios have equal integers
                parts = (*weights, min(offset, entry[1]))
                g = gcd(den, *parts)
                ratio = (den // g, *(x // g for x in parts), abs(n))
                (shifts if n > 0 else i_shifts).append(ratio)
    unpaired += [h for h, (_, _, left) in pool.items() if left]
    if unpaired:
        raise IdentityError("Gamma atom left unpaired by the integer-gap rewrite",
                            {"sector": list(sector), "degree": list(degs),
                             "atom": str(unpaired[0])})

    def block(ratios):
        key = (ring, tuple(ratios))
        found = memo.get(key)
        if found is None:
            found = memo[key] = gamma_shift_product(ratios, ring, *window)
        return found

    return (block(i_shifts) if i_shifts else None), block(shifts)


def _verify_factorization(pair: LGPair, side: str, i_series: CohSeries,
                          h_series: CohSeries, gamma):
    """Per-term check I = z^(1-Gr) GammaClass tau^(deg0/2) H on one side,
    over the side's index table at the orders of ``i_series``.

    The I side is the index's product (``_i_x_product`` or ``_i_y_product``)
    on ``_wide_window``, so clamping cannot mask a residual, times comb
    z^offset; the operator side is built from the Gamma-class atoms
    ``gamma[sector]`` and the H atoms alone: each Gamma/H atom ratio is
    re-expanded by ``_gamma_ratio_blocks``, and I times the I block must equal
    z^(1 - age) times the operator block and H's coefficient.

    Each term runs three checks, in this order:

    * the stored I series is the clamp of its closed form, compared in
      integers against the product without rebuilding the I value
      (``_assert_is_clamp``);
    * the stored H term is its closed form (``_assert_h_term``);
    * the residual.  comb and z^offset are common to both sides, so with
      delta = (shift + 1 - age) - offset the identity reads product times
      I block = operator block times z^delta.  That depends only on
      (product key, (sector, H atoms), delta), so each key is formed once
      from ``ZLaurentSeries`` products and kept once it has passed.  The
      operator block is read at z + delta in place (``_equals_shifted``),
      with the window clamp of ``ZLaurentSeries.shift``; only a failing key
      builds the shifted block, and raises through ``_assert_no_residual``
      with the term's comb and offset, which name the witness.

    The first two read comb as 1/fact, fact the check's own factorial
    product of ``term.degs`` (all of it on X, all but k0 on Y), not the
    table's comb, so a wrong table comb fails there.  The I products are
    kept per walk as the I builder keeps them, the H atoms in a memo of this
    walk, and both blocks per (sector, H atoms), the atoms named by their
    integer key, which fixes everything the pairing reads; each distinct
    block is one ``gamma_shift_product`` call of this walk.  offset, shift and age are the table's, and its comb
    names a residual's witness.
    """
    if side == "x":
        product_of, atoms_of, first = _i_x_product, _x_atoms, 0
    else:
        product_of, atoms_of, first = _i_y_product, _y_atoms, 1
    window = _wide_window(i_series.orders, pair)
    label = f"I^{side.upper()}"
    counts = _stored_counts(i_series)
    i_products: dict = {}
    blocks: dict = {}
    shift_blocks: dict = {}
    passed: set = set()
    memo: dict = {}
    for term in _index_tables(pair, i_series.orders)[side]:
        sector = term.sector
        atoms_key, atoms = atoms_of(pair, term, memo)

        product_key, product = product_of(pair, term, *window, i_products)
        fact = prod(map(factorial, term.degs[first:]))
        _assert_is_clamp(i_series, counts, term, product, fact, label)
        _assert_h_term(h_series, term, atoms, fact)

        block_key = (sector, atoms_key)
        if block_key not in blocks:
            blocks[block_key] = _gamma_ratio_blocks(gamma[sector], atoms, term.ring, window,
                                                    sector, term.degs, shift_blocks)
        delta = term.shift + 1 - term.age - term.offset
        key = (product_key, block_key, delta)
        if key not in passed:
            i_block, block = blocks[block_key]
            lhs = product if i_block is None else product * i_block
            if not _equals_shifted(lhs, block, delta):
                _assert_no_residual(lhs, block.shift(delta), side.upper(), sector,
                                    term.degs, term.comb, term.offset)
            passed.add(key)


# ---------------------------------------------------------------------------
# the continued series H^Y'
# ---------------------------------------------------------------------------

def h_continued(pair: LGPair, orders: Orders) -> CohSeries:
    """The analytic continuation H^Y' as a closed-form t-series.

    t^(d lam/tau) sum_k prod (t^{g_s})^{k_s} z^{(age-1)k_s} / k_s! *
    sum_m t^m/(m! prod_j Gamma-atom) *
    sum_b [(e^{d(lam+H)}-1) / (d(e^{lam+H} xi^{b+m}-1))] on 1~_{j^{-b}} prod g_s^{k_s};
    the block with xi^{b+m} = 1 is the geometric sum; ``ubar_block`` keeps the blocks.
    It walks the X index table, whose shift is the z-power (age - 1) k and
    whose comb is 1/(m! k!); a non-SL pair is refused.
    Each sheet's sector is the table's base minus b j, reduced mod d/c_j in
    integers, and its N_g the count of its zero exponents.
    """
    pair.require_cy()
    pair.require_sl()
    d, exponents = pair.fermat.degree, pair.fermat.exponents
    grading = pair.grading.exps
    terms: dict = {}
    atom_memo: dict = {}
    for term in _index_tables(pair, orders)["x"]:
        _, atoms = _x_atoms(pair, term, atom_memo)
        for b in range(d):
            sector = tuple([(e - b * j) % m for e, j, m in zip(term.base, grading, exponents)])
            n_g = sector.count(0)
            if n_g == 0:
                continue
            ring = SeriesRing(d, orders.lam_order, n_g)
            terms[(sector, term.shift, term.degs)] = \
                ubar_block(pair, b + term.degs[0], ring).scale_atoms(atoms) * term.comb
    variables, tokens = _index_signature(pair, "t")
    return CohSeries("y", pair, variables, orders, terms, tokens)


def gamma_pole_residue(m: int, b: int, d: int) -> Fraction | None:
    """The residue of Gamma(ds + b + d(lam+H)/tau) at its m-th pole, which
    the residue lemma states is (-1)^m / (d m!); None if the derived pole
    is not where the argument is -m.

    Derivation is symbolic: the pole sits where the argument is -m; the
    functional equation Gamma(x) = Gamma(x+1)/x applied m+1 times exposes a
    simple pole with residue 1/((-1)^m m!) in the argument, and the
    reparameterization s -> argument contributes a Jacobian 1/d.
    """
    if m < 0 or not 0 <= b < d:
        raise ValueError("need m >= 0 and 0 <= b < d")
    # pole location: ds + b + d*u = -m at s = -u - (b+m)/d, with u = (lam+H)/tau.
    s_u, s_const = Fraction(-1), Fraction(-(b + m), d)
    arg_u = d * s_u + d          # coefficient of u in the argument
    arg_const = d * s_const + b  # constant part of the argument
    if arg_u != 0 or arg_const != -m:
        return None
    # Gamma(-m + y) = Gamma(1 + y) / prod_{i=0}^{m} (y - m + i); residue in y:
    denom = Fraction(1)
    for i in range(m):
        denom *= (i - m)
    residue_y = Fraction(1) / denom  # = (-1)^m / m!
    return residue_y / d             # y = d * (s - s0)


# ---------------------------------------------------------------------------
# the FJRW I-function
# ---------------------------------------------------------------------------

def z_ddt_distinguished(series: CohSeries) -> CohSeries:
    """z d/dt of a t^(d lam/tau)-dressed series, prefactor term retained."""
    return series.z_ddt_var(0, prefactor_lam_multiple=series.pair.fermat.degree)


def assert_lambda_divisibility(series: CohSeries) -> None:
    """Every positive-dimensional sector coefficient of z d/dt I^X must carry
    lam^{N_g}; the degree -1 slice (prefactor derivative) carries lam^1.
    The witness is the first failing key in sorted order."""
    for (exps, z, degs), value in sorted(series.terms.items()):
        n_g = GroupElement(series.pair.fermat, exps).fixed_dim()
        required = 1 if degs[0] < 0 else n_g
        if n_g > 0 and value.lambda_valuation() < required:
            raise IdentityError(
                "lambda divisibility failure",
                {"kind": "lambda-divisibility",
                 "sector": list(exps), "z": z, "degree": list(degs),
                 "required": required, "found": value.lambda_valuation()})


def fjrw_limit(pair: LGPair, derivative: CohSeries) -> CohSeries:
    """Delta-circ of lim_{lam->0} of z d/dt I^X, checked on both ends.

    The limit exists because every N_g > 0 coefficient is divisible by
    lam^{N_g}, which is asserted first; the result is asserted to be
    narrow-supported; each witness is the first failing key in sorted order.
    """
    assert_lambda_divisibility(derivative)
    result = delta_circ(pair).apply(derivative.nonequivariant_limit())
    for (exps, _, _) in sorted(result.terms):
        if not pair.is_narrow(GroupElement(pair.fermat, exps)):
            raise IdentityError("FJRW output not narrow-supported",
                                {"kind": "narrow-support", "sector": list(exps)})
    return result


def fjrw_i_function(pair: LGPair, orders: Orders) -> CohSeries:
    """The FJRW I-function: ``fjrw_limit`` of z d/dt I^X at ``orders``."""
    pair.require_sl()
    return fjrw_limit(pair, z_ddt_distinguished(i_function_x(pair, orders)))


# ---------------------------------------------------------------------------
# serialization (structured text with display strings)
# ---------------------------------------------------------------------------

def _atom_to_json(atom: GammaAtom) -> list:
    return [str(atom.weight), str(atom.h_weight), str(atom.offset)]

def _atom_from_json(data) -> GammaAtom:
    """The shared atom of a JSON triple [weight, h_weight, offset]."""
    weight, h_weight, offset = (Fraction(x) for x in data)
    den = lcm(weight.denominator, offset.denominator, h_weight.denominator)
    return GammaAtom.over(den, int(weight * den), int(offset * den), int(h_weight * den))


def _value_to_json(value: SectorValue) -> dict:
    monomials = []
    for (lam, h, tau, atoms) in sorted(value.terms):
        coeff = value.terms[(lam, h, tau, atoms)]
        monomials.append({
            "lam": lam, "h": h, "tau": tau,
            "atoms": [[_atom_to_json(a), e] for a, e in atoms],
            "coeff": [str(c) for c in coeff.coeffs],
        })
    return {"display": str(value), "monomials": monomials}


def _value_from_json(data: dict, ring: SeriesRing) -> SectorValue:
    terms = {}
    for mono in data["monomials"]:
        atoms = tuple(sorted((_atom_from_json(a), int(e)) for a, e in mono["atoms"]))
        coeff = Cyclotomic(ring.order, tuple(Fraction(c) for c in mono["coeff"]))
        terms[(mono["lam"], mono["h"], mono["tau"], atoms)] = coeff
    return SectorValue(ring, terms)


def serialize_series(series: CohSeries) -> dict:
    """Structured-text dump: {sector, z-exp, t-multidegree} -> coefficient."""
    return {
        "side": series.side,
        "c_twist": series.c_twist,
        "pair": pair_to_dict(series.pair),
        "orders": series.orders.as_dict(),
        "tokens": [[name, exp] for name, exp in series.tokens],
        "variables": [list(v) if isinstance(v, tuple) else v
                      for v in series.variables],
        "terms": [
            {"sector": list(exps), "z": z, "degree": list(degs),
             "value": _value_to_json(value)}
            for (exps, z, degs), value in sorted(series.terms.items())
        ],
    }


def deserialize_series(data: dict) -> CohSeries:
    pair = load_pair(data["pair"])
    orders = Orders(t_order=data["orders"]["T"], lam_order=data["orders"]["lambda"],
                    z_min=data["orders"]["zWindow"][0],
                    z_max=data["orders"]["zWindow"][1])
    variables = tuple(tuple(v) if isinstance(v, list) else v
                      for v in data["variables"])
    terms = {}
    for item in data["terms"]:
        exps, degs = tuple(item["sector"]), tuple(item["degree"])
        pair.element(exps)   # refuses a sector outside the pair's group
        if len(degs) != len(variables):
            raise ValueError(f"degree {list(degs)} needs one entry per variable")
        ring = SeriesRing(pair.fermat.degree, orders.lam_order,
                          _sector_nilpotency(data["side"], pair, exps))
        terms[(exps, item["z"], degs)] = _value_from_json(item["value"], ring)
    return CohSeries(data["side"], pair, variables, orders, terms,
                     tuple((n, e) for n, e in data["tokens"]),
                     c_twist=data["c_twist"])
