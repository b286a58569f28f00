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
from itertools import islice
from math import factorial, gcd, lcm, prod
from operator import add, mul, sub
from typing import NamedTuple

from .exactalg import (
    Cyclotomic,
    SectorValue,
    SeriesRing,
    ZLaurentSeries,
    _atoms_key,
    _linear_product,
    _reciprocal,
    gamma_shift_product,
)
from .cohseries import CohSeries, Orders, TOKEN_Q_H, TOKEN_T_LAMBDA
from .lgmodel import LGPair, pair_to_dict
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
]


class IdentityError(AssertionError):
    """A termwise identity failed to verify; ``witness`` names where."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# the untwisted J-function and its psi-integral oracle
# ---------------------------------------------------------------------------

def _powers(times, g: int, top: int) -> list[int]:
    """The positions of g^0, g^1, ..., g^top in the product table ``times``,
    g a position too: each a lookup from the one before."""
    powers = [0]
    for _ in range(top):
        powers.append(times[powers[-1]][g])
    return powers


def _level_walk(times, coordinates, rows):
    """The multidegrees over len(coordinates) variables, one level per total
    0, 1, 2, ..., each a list of (degs, last, sector, fact, sums) in
    lexicographic order of degs.

    Variable i stands for the element g_i at position coordinates[i] of the
    product table ``times``; sector is the position of prod_i g_i^degs_i and
    fact = prod_i degs_i!.  sums = sum_i degs_i rows[i] is an integer tuple,
    carried only when ``rows`` is not None (else None).  The walk starts at
    the identity, position 0 since a group's elements are sorted by exponent
    tuple.  Each multidegree of total t + 1 is its parent of total t with one
    more unit at a variable i from the last back to the parent's last
    nonzero one (last), so each comes once and in order; its fact is the
    parent's times the raised exponent, and its sector one lookup,
    times[parent's sector][coordinates[i]].  A level is built only when the
    caller asks for it.
    """
    n = len(coordinates)
    level = [((0,) * n, 0, 0, 1, None if rows is None else (0,) * len(rows[0]))]
    while True:
        yield level
        children = []
        append = children.append
        for degs, last, sector, fact, sums in level:
            row = times[sector]
            for i in range(n - 1, last - 1, -1):
                child = list(degs)
                k = child[i] = child[i] + 1
                append((tuple(child), i, row[coordinates[i]], fact * k,
                        None if rows is None else tuple(map(add, sums, rows[i]))))
        level = children


@lru_cache(maxsize=1)
def _j_classes(pair: LGPair, orders: Orders) -> tuple:
    """Per total 0..T, its multidegrees over the group elements grouped by
    their sector prod g^a: a tuple of classes, each a tuple of members
    (degs, fact, sector) in walk order, sector being the exponent tuple of
    the member's own product, read from the group's product table and
    shared by its class; empty where z = 1 - total is outside the z-window.

    The one walk under both J routes, kept for the last (pair object,
    orders); it stops at the last total the window keeps.  The closed J
    writes each member under its own sector, the oracle reads only the
    grouping, so a member in the wrong class splits them.  Over the rows
    g j^c the products move by j^(c total), one translation per total, so
    the classes hold at every twist c.
    """
    z_min, z_max = orders.z_window
    elements = tuple(g.exps for g in pair.group.elements)
    # the totals whose z = 1 - total the window keeps; no level above them is built
    kept = range(max(0, 1 - z_max), min(orders.t_order, 1 - z_min) + 1)
    table = [()] * (orders.t_order + 1)
    walk = _level_walk(pair.group.times, range(len(elements)), None)
    for total, level in enumerate(islice(walk, kept.stop if kept else 0)):
        if total in kept:
            classes: dict = {}
            for degs, _, sector, fact, _ in level:
                classes.setdefault(sector, []).append((degs, fact, elements[sector]))
            table[total] = tuple(map(tuple, classes.values()))
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
    member of ``_j_classes`` written under its own sector, the exponent tuple
    of its product prod g^a read from the group's product table.

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
    """Genus-zero psi-integral over the moduli of stable curves, at
    exponents a_1..a_n of the moduli's dimension, sum a_i = n - 3, the only
    ones the J assembly asks for; others raise ValueError.

    Computed by the string-equation recursion, never by the closed form
    (n-3)!/prod a_i!, so it can serve as an independent oracle for it.
    """
    n = len(exponents)
    if n < 3 or sum(exponents) != n - 3:
        raise ValueError("need n >= 3 marked points and exponents summing to n - 3")
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
    """One index (k0, k) with k0 + sum(k) <= T, its integers and its atoms.

    degs = (k0,) + k, so k0 is degs[0].  base, the exponent tuple of
    prod_s g_s^{k_s}, and sector, that of the index's sector on the table's
    side, are group elements' exponent tuples read from the group's product
    table, not reduced per index.  fact and offset are the side's factorial,
    whose inverse every coefficient of the index carries, and I z-power:
    k0! prod_s k_s! and 1 - k0 - sum k on X, prod_s k_s! and 1 - sum k on Y.
    r_j = k0 c_j / d + a(k)^j and v_j = k0 c_j / d - a(k)^j are carried as
    their integer numerators over d: r_num and v_num.
    shift = sum_s (age(g_s) - 1) k_s is the H z-power and age the age of
    ``sector``; both are None on a non-SL pair, whose z-grading
    ``LGPair.require_sl`` refuses.  ``ring`` is the ring of the index's
    coefficients on the table's side.  atoms are the Gamma atoms of the
    side's H coefficient, which depend on r alone on X and on (k0, v) on Y,
    and atoms_key names them in integers, as ``_keyed_atoms``.
    """

    degs: tuple[int, ...]
    base: tuple[int, ...]
    fact: int
    offset: int
    r_num: tuple[int, ...]
    v_num: tuple[int, ...]
    shift: int | None
    age: int | None
    sector: tuple[int, ...]
    ring: SeriesRing
    atoms_key: tuple
    atoms: tuple


@lru_cache(maxsize=1)
def _index_tables(pair: LGPair, orders: Orders) -> dict:
    """{"x": X table, "y": Y table, "rings": Y rings}: the IndexTerm of every
    (k0, k) on each side, by total degree, then lexicographic, from one level
    walk, and the ring of each element's Y sector, by position.

    On side "x" an index lives on the sector j^k0 base, in nilpotency 1; on
    side "y" it lives on j^-k0 base, in nilpotency N_g, and indices whose
    sector has N_g = 0 are skipped.  The walk runs over the identity for k0
    and the positive-dimensional sectors g_s, so its sector is base; j^+-k0
    base and each sector's age and N_g come from the group's product table
    and per-element lists.  The walk also carries integer sums over one row
    per g_s: its exponents times the weights c_j, then the column d age(g_s)
    - d.  They give r_j, v_j = (k0 c_j +- sums_j) / d, one integer map each,
    and, in the last column, d shift.
    base, r_num, v_num and shift are the same on both sides, so a Y term
    shares them with the X term of its multidegree.

    This is the one place that computes an index's integers and Gamma
    atoms; every I/H walk reads its side's table here.  The atoms come from
    ``_x_atoms`` once per distinct r and from ``_y_atoms`` once per distinct
    (k0, v), and the terms that have them share them.  Sectors and bases are
    exponent tuples, one shared tuple per group element, and the tables
    share one interned ring per nilpotency.  The last pair of tables is kept
    per (pair object, orders); no identity compares an X-table output with a
    Y-table output, and what each walk derives from a table (I products,
    Gamma shifts) stays per walk.
    """
    sectors = pair.positive_dim_sectors()
    weights, d = pair.fermat.weights, pair.fermat.degree
    elements = tuple(g.exps for g in pair.group.elements)
    times, position = pair.group.times, pair.group.position
    graded = pair.is_sl
    ages = [sum(e * c for e, c in zip(exps, weights)) // d if graded else None
            for exps in elements]
    y_rings = [SeriesRing(d, orders.lam_order, exps.count(0)) if 0 in exps else None
               for exps in elements]
    # the positions of j^k and j^-k, k = 0..T
    j = position[pair.grading.exps]
    up = _powers(times, j, orders.t_order)
    down = _powers(times, times[j].index(0), orders.t_order)
    # the age column is last, so a map over the weights reads the weighted
    # exponent sums alone
    rows = [(0,) * (len(weights) + 1)] + \
        [tuple(map(mul, g.exps, weights)) + (sum(map(mul, g.exps, weights)) - d,)
         for g in sectors]
    k0_weights = [tuple(k0 * cj for cj in weights) for k0 in range(orders.t_order + 1)]
    coordinates = [0] + [position[g.exps] for g in sectors]
    x_ring = SeriesRing(d, orders.lam_order, 1)
    x_atoms: dict = {}   # r -> (key, atoms) of H^X
    y_atoms: dict = {}   # (k0, v) -> (key, atoms) of H^Y
    x_table, y_table = [], []
    for total, level in enumerate(islice(_level_walk(times, coordinates, rows),
                                         orders.t_order + 1)):
        for degs, _, base, fact, sums in level:
            k0 = degs[0]
            x_sector, y_sector = times[base][up[k0]], times[base][down[k0]]
            r_num = tuple(map(add, k0_weights[k0], sums))
            v_num = tuple(map(sub, k0_weights[k0], sums))
            shift = sums[-1] // d if graded else None
            atoms = x_atoms.get(r_num)
            if atoms is None:
                atoms = x_atoms[r_num] = _x_atoms(pair, r_num)
            x_table.append(IndexTerm(degs, elements[base], fact, 1 - total, r_num, v_num,
                                     shift, ages[x_sector], elements[x_sector], x_ring, *atoms))
            y_ring = y_rings[y_sector]
            if y_ring is None:
                continue   # a Y index on a sector with N_g = 0
            atoms = y_atoms.get((k0, v_num))
            if atoms is None:
                atoms = y_atoms[k0, v_num] = _y_atoms(pair, k0, v_num)
            y_table.append(IndexTerm(degs, elements[base], fact // factorial(k0),
                                     1 - total + k0, r_num, v_num, shift, ages[y_sector],
                                     elements[y_sector], y_ring, *atoms))
    return {"x": tuple(x_table), "y": tuple(y_table), "rings": y_rings}


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
    """(r, M(k0, k)): the I^X coefficient of one index is M(k0, k) over the
    table's fact times z^offset.

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
    nothing: they write each z + offset of the product over fact straight
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
    product of ``product_of`` on ``_wide_window`` over the table's fact,
    one key per z at z + offset inside the declared window.

    The product over fact is formed once per (product key, fact), fact
    handed to ``exactalg`` as its integer.  Its nonzero values go straight
    into the series' terms, which are clean by construction.
    """
    pair.require_cy()
    window = _wide_window(orders, pair)
    z_min, z_max = orders.z_window
    terms: dict = {}
    products: dict = {}
    scaled: dict = {}   # (product key, fact) -> product / fact
    for term in _index_tables(pair, orders)[side]:
        key, product = product_of(pair, term, *window, products)
        scaled_key = (key, term.fact)
        value = scaled.get(scaled_key)
        if value is None:
            value = scaled[scaled_key] = product * _reciprocal(term.fact)
        sector, degs, offset = term.sector, term.degs, term.offset
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
    fiber factors times the ray factors of every j, over the table's fact
    times z^offset.

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
    hash in integers, where an atoms tuple hashes each atom in Python; the
    atoms are built from the key."""
    key = tuple(sorted(counts.items()))
    return key, _atoms_key(d, key)


def _x_atoms(pair: LGPair, r_num) -> tuple[tuple, tuple]:
    """(key, Gamma atoms) of H^X at an index of r_j = r_num[j] / d, as
    ``_keyed_atoms``."""
    d = pair.fermat.degree
    counts: dict = {}
    for cj, r in zip(pair.fermat.weights, r_num):
        parts = (cj * d, r, 0)
        counts[parts] = counts.get(parts, 0) - 1
    return _keyed_atoms(d, counts)


def _y_atoms(pair: LGPair, k0: int, v_num) -> tuple[tuple, tuple]:
    """(key, Gamma atoms) of H^Y at an index of k0 and v_j = v_num[j] / d,
    as ``_keyed_atoms``."""
    d = pair.fermat.degree
    counts: dict = {(d * d, k0 * d, d * d): -1}
    for cj, v in zip(pair.fermat.weights, v_num):
        parts = (0, -v, -cj * d)
        counts[parts] = counts.get(parts, 0) - 1
    return _keyed_atoms(d, counts)


def _h_function(pair: LGPair, orders: Orders, side: str, variable: str) -> CohSeries:
    """The H-function of one side: the table's Gamma atoms over its fact at
    every index of the side's table whose z^shift lies in the declared
    window.

    One closed-form value, the Gamma-atom monomial over fact, is built per
    (ring, atoms, fact) and shared by the terms that have it; the table's
    rings are shared per nilpotency, so the nilpotency stands for the ring
    and the atoms' integer key for the atoms.  Each fact becomes one
    rational cell per walk.  The terms are clean by construction.
    """
    pair.require_cy()
    pair.require_sl()
    z_min, z_max = orders.z_window
    terms: dict = {}
    cells: dict = {}    # fact -> 1/fact as a cell
    values: dict = {}   # (nilpotency, atoms key, fact) -> value
    for term in _index_tables(pair, orders)[side]:
        if not z_min <= term.shift <= z_max:
            continue
        ring, fact = term.ring, term.fact
        key = (ring.nilpotency, term.atoms_key, fact)
        value = values.get(key)
        if value is None:
            cell = cells.get(fact)
            if cell is None:
                cell = cells[fact] = Cyclotomic.from_rational(ring.order, _reciprocal(fact))
            value = values[key] = SectorValue._unchecked(ring, {(0, 0, 0, term.atoms): cell})
        terms[(term.sector, term.shift, term.degs)] = value
    variables, tokens = _index_signature(pair, variable)
    return CohSeries._unchecked(side, pair, variables, orders, terms, tokens)


def h_function_x(pair: LGPair, orders: Orders) -> CohSeries:
    """H(t, t, z): Gamma denominators as atoms, age-shifted z-powers."""
    return _h_function(pair, orders, "x", "t")


def h_function_y(pair: LGPair, orders: Orders) -> CohSeries:
    """H^Y before reflection: 1 / (Gamma(1-k0-d(lam+H)/tau) prod_j Gamma(...)).

    The Gamma(1 - d(lam+H)/tau) numerator of the displayed form belongs to
    the Gamma-class operator and is not stored here.
    """
    return _h_function(pair, orders, "y", "q^(1/d)")


def h_factorization(pair: LGPair, series: CohSeries, side: str):
    """Split an I-function as z^(1-Gr) GammaClass tau^(deg0/2) H and verify.

    Returns (Gamma-class atoms per sector, H).  The verification pairs every
    atom of the Gamma class with an atom of H at an integer offset gap,
    re-expands each ratio through the polynomial rewrite and insists on an
    identically zero residual; the first bad coefficient is carried
    on the raised IdentityError.  The residual is formed once per (I product,
    Gamma-ratio blocks, z-offset) key, and a failing key names its first
    term's z and coefficients.  The stored I series is compared with the I
    product over fact in integers, without rebuilding the I value.  The H
    builder and the verification walk the side's index table at the series'
    orders, which ``_index_tables`` keeps with the other side's.
    """
    gamma = gamma_class_op(pair, side)
    build = h_function_x if side == "x" else h_function_y
    h_series = build(pair, series.orders)
    _verify_factorization(pair, side, series, h_series, gamma)
    return gamma, h_series


def _assert_is_clamp(terms: dict, window: tuple[int, int], term: IndexTerm,
                     product: ZLaurentSeries, fact: int, message: str) -> int:
    """The stored I ``terms`` of the index must be the ``window`` clamp of
    its I product over the check's own ``fact`` times z^offset; returns the
    number of stored keys this matched.

    Each stored coefficient at z + offset must lie in the product's ring, on
    the product's monomials at z, and equal the product's coefficient there
    over fact cell by cell: each cell's numerators are cross-multiplied by
    the other side's denominator in integers.  A stored z that the product
    lacks is one the walk's count of matched keys leaves out.
    """
    z_min, z_max = window
    ring = product.ring
    sector, degs, offset = term.sector, term.degs, term.offset
    found = 0
    for z, value in product.terms.items():
        z += offset
        if not z_min <= z <= z_max:
            continue
        stored = terms.get((sector, z, degs))
        equal = stored is not None and stored.ring is ring \
            and stored.terms.keys() == value.terms.keys()
        if equal:
            cells = stored.terms
            for key, coeff in value.terms.items():
                cell = cells[key]
                left, right = coeff.den * fact, cell.den
                for x, y in zip(cell.nums, coeff.nums):
                    if x * left != y * right:
                        equal = False
        if not equal:
            break
        found += 1
    else:
        return found
    raise IdentityError(message, {"sector": list(sector), "degree": list(degs)})


_H_TERM_MESSAGE = "H-function term disagrees with its closed form"


def _assert_h_term(terms: dict, window: tuple[int, int], term: IndexTerm, atoms: tuple,
                   fact: int) -> int:
    """The stored H term must be its closed form, the atoms monomial over
    the check's own ``fact`` in the index's ring, wherever ``window`` keeps
    it: its one cell is compared with (atoms, 1/fact) directly, in integers,
    with no closed-form value built.  Returns the number of stored keys this
    matched, 1 or 0."""
    z_min, z_max = window
    sector, shift, degs = term.sector, term.shift, term.degs
    if not z_min <= shift <= z_max:
        return 0
    stored = terms.get((sector, shift, degs))
    if stored is not None and stored.ring is term.ring and len(stored.terms) == 1:
        [(key, cell)] = stored.terms.items()
        nums = cell.nums
        if key == (0, 0, 0, atoms) and cell.den == fact \
                and nums[0] == 1 and not any(nums[1:]):
            return 1
    raise IdentityError(_H_TERM_MESSAGE, {"sector": list(sector), "degree": list(degs)})


def _least_unread(terms: dict, read: set) -> dict:
    """The witness of a stored key no index reads: the sector and degree of
    the least key of ``terms`` outside ``read``."""
    sector, _, degs = min(key for key in terms if key not in read)
    return {"sector": list(sector), "degree": list(degs)}


def _assert_no_residual(lhs: ZLaurentSeries, block: ZLaurentSeries, delta: int,
                        side: str, term: IndexTerm):
    """lhs == block times z^delta inside lhs's window, read in place: each
    term of ``block`` at z + delta in the window must be lhs's term there,
    and lhs may have no other term.  No shifted or difference series is
    built.  Both sides leave out the index's z^offset / fact, which a
    failing key's witness puts back: from the same read it names the first
    bad z plus offset and both coefficients there over the table's fact."""
    z_min, z_max, terms = lhs.z_min, lhs.z_max, lhs.terms
    kept = [(z + delta, value) for z, value in block.terms.items()
            if z_min <= z + delta <= z_max]
    bad = [z for z, value in kept if terms.get(z) != value]
    if not bad and len(kept) == len(terms):
        return
    bad += [z for z in terms if z - delta not in block.terms]
    z_bad, zero = min(bad), lhs.ring.zero()
    raise IdentityError(
        f"Gamma factorization residual on the {side} side",
        {"sector": list(term.sector), "z": z_bad + term.offset, "degree": list(term.degs),
         "left": str(terms.get(z_bad, zero) * _reciprocal(term.fact)),
         "right": str(block.terms.get(z_bad - delta, zero) * _reciprocal(term.fact))})


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
    walk, the ring named by its nilpotency: a walk's rings share their order
    and lam-order.
    """
    den = lcm(*(atom.den for atom, _ in gamma_atoms + h_atoms))

    def over_den(atom):
        scale = den // atom.den
        weight, offset, h_weight = atom.nums
        return (weight * scale, h_weight * scale), offset * scale

    # H atom -> [H atom, weights, offset numerator, copies left]
    pool = {h: [h, *over_den(h), -exp] for h, exp in h_atoms}
    i_shifts, shifts = [], []
    for atom, exp in gamma_atoms:
        weights, offset = over_den(atom)
        for _ in range(exp):
            for entry in pool.values():
                _, h_weights, h_offset, left = entry
                if left > 0 and h_weights == weights and (h_offset - offset) % den == 0:
                    break
            else:
                raise IdentityError("Gamma atom left unpaired by the integer-gap rewrite",
                                    {"sector": list(sector), "degree": list(degs),
                                     "atom": str(atom)})
            entry[3] -= 1
            n = (h_offset - offset) // den
            if n:
                # the weights and the lower offset over one denominator q,
                # in lowest terms, so that equal ratios have equal integers
                weight, h_weight = weights
                base = min(offset, h_offset)
                g = gcd(den, weight, h_weight, base)
                (shifts if n > 0 else i_shifts).append(
                    (den // g, weight // g, h_weight // g, base // g, abs(n)))
    unpaired = [h for h, _, _, left in pool.values() if left]
    if unpaired:
        raise IdentityError("Gamma atom left unpaired by the integer-gap rewrite",
                            {"sector": list(sector), "degree": list(degs),
                             "atom": str(unpaired[0])})

    def block(ratios):
        key = (ring.nilpotency, tuple(ratios))
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
    on ``_wide_window``, so clamping cannot mask a residual, times z^offset
    over fact; the operator side is built from the Gamma-class atoms
    ``gamma[sector]`` and the table's H atoms alone: each Gamma/H atom ratio
    is re-expanded by ``_gamma_ratio_blocks``, and I times the I block must
    equal z^(1 - age) times the operator block and H's coefficient.

    Each term runs three checks, in this order:

    * the stored I series is the clamp of its closed form, compared in
      integers against the product without rebuilding the I value
      (``_assert_is_clamp``);
    * the stored H term is its closed form (``_assert_h_term``);
    * the residual.  1/fact and z^offset are common to both sides, so with
      delta = (shift + 1 - age) - offset the identity reads product times
      I block = operator block times z^delta.  That depends only on
      (product key, (sector, H atoms), delta), so each key is formed once
      from ``ZLaurentSeries`` products and kept once it has passed, as a
      (product key, delta) of its blocks' entry.
      ``_assert_no_residual`` reads the operator block at z + delta in
      place, inside the product's window, and a failing key raises from that
      same read with the term's fact and offset, which name the witness.

    The first two read each series' z-window once per walk and count the
    stored keys they match.  A series holds only keys inside its window, so
    after the walk each count must be the series' number of keys: a stored
    key that no index reads, at a z its product lacks or under another
    sector or degree, fails with the least such key's sector and degree.

    The first two divide by the check's own factorial product of
    ``term.degs`` (all of it on X, all but k0 on Y), not the table's fact,
    so a wrong table fact fails there.  The I products are kept per walk as
    the I builder keeps them, and both blocks per (sector, H atoms), the
    atoms named by the table's integer key, which fixes everything the
    pairing reads; each distinct block is one ``gamma_shift_product`` call
    of this walk.  offset, shift, age and the H atoms are the table's, and
    its fact names a residual's witness.
    """
    product_of, first = (_i_x_product, 0) if side == "x" else (_i_y_product, 1)
    window = _wide_window(i_series.orders, pair)
    clamp = f"I^{side.upper()}: stored series is not the declared clamp"
    i_terms, i_window = i_series.terms, i_series.orders.z_window
    h_terms, h_window = h_series.terms, h_series.orders.z_window
    i_matched = h_matched = 0
    i_products: dict = {}
    blocks: dict = {}   # (sector, H atoms key) -> (I block, block, passed keys)
    shift_blocks: dict = {}
    table = _index_tables(pair, i_series.orders)[side]
    for term in table:
        sector, atoms_key, atoms = term.sector, term.atoms_key, term.atoms

        product_key, product = product_of(pair, term, *window, i_products)
        fact = prod(map(factorial, term.degs[first:]))
        i_matched += _assert_is_clamp(i_terms, i_window, term, product, fact, clamp)
        h_matched += _assert_h_term(h_terms, h_window, term, atoms, fact)

        found = blocks.get((sector, atoms_key))
        if found is None:
            found = blocks[sector, atoms_key] = (
                *_gamma_ratio_blocks(gamma[sector], atoms, term.ring, window, sector,
                                     term.degs, shift_blocks), set())
        i_block, block, passed = found
        delta = term.shift + 1 - term.age - term.offset
        if (product_key, delta) not in passed:
            _assert_no_residual(product if i_block is None else product * i_block,
                                block, delta, side.upper(), term)
            passed.add((product_key, delta))
    if i_matched != len(i_terms):
        read = {(term.sector, z + term.offset, term.degs) for term in table
                for z in product_of(pair, term, *window, i_products)[1].terms}
        raise IdentityError(clamp, _least_unread(i_terms, read))
    if h_matched != len(h_terms):
        raise IdentityError(_H_TERM_MESSAGE, _least_unread(
            h_terms, {(term.sector, term.shift, term.degs) for term in table}))


# ---------------------------------------------------------------------------
# the continued series H^Y'
# ---------------------------------------------------------------------------

def h_continued(pair: LGPair, orders: Orders) -> CohSeries:
    """The analytic continuation H^Y' as a closed-form t-series.

    t^(d lam/tau) sum_k prod (t^{g_s})^{k_s} z^{(age-1)k_s} / k_s! *
    sum_m t^m/(m! prod_j Gamma-atom) *
    sum_b [(e^{d(lam+H)}-1) / (d(e^{lam+H} xi^{b+m}-1))] on 1~_{j^{-b}} prod g_s^{k_s};
    the block with xi^{b+m} = 1 is the geometric sum; ``ubar_block`` keeps the blocks.
    It walks the X index table, whose shift is the z-power (age - 1) k,
    whose fact is m! k! and whose atoms are H^X's; a non-SL pair is refused.
    Each sheet's sector is read from the group's product table, the table's
    base times j^-b, and its ring from the index tables' Y ring per element,
    the list the Y table reads too.
    """
    pair.require_cy()
    pair.require_sl()
    d = pair.fermat.degree
    elements = tuple(g.exps for g in pair.group.elements)
    times, position = pair.group.times, pair.group.position
    j = position[pair.grading.exps]
    sheets = list(enumerate(_powers(times, times[j].index(0), d - 1)))
    tables = _index_tables(pair, orders)
    rings = tables["rings"]
    terms: dict = {}
    for term in tables["x"]:
        row = times[position[term.base]]
        for b, j_b in sheets:
            sector = row[j_b]
            ring = rings[sector]
            if ring is not None:
                terms[(elements[sector], term.shift, term.degs)] = \
                    ubar_block(pair, b + term.degs[0], ring).scale_atoms(term.atoms) \
                    * _reciprocal(term.fact)
    variables, tokens = _index_signature(pair, "t")
    return CohSeries("y", pair, variables, orders, terms, tokens)


def gamma_pole_residue(m: int, b: int, d: int) -> Fraction:
    """The residue of Gamma(ds + b + d(lam+H)/tau) at its m-th pole, which
    the residue lemma states is (-1)^m / (d m!).

    Derivation is symbolic: the pole sits where the argument is -m, at s =
    -(lam+H)/tau - (b+m)/d; the functional equation Gamma(x) = Gamma(x+1)/x
    applied m+1 times exposes a simple pole with residue 1/((-1)^m m!) in
    the argument, and the reparameterization s -> argument contributes a
    Jacobian 1/d.
    """
    if m < 0 or not 0 <= b < d:
        raise ValueError("need m >= 0 and 0 <= b < d")
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
        n_g = series.pair.element(exps).fixed_dim()
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
        if not pair.is_narrow(pair.element(exps)):
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

def _value_to_json(value: SectorValue) -> dict:
    """A value's display string and its monomials; the atoms of an H value
    as [weight, h_weight, offset] triples with their exponents."""
    monomials = []
    for (lam, h, tau, atoms) in sorted(value.terms):
        coeff = value.terms[(lam, h, tau, atoms)]
        monomials.append({
            "lam": lam, "h": h, "tau": tau,
            "atoms": [[[str(a.weight), str(a.h_weight), str(a.offset)], e] for a, e in atoms],
            "coeff": [str(c) for c in coeff.coeffs],
        })
    return {"display": str(value), "monomials": monomials}


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
