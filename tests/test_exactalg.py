"""Exact arithmetic layer: cyclotomics, sector values, Gamma rewrites."""
from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgcy import genfun
from lgcy.catalog import shipped_pairs
from lgcy.exactalg import (
    Cyclotomic,
    ExactDivisionError,
    GammaAtom,
    NonUnitError,
    OrderMismatchError,
    SectorValue,
    SeriesRing,
    ZLaurentSeries,
    _bernoulli_at,
    _cells,
    _merge_atoms,
    _linear_product,
    _rational_parts,
    bernoulli_number,
    bernoulli_poly,
    cyclotomic_polynomial,
    divide_by_lambda_plus_h,
    euler_phi,
    gamma_shift_product,
    series_exp,
    series_invert,
)
from lgcy.genfun import y_ray_levels
from lgcy.transforms import delta_circ, i_c, u_bar
from lgcy.verify import recommended_orders


# -- cyclotomic field ---------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_root_of_unity_exponent_arithmetic():
    xi = Cyclotomic.root(5)
    assert xi ** 2 * xi ** 4 == xi
    assert xi * Cyclotomic.one(5) == xi


def test_cyclotomic_reduction_example():
    # (1 + xi3)(1 + xi3^2) = 1 via 1 + xi3 + xi3^2 = 0
    a = Cyclotomic.one(3) + Cyclotomic.root(3)
    b = Cyclotomic.one(3) + Cyclotomic.root(3, 2)
    assert a * b == 1


def test_cyclo_mul_canonical_independent_of_representation():
    # xi5^7 and xi5^2 are the same element however they were produced
    a = Cyclotomic.root(5, 7)
    b = Cyclotomic.root(5, 2)
    assert a == b
    c = Cyclotomic.root(5, 3) + Cyclotomic.root(5, 4)
    assert a * c == b * c


def test_cyclo_mul_order_mismatch():
    with pytest.raises(OrderMismatchError):
        Cyclotomic.root(5) * Cyclotomic.root(3)


def test_cyclotomic_inverse():
    xi = Cyclotomic.root(5)
    assert xi.inverse() == Cyclotomic.root(5, 4)
    rng = random.Random(7)
    # phi(7) = phi(9) = 6, phi(10) = phi(12) = 4; (Z/12)^* is not cyclic
    for order in (3, 4, 5, 6, 7, 8, 9, 10, 12):
        phi = euler_phi(order)
        for _ in range(10):
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)]
            value = Cyclotomic(order, coeffs)
            if value.is_zero():
                continue
            assert value * value.inverse() == 1


def test_cyclotomic_ring_axioms_random():
    rng = random.Random(13)

    def rand(order):
        phi = euler_phi(order)
        return Cyclotomic(order, [F(rng.randint(-3, 3)) for _ in range(phi)])

    for order in (3, 5, 8):
        for _ in range(20):
            a, b, c = rand(order), rand(order), rand(order)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_cyclotomic_constructor_is_exact():
    with pytest.raises(TypeError):
        Cyclotomic(3, (0.5, 0))
    with pytest.raises(TypeError):
        Cyclotomic(3, ("1", 0))
    one = Cyclotomic(3, (1, 0))
    assert one == Cyclotomic.one(3)
    assert all(type(c) is F for c in one.coeffs)


# -- property tests of the rational fast paths ---------------------------------

def _reference_mul(a: Cyclotomic, b: Cyclotomic) -> tuple:
    """Schoolbook product: convolve, then reduce modulo Phi_d by long division."""
    phi = euler_phi(a.order)
    poly = cyclotomic_polynomial(a.order)
    conv = [F(0)] * (2 * phi - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    for m in range(len(conv) - 1, phi - 1, -1):
        lead = conv[m]
        for i, p in enumerate(poly):
            conv[m - phi + i] -= lead * p
    return tuple(conv[:phi])


_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _cyclotomics(data, order: int) -> Cyclotomic:
    """A rational value, or one with a nonzero xi coefficient."""
    phi = euler_phi(order)
    const = data.draw(_small_fractions)
    if data.draw(st.booleans()):
        return Cyclotomic(order, (const,) + (F(0),) * (phi - 1))
    rest = data.draw(st.lists(_small_fractions, min_size=phi - 1, max_size=phi - 1))
    assume(any(rest))
    return Cyclotomic(order, [const] + rest)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(order=st.integers(min_value=3, max_value=6), data=st.data())
def test_cyclotomic_fast_paths_match_reference(order, data):
    a, b, c = (_cyclotomics(data, order) for _ in range(3))
    assert (a * b).coeffs == _reference_mul(a, b)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    n = data.draw(st.integers(min_value=-3, max_value=3))
    for value in (a * b, a + b, b + a, a - b, -a, a * n, n * a, a + n):
        assert all(type(x) is F for x in value.coeffs)
        assert len(value.coeffs) == euler_phi(order)


_atom_keys = st.sampled_from(
    [(), ((GammaAtom(F(1), F(2, 5)), 1),), ((GammaAtom(F(1), F(2, 5)), -1),),
     ((GammaAtom(F(0), F(1), F(-1)), -1),)])


def _monomials(data, ring: SeriesRing) -> SectorValue:
    h = data.draw(st.integers(min_value=0, max_value=ring.nilpotency - 1))
    lam = data.draw(st.integers(min_value=0, max_value=ring.lam_order - h))
    tau = data.draw(st.integers(min_value=-1, max_value=1))
    coeff = _cyclotomics(data, ring.order)
    assume(not coeff.is_zero())
    return ring.monomial(lam=lam, h=h, tau=tau, atoms=data.draw(_atom_keys),
                         coeff=coeff)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(order=st.integers(min_value=3, max_value=6), data=st.data())
def test_sector_value_monomial_path_matches_general(order, data):
    ring = SeriesRing(order, 3, 3)
    x = sum((_monomials(data, ring) for _ in range(data.draw(
        st.integers(min_value=1, max_value=4)))), ring.zero())
    m = _monomials(data, ring)
    y = _monomials(data, ring) + _monomials(data, ring) + _monomials(data, ring)
    assume(len((m + y).terms) > 1 and len(y.terms) > 1)
    assert x * m == x * (m + y) - x * y
    assert m * x == x * m


# -- property tests of the integer core -----------------------------------------

def _is_canonical(x: Cyclotomic) -> bool:
    """Integer numerators over one positive denominator, in lowest terms."""
    return (type(x.den) is int and x.den > 0
            and len(x.nums) == euler_phi(x.order)
            and all(type(n) is int for n in x.nums)
            and gcd(x.den, *x.nums) == 1
            and (any(x.nums) or x.den == 1))


_core_fractions = st.one_of(
    st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=12))


def _core_value(data, order: int) -> Cyclotomic:
    """A sparse, rational or dense element of Q(xi_order)."""
    phi = euler_phi(order)
    if data.draw(st.booleans()):
        return Cyclotomic.from_rational(order, data.draw(_core_fractions))
    return Cyclotomic(order, data.draw(
        st.lists(_core_fractions, min_size=phi, max_size=phi)))


@pytest.mark.parametrize("order", range(3, 13))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_core_is_canonical_and_hashes_by_value(order, data):
    a, b = _core_value(data, order), _core_value(data, order)
    q = data.draw(_core_fractions)
    n = data.draw(st.integers(min_value=-4, max_value=4))
    results = [a + b, a - b, -a, a * b, b * a, a * q, q * a, a + q, q - a, a * n,
               a ** 2, Cyclotomic.root(order, n), Cyclotomic.zero(order)]
    if not b.is_zero():
        results += [b.inverse(), a / b]
    for value in (a, b, *results):
        assert _is_canonical(value), (value.nums, value.den)
        assert Cyclotomic(order, value.coeffs) == value
    assert Cyclotomic.zero(order).nums == (0,) * euler_phi(order)
    assert Cyclotomic.zero(order).den == 1
    same = a + b - b
    assert same == a and hash(same) == hash(a)
    if not b.is_zero():
        same = (a * b) * b.inverse()
        assert same == a and hash(same) == hash(a)


# -- sector values ------------------------------------------------------------

def _random_value(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        lam = rng.randint(0, ring.lam_order)
        h = rng.randint(0, ring.nilpotency - 1)
        if lam + h > ring.lam_order:
            continue
        tau = rng.randint(-1, 1)
        coeff = Cyclotomic.root(ring.order, rng.randint(0, ring.order - 1)) \
            * F(rng.randint(-3, 3))
        terms[(lam, h, tau, ())] = coeff
    return SectorValue(ring, terms)


def test_sector_value_ring_axioms_random():
    rng = random.Random(42)
    ring = SeriesRing(5, 4, 3)
    for _ in range(25):
        a, b, c = (_random_value(rng, ring) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_constructor_rejects_negative_or_fractional_lam():
    ring = SeriesRing(5, 3, 1)
    with pytest.raises(ValueError):
        SectorValue(ring, {(-1, 0, 0, ()): Cyclotomic.one(5)})
    with pytest.raises(ValueError):
        SectorValue(ring, {(F(1, 2), 0, 0, ()): Cyclotomic.one(5)})


def test_series_exp_examples():
    ring = SeriesRing(5, 2, 2)
    assert series_exp(ring.zero()) == ring.one()
    x = ring.lam() + ring.hyperplane()
    expected = ring.one() + x + (ring.lam(2) + 2 * ring.lam() * ring.hyperplane()) * F(1, 2)
    assert series_exp(x) == expected
    with pytest.raises(NonUnitError):
        series_exp(ring.one())


def test_series_exp_homomorphism():
    ring = SeriesRing(5, 3, 3)
    x = ring.lam() + ring.hyperplane()
    for d in (2, 3, 5):
        assert series_exp(x * d) == series_exp(x) ** d
    rng = random.Random(3)
    for _ in range(10):
        a = _random_value(rng, ring)
        b = _random_value(rng, ring)
        # strip to nilpotent arguments: drop constants and tau-only parts
        a = a.map_monomials(lambda k, c: (k, c) if k[0] + k[1] >= 1 and k[2] == 0 else None)
        b = b.map_monomials(lambda k, c: (k, c) if k[0] + k[1] >= 1 and k[2] == 0 else None)
        assert series_exp(a) * series_exp(b) == series_exp(a + b)


def test_series_invert_examples():
    ring = SeriesRing(5, 3, 1)
    inv = series_invert(ring.one() - ring.lam())
    assert inv == ring.one() + ring.lam() + ring.lam(2) + ring.lam(3)
    assert series_invert(ring.root(1)) == ring.root(4)
    ring11 = SeriesRing(5, 1, 1)
    v = series_exp(ring11.lam()) * ring11.root(1) - 1
    assert v * series_invert(v) == ring11.one()
    with pytest.raises(NonUnitError):
        series_invert(ring.lam())


def test_series_invert_involution_random():
    rng = random.Random(5)
    ring = SeriesRing(5, 3, 2)
    for _ in range(15):
        x = _random_value(rng, ring)
        x = x.map_monomials(lambda k, c: (k, c) if k[2] == 0 else None)
        if x.constant_term().is_zero():
            x = x + 1
        assert series_invert(series_invert(x)) == x
        assert x * series_invert(x) == ring.one()


def _geometric_invert(x):
    """y = 1/x as the geometric series in nil = x / x_0 - 1, the route the
    graded recurrence of ``series_invert`` replaced."""
    inv_const = x.constant_term().inverse()
    nil = (x * inv_const) - 1
    result = power = x.ring.one()
    for k in range(1, x.ring.lam_order + x.ring.nilpotency + 1):
        power = power * nil
        if power.is_zero():
            break
        result = result + power if k % 2 == 0 else result - power
    return result * inv_const


def test_series_invert_matches_the_geometric_series():
    """The graded recurrence gives the geometric series' value, key for key,
    on random units with tau powers on their nilpotent part, in rings of
    several orders, lam-orders and nilpotencies, and both refuse atoms and
    a tau power of degree zero."""
    rng = random.Random(11)
    for ring in (SeriesRing(5, 3, 2), SeriesRing(3, 6, 1), SeriesRing(4, 6, 4),
                 SeriesRing(6, 4, 5)):
        for _ in range(12):
            x = _random_value(rng, ring) + _random_value(rng, ring)
            x = x.map_monomials(lambda k, c: (k, c) if k[0] + k[1] else None)
            x = x + Cyclotomic.root(ring.order, rng.randint(0, ring.order - 1)) \
                * F(rng.choice([-2, -1, 1, 3]))
            y = series_invert(x)
            assert y.terms == _geometric_invert(x).terms
            assert x * y == ring.one()
    ring = SeriesRing(5, 3, 2)
    with pytest.raises(NonUnitError, match="atoms"):
        series_invert(ring.one() + ring.monomial(lam=1, atoms=((GammaAtom(F(1), F(0)), 1),)))
    with pytest.raises(NonUnitError, match="non-nilpotent"):
        series_invert(ring.one() + ring.monomial(tau=1))


# -- Gamma-ratio rewrite -------------------------------------------------------

def test_gamma_ratio_rewrite_examples():
    ring = SeriesRing(5, 4, 1)
    empty = gamma_shift_product([], ring, -2, 8)
    assert empty.coefficient(0) == ring.one() and len(empty.terms) == 1
    assert gamma_shift_product([(1, 1, 0, 0, 0)], ring, -2, 8) == empty
    # one factor x - 0*z with x = -lam, times z^-1
    single = gamma_shift_product([(1, 1, 0, 0, 1)], ring, -2, 8)
    assert single.coefficient(-1) == -ring.lam()
    assert single.coefficient(0).is_zero()
    # base 2/5 over q = 5
    quintic_factor = gamma_shift_product([(5, 5, 0, 2, 1)], ring, -2, 8)
    assert quintic_factor.coefficient(-1) == -ring.lam()
    assert quintic_factor.coefficient(0) == ring.scalar(F(-2, 5))
    # the same ratio over a larger q is the same block
    assert gamma_shift_product([(10, 10, 0, 4, 1)], ring, -2, 8) == quintic_factor


@pytest.mark.parametrize("entry, error", [
    ((1, 1, 0, 0, -1), ValueError),          # steps < 0
    ((0, 1, 0, 0, 1), ValueError),           # q = 0
    ((-5, 5, 0, 2, 1), ValueError),          # q < 0
    ((F(1), F(0), F(0), 1), TypeError),      # the (lam_weight, h_weight, base, steps) Fractions
    ((1, F(1), 0, F(2, 5), 1), TypeError),   # a Fraction among the integers
])
def test_gamma_shift_product_refuses_entries_other_than_its_integers(entry, error):
    with pytest.raises(error):
        gamma_shift_product([entry], SeriesRing(5, 4, 1), -2, 8)


def _integer_entry(weight, h_weight, base, steps):
    """The entry (q, weight, h_weight, base, steps) of Fractions over their
    common denominator q."""
    q = lcm(weight.denominator, h_weight.denominator, base.denominator)
    return (q, int(weight * q), int(h_weight * q), int(base * q), steps)


def test_gamma_ratio_telescoping():
    """One call over [(w, 0, b, m), (w, 0, b + m, n)] equals one call over
    [(w, 0, b, m + n)], and both equal the product of the single-entry calls."""
    ring = SeriesRing(5, 6, 1)
    window = (-10, 2)
    for weight in (F(1), F(1, 2), F(3)):
        for base in (F(0), F(2, 5), F(7, 3)):
            for m in range(4):
                for n in range(4):
                    whole = gamma_shift_product([_integer_entry(weight, F(0), base, m + n)],
                                                ring, *window)
                    split = [_integer_entry(weight, F(0), base, m),
                             _integer_entry(weight, F(0), base + m, n)]
                    assert gamma_shift_product(split, ring, *window) == whole
                    left, right = (gamma_shift_product([entry], ring, *window)
                                   for entry in split)
                    assert left * right == whole


def test_gamma_shift_product_carries_h():
    ring = SeriesRing(4, 3, 3)
    prod = gamma_shift_product([(1, 0, -1, -1, 1)], ring, -4, 4)
    # single factor x - 0*z with x = H - (-1)z = H + z, times z^-1
    assert prod.coefficient(-1) == ring.hyperplane()
    assert prod.coefficient(0) == ring.one()


# -- the linear-factor product kernel -----------------------------------------

def _per_factor_product(ring, z_min, z_max, factors):
    """The route ``_linear_product`` replaced: one ``ZLaurentSeries`` per
    factor, multiplied in the given order and clamped after every product.

    A factor (lam, h, z) of Fractions is lam*lam + h*H + z*z; a factor
    (h, z) is (h*H + z*z)^-1, expanded through the nilpotency of H.
    """
    result = ZLaurentSeries.constant(ring, z_min, z_max, ring.one())
    for factor in factors:
        if len(factor) == 3:
            lam_c, h_c, z_c = factor
            terms = {0: ring.monomial(lam=1, coeff=lam_c) + ring.monomial(h=1, coeff=h_c),
                     1: ring.scalar(z_c)}
        else:
            h_c, z_c = factor
            terms = {-n - 1: ring.monomial(h=n, coeff=(-h_c) ** n / z_c ** (n + 1))
                     for n in range(ring.nilpotency)}
        result = result * ZLaurentSeries(ring, z_min, z_max, terms)
    return result


def _kernel_arguments(factors):
    """(linear, inverse) integer lists for ``_linear_product``."""
    linear, inverse = [], []
    for factor in factors:
        den = lcm(*(c.denominator for c in factor))
        nums = tuple(c.numerator * (den // c.denominator) for c in factor)
        (linear if len(factor) == 3 else inverse).append(nums + (den,))
    return linear, inverse


def _random_factors(rng):
    def coeff():
        return F(rng.randint(-4, 4), rng.randint(1, 6))

    factors = [(coeff(), coeff(), coeff()) for _ in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 3)):
        factors.insert(rng.randint(0, len(factors)),
                       (coeff(), F(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 6))))
    return factors


def test_linear_product_matches_the_per_factor_route():
    """The kernel equals the per-factor route on every window that holds
    all of that route's partial products, and on any window, narrow or with
    z_min > 0, it is the clamp of its value on a window holding every cell."""
    rng = random.Random(2024)
    kept_above_zero = 0
    for _ in range(400):
        ring = SeriesRing(rng.choice([3, 4, 5, 6]), rng.randint(0, 4), rng.randint(1, 4))
        factors = _random_factors(rng)
        linear, inverse = _kernel_arguments(factors)
        wide = (-len(inverse) - ring.nilpotency - rng.randint(0, 3),
                len(linear) + rng.randint(0, 3))
        assert _linear_product(ring, *wide, linear, inverse) == \
            _per_factor_product(ring, *wide, factors)
        # cell lam^a H^b sits at z = len(linear) - len(inverse) - a - b
        every_cell = (-len(inverse) - ring.lam_order, len(linear))
        exact = _linear_product(ring, *every_cell, linear, inverse)
        z_min = rng.randint(-4, 4)
        window = (z_min, z_min + rng.randint(0, 4))
        product = _linear_product(ring, *window, linear, inverse)
        assert product == ZLaurentSeries(ring, *window, exact.terms)
        kept_above_zero += z_min > 0 and not product.is_zero()
    # windows with z_min > 0 keep terms, so that case is not vacuous
    assert kept_above_zero > 20


def test_linear_product_clamps_once_where_the_per_factor_clamp_changes():
    ring = SeriesRing(5, 3, 2)
    linear = [(-5, 0, -2, 5), (-5, 0, -7, 5)]
    factors = [(F(-1), F(0), F(-2, 5)), (F(-1), F(0), F(-7, 5))]
    # z_min > 0 drops the starting 1 of the per-factor route, so its value
    # is zero; the kernel keeps the single clamp of the product
    once = ZLaurentSeries(ring, 1, 4, _linear_product(ring, 0, 4, linear).terms)
    assert not once.is_zero() and _per_factor_product(ring, 1, 4, factors).is_zero()
    assert _linear_product(ring, 1, 4, linear) == once
    # taken first, the inverse factor puts a partial product at z = -1: on
    # a window that keeps the final z = 0 but not z = -1 the kernel is
    # still the clamp of the product
    linear, inverse = [(0, 1, 1, 1)], [(1, 2, 1)]
    factors = [(F(0), F(1), F(1)), (F(1), F(2))]
    wide = _linear_product(ring, -2, 1, linear, inverse)
    assert wide == _per_factor_product(ring, -2, 1, factors)
    narrow = _linear_product(ring, 0, 1, linear, inverse)
    assert not narrow.is_zero() and narrow == ZLaurentSeries(ring, 0, 1, wide.terms)
    with pytest.raises(ZeroDivisionError):
        _linear_product(ring, -4, 4, [], [(1, 0, 1)])


def _general_loop_product(ring, z_min, z_max, linear, inverse):
    """``_linear_product`` with every inverse factor, also one with a zero H
    coefficient, expanded by the general nilpotent loop."""
    keys, lam_links, h_links = _cells(ring.lam_order, ring.nilpotency)
    table = [1] + [0] * (len(keys) - 1)
    den = 1
    for lam_c, h_c, z_c, d_c in linear:
        new = [z_c * x for x in table]
        if lam_c:
            for i, j in lam_links:
                new[i] += lam_c * table[j]
        if h_c and h_links:
            for i, j in h_links[0]:
                new[i] += h_c * table[j]
        table = new
        den *= d_c
    for h_c, z_c, d_c in inverse:
        top = len(h_links) if h_c else 0
        coeffs = [d_c * (-h_c) ** n * z_c ** (top - n) for n in range(top + 1)]
        new = [coeffs[0] * x for x in table]
        for n in range(1, top + 1):
            for i, j in h_links[n - 1]:
                new[i] += coeffs[n] * table[j]
        table = new
        den *= z_c ** (top + 1)
    degree = len(linear) - len(inverse)
    terms: dict = {}
    for (a, b, _, _), num in zip(keys, table):
        z = degree - a - b
        if num and z_min <= z <= z_max:
            terms.setdefault(z, {})[(a, b, 0, ())] = F(num, den)
    return ZLaurentSeries(ring, z_min, z_max,
                          {z: SectorValue(ring, cells) for z, cells in terms.items()})


def test_zero_h_inverse_factor_matches_the_general_loop():
    """An inverse factor (0 H + Z z)/D scales the table by D and the
    denominator by Z; the product equals the general nilpotent loop for
    every D, negative Z, and nilpotency 1 to 4, mixed with other factors."""
    rng = random.Random(77)
    seen = set()
    for _ in range(300):
        ring = SeriesRing(rng.choice([3, 4, 5, 6]), rng.randint(0, 4), rng.randint(1, 4))
        linear = [(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-6, 6),
                   rng.randint(1, 6)) for _ in range(rng.randint(0, 5))]
        inverse = [(0, rng.choice([-5, -3, -2, -1, 1, 2, 4]), rng.randint(1, 6))
                   for _ in range(rng.randint(1, 4))]
        inverse += [(rng.choice([-2, 1, 3]), rng.choice([-3, 1, 2]), rng.randint(1, 4))
                    for _ in range(rng.randint(0, 2))]
        rng.shuffle(inverse)
        window = (-len(inverse) - ring.lam_order - rng.randint(0, 2),
                  len(linear) + rng.randint(-2, 2))
        if window[0] > window[1]:
            continue
        product = _linear_product(ring, *window, linear, inverse)
        assert product == _general_loop_product(ring, *window, linear, inverse)
        seen |= {(d_c != 1, z_c < 0, ring.nilpotency >= 2)
                 for h_c, z_c, d_c in inverse if not h_c and not product.is_zero()}
    assert (True, True, True) in seen and len(seen) == 8


def _recorded_calls(monkeypatch, name, key_of):
    """Wrap genfun.<name> so that each distinct call's result is kept under
    key_of(*args)."""
    calls: dict = {}
    original = getattr(genfun, name)

    def recording(*args):
        result = calls[key_of(*args)] = original(*args)
        return result

    monkeypatch.setattr(genfun, name, recording)
    return calls


@pytest.mark.parametrize("name", sorted(shipped_pairs()))
def test_linear_product_callers_match_the_per_factor_route(monkeypatch, name):
    """Every M(k0, k), I^Y factor product and Gamma-ratio block that the
    Gamma-factorization check of a shipped pair builds equals the per-factor
    route over the factor lists the callers built before the kernel (a
    block's times z^(-sum steps))."""
    pair = shipped_pairs()[name]
    d, weights = pair.fermat.degree, pair.fermat.weights
    orders = recommended_orders(pair, 10, 3)
    modifications = _recorded_calls(
        monkeypatch, "modification_factor", lambda p, r_num, *rest: (r_num,) + rest)
    y_products = _recorded_calls(
        monkeypatch, "_i_y_factors", lambda p, k0, v_num, *rest: (k0, v_num) + rest)
    shifts = _recorded_calls(monkeypatch, "gamma_shift_product",
                             lambda entries, *rest: (tuple(entries),) + rest)
    genfun.h_factorization(pair, genfun.i_function_x(pair, orders), "x")
    genfun.h_factorization(pair, genfun.i_function_y(pair, orders), "y")
    assert modifications and y_products and shifts

    for (r_num, ring, z_min, z_max), value in modifications.items():
        factors = []
        for cj, r in zip(weights, r_num):
            steps, frac = divmod(F(r, d), 1)
            factors += [(F(-cj), F(0), -(frac + l)) for l in range(int(steps))]
        assert value == _per_factor_product(ring, z_min, z_max, factors)
    for (k0, v_num, ring, z_min, z_max), value in y_products.items():
        factors = [(F(-d), F(-d), F(-l)) for l in range(k0)]
        for cj, v in zip(weights, v_num):
            numerator_levels, denominator_levels = y_ray_levels(v, d)
            factors += [(F(0), F(cj), F(level, d)) for level in numerator_levels]
            factors += [(F(cj), F(level, d)) for level in denominator_levels]
        assert value == _per_factor_product(ring, z_min, z_max, factors)
    for (entries, ring, z_min, z_max), value in shifts.items():
        assert all(type(x) is int for entry in entries for x in entry)
        factors = [(F(-weight, q), F(-h_weight, q), -(F(base, q) + l))
                   for q, weight, h_weight, base, steps in entries for l in range(steps)]
        assert value == _per_factor_product(ring, z_min, z_max, factors).shift(-len(factors))


def test_gamma_atom_key_equality():
    a = GammaAtom(F(1), F(7, 5))
    b = GammaAtom(F(1), F(7, 5))
    c = GammaAtom(F(1), F(2, 5))
    assert a == b and a != c
    assert "beta" in str(a)


def test_gamma_atom_hash_equality_and_order_from_unreduced_fractions():
    reduced = [GammaAtom(F(1), F(7, 5)), GammaAtom(F(0), F(-2, 5), F(-1)),
               GammaAtom(F(5), F(3), F(5)), GammaAtom(F(1), F(2, 5))]
    unreduced = [GammaAtom(F(3, 3), F(14, 10)), GammaAtom(F(0, 7), F(4, -10), F(-2, 2)),
                 GammaAtom(F(10, 2), F(9, 3), F(25, 5)), GammaAtom(F(-4, -4), F(6, 15))]
    for a, b in zip(reduced, unreduced):
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert hash(a) == hash((a.weight, a.offset, a.h_weight))
    # ordering is the field tuple's, whatever fractions the atoms came from
    expected = sorted(reduced, key=lambda a: (a.weight, a.offset, a.h_weight))
    assert sorted(unreduced) == sorted(reduced) == expected
    assert sorted(unreduced)[0] < sorted(unreduced)[-1]
    counts = {atom: i for i, atom in enumerate(reduced)}
    assert [counts[atom] for atom in unreduced] == [0, 1, 2, 3]
    assert [f.name for f in dataclasses.fields(GammaAtom)] == ["weight", "offset", "h_weight"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        reduced[0].offset = F(0)



def test_shared_atom_is_one_instance_that_matches_atoms_from_unreduced_fractions():
    """``GammaAtom.over`` hands out one instance per value, whatever
    denominator its numerators come over; it equals, hashes like and sorts
    with the atom built from unreduced Fractions."""
    shared = [GammaAtom.over(5, 5, 7), GammaAtom.over(5, 0, -2, -5),
              GammaAtom.over(5, 25, 15, 25), GammaAtom.over(5, 5, 2)]
    assert shared[0] is GammaAtom.over(5, 5, 7) is GammaAtom.over(10, 10, 14)
    assert shared[2] is GammaAtom.over(1, 5, 3, 5)
    unreduced = [GammaAtom(F(3, 3), F(14, 10)), GammaAtom(F(0, 7), F(4, -10), F(-2, 2)),
                 GammaAtom(F(10, 2), F(9, 3), F(25, 5)), GammaAtom(F(-4, -4), F(6, 15))]
    for a, b in zip(shared, unreduced):
        assert a == b and b == a and not a != b
        assert hash(a) == hash(b) and str(a) == str(b) and repr(a) == repr(b)
        assert (a.den, a.nums) == (b.den, b.nums)
        assert F(a.nums[1], a.den) == a.offset
    assert shared[0] != shared[3] and shared[0] != unreduced[3]
    # the same numerators over another denominator are another atom
    assert GammaAtom.over(2, 5, 7) != shared[0] and GammaAtom(F(5, 2), F(7, 2)) != shared[0]
    assert sorted(shared) == sorted(unreduced)
    assert sorted(shared + unreduced) == [a for a in sorted(shared) for _ in range(2)]
    assert [{a: i for i, a in enumerate(shared)}[b] for b in unreduced] == [0, 1, 2, 3]
    # a key of shared atoms and one of their Fraction twins cancel
    assert _merge_atoms(((shared[0], 1), (shared[3], -2)),
                        ((unreduced[3], 2), (unreduced[0], -1))) == ()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(order=st.integers(min_value=3, max_value=6), data=st.data())
def test_rational_scaling_matches_the_scalar_product(order, data):
    """A value times an int or Fraction scales its integer numerators; it
    equals the product with the scalar ``SectorValue``, on either side."""
    ring = SeriesRing(order, 3, 3)
    x = sum((_monomials(data, ring) for _ in range(data.draw(
        st.integers(min_value=0, max_value=4)))), ring.zero())
    q = data.draw(st.one_of(_core_fractions, st.integers(min_value=-4, max_value=4)))
    scaled = x * q
    assert scaled == x * ring.scalar(q) == q * x
    assert all(_is_canonical(c) for c in scaled.terms.values())
    assert (q == 0) == scaled.is_zero() or x.is_zero()


# -- mixed layer helpers -------------------------------------------------------

def test_divide_by_lambda_plus_h():
    ring = SeriesRing(5, 6, 3)
    quotient, valid = divide_by_lambda_plus_h(ring.lam(3))
    expected = ring.lam(2) - ring.lam() * ring.hyperplane() + ring.hyperplane(2)
    assert quotient == expected
    assert valid == 5
    with pytest.raises(ExactDivisionError):
        divide_by_lambda_plus_h(ring.one())
    rng = random.Random(11)
    for _ in range(10):
        w = _random_value(rng, ring)
        product = (ring.lam() + ring.hyperplane()) * w
        q, valid = divide_by_lambda_plus_h(product)
        diff = (ring.lam() + ring.hyperplane()) * q - product
        assert all(k[0] + k[1] > valid for k in diff.terms)


def _reference_divide(x: SectorValue) -> tuple[SectorValue, int]:
    """The (lam + H)-division as it stood with a zero default per slot and
    the validating constructor, kept as this test's oracle."""
    ring = x.ring
    slices: dict = {}
    for (lam, h, tau, atoms), coeff in x.terms.items():
        slices.setdefault((tau, atoms), {}).setdefault(h, {})[lam] = coeff
    out: dict = {}
    valid = ring.lam_order - 1
    for (tau, atoms), layers in slices.items():
        prev: dict = {}
        for h in range(ring.nilpotency):
            v = dict(layers.get(h, {}))
            for lam, coeff in prev.items():
                v[lam] = v.get(lam, Cyclotomic.zero(ring.order)) - coeff
            if not v.get(0, Cyclotomic.zero(ring.order)).is_zero():
                raise ExactDivisionError(
                    f"not divisible by (lam + H): remainder at H^{h}, tau^{tau}")
            w = {lam - 1: c for lam, c in v.items() if lam >= 1 and not c.is_zero()}
            for lam, coeff in w.items():
                if lam + h <= valid:
                    out[(lam, h, tau, atoms)] = coeff
            prev = w
    return SectorValue(ring, out), valid


@pytest.mark.parametrize("order, lam_order, nilpotency",
                         [(5, 6, 3), (3, 4, 1), (6, 5, 4), (4, 1, 2), (5, 0, 2)])
def test_divide_by_lambda_plus_h_matches_the_reference(order, lam_order, nilpotency):
    """Quotient, valid degree and the refusals equal ``_reference_divide``'s
    on products by (lam + H), on those plus a term, and on random values,
    with tau and atoms slices; every quotient is clean (truncated, nonzero
    coefficients) though it is built unchecked."""
    ring = SeriesRing(order, lam_order, nilpotency)
    rng = random.Random(order * 100 + lam_order * 10 + nilpotency)
    atoms = ((GammaAtom(F(1), F(2, 5)), 1),)
    x = ring.lam() + ring.hyperplane()
    refused = 0
    for _ in range(40):
        w = _random_value(rng, ring) + _random_value(rng, ring).scale_atoms(atoms) \
            * ring.monomial(tau=rng.randint(-2, 2))
        for value in (x * w, x * w + _random_value(rng, ring), _random_value(rng, ring)):
            try:
                expected = _reference_divide(value)
            except ExactDivisionError as err:
                with pytest.raises(ExactDivisionError, match=f"^{re.escape(str(err))}$"):
                    divide_by_lambda_plus_h(value)
                refused += 1
                continue
            quotient, valid = divide_by_lambda_plus_h(value)
            assert (quotient, valid) == expected
            assert quotient.terms == SectorValue(ring, quotient.terms).terms
    assert refused > 0


def test_zlaurent_window_and_products():
    ring = SeriesRing(5, 2, 1)
    a = ZLaurentSeries(ring, -3, 2, {0: ring.one(), 1: ring.lam()})
    b = ZLaurentSeries(ring, -3, 2, {-1: ring.one(), 2: ring.scalar(3)})
    prod = a * b
    assert prod.coefficient(-1) == ring.one()
    assert prod.coefficient(0) == ring.lam()
    assert prod.coefficient(2) == ring.scalar(3)
    # z^3 clamped away by the window
    assert prod.coefficient(3).is_zero()
    with pytest.raises(OrderMismatchError):
        a + ZLaurentSeries(ring, -1, 2, {0: ring.one()})


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(2) == F(1, 6)
    assert bernoulli_number(12) == F(-691, 2730)
    assert bernoulli_poly(1, F(1, 2)) == 0
    assert bernoulli_poly(1, F(1, 5)) == F(1, 5) - F(1, 2)
    assert bernoulli_poly(2, F(1, 5)) == F(1, 150)
    # generating-function sanity: B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 8):
        for x in (F(0), F(1, 3), F(7, 5)):
            assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)


def test_bernoulli_poly_refuses_floats_after_an_exact_call():
    assert bernoulli_poly(2, F(1, 2)) == F(-1, 12)
    with pytest.raises(TypeError):
        bernoulli_poly(2, 0.5)


def test_bernoulli_cache_matches_the_polynomial_sum():
    # the integer route against the public Fraction sum, every n <= 6, q <= 12
    for n in range(7):
        for q in range(1, 13):
            for p in range(-q, 2 * q + 1):
                assert _bernoulli_at(n, p, q) == bernoulli_poly(n, F(p, q))
        # 2/4 reaches the integer route as its lowest terms, those of 1/2
        assert _rational_parts(F(2, 4)) == (1, 2)
        assert _bernoulli_at(n, *_rational_parts(F(2, 4))) == bernoulli_poly(n, F(1, 2))
        assert _bernoulli_at(n, 2, 4) == _bernoulli_at(n, 1, 2)


# -- equality: the same-type fast paths against the general route -------------------

def _cyclotomic_eq_general(value, other) -> bool:
    """Cyclotomic equality by the general route: coerce a rational, else
    compare order and integers."""
    if isinstance(other, (int, F)):
        num, den = _rational_parts(other)
        return value.is_rational() and value.nums[0] == num and value.den == den
    return (isinstance(other, Cyclotomic) and value.order == other.order
            and value.den == other.den and value.nums == other.nums)


def _sector_value_eq_general(value, other) -> bool:
    """SectorValue equality by the general route: lift a scalar into the
    ring, then compare rings and term dicts."""
    if isinstance(other, (int, F, Cyclotomic)):
        other = value.ring.scalar(other)
    return (isinstance(other, SectorValue) and value.ring == other.ring
            and value.terms == other.terms)


def test_cyclotomic_equality_matches_the_general_route():
    operands = [0, 1, -2, True, F(1, 2), F(4, 2), None, "1",
                Cyclotomic.from_rational(5, 0), Cyclotomic.from_rational(5, 1),
                Cyclotomic.from_rational(5, F(1, 2)), Cyclotomic.from_rational(5, 2),
                Cyclotomic.root(5), Cyclotomic.root(5) * F(1, 3) + 1,
                Cyclotomic.from_rational(3, 1), Cyclotomic.root(3),
                Cyclotomic.from_rational(6, F(1, 2)),
                # phi(10) = phi(8) = phi(5): the same integers in another order
                Cyclotomic.from_rational(10, 1), Cyclotomic.from_rational(8, F(1, 2))]
    values = [x for x in operands if isinstance(x, Cyclotomic)]
    for value in values:
        for other in operands:
            assert (value == other) is _cyclotomic_eq_general(value, other), (value, other)
            assert (value != other) is not _cyclotomic_eq_general(value, other)
        # a distinct but equal instance goes through the fast path
        twin = Cyclotomic._reduced(value.order, tuple(value.nums), value.den)
        assert twin is not value and value == twin


def test_sector_value_equality_matches_the_general_route():
    ring = SeriesRing(5, 2, 1)
    rings = [ring, SeriesRing(5, 2, 2), SeriesRing(5, 3, 1)]
    values = []
    for r in rings:
        values += [r.zero(), r.one(), r.scalar(F(1, 2)), r.root(),
                   r.lam() + 1, r.monomial(lam=1, tau=-1, coeff=3)]
    values.append(SeriesRing(5, 2, 2).hyperplane() + 1)
    scalars = [0, 1, 2, True, F(1, 2), None, "1",
               Cyclotomic.from_rational(5, 1), Cyclotomic.from_rational(5, F(1, 2)),
               Cyclotomic.root(5)]
    for value in values:
        for other in values + scalars:
            expected = _sector_value_eq_general(value, other)
            assert (value == other) is expected, (value, other)
            assert (value != other) is not expected
    # the general route refuses a scalar of another cyclotomic order; the
    # value compares unequal to it (next test)
    with pytest.raises(OrderMismatchError):
        _sector_value_eq_general(ring.one(), Cyclotomic.one(3))
    assert ring.one() != Cyclotomic.one(3)


def test_series_ring_is_one_shared_instance_per_parameters():
    """``SeriesRing(...)`` hands out one instance per (order, lam_order,
    nilpotency), so rings compare by identity; the fields, repr and hash
    are those of the three parameters, and invalid parameters raise."""
    ring = SeriesRing(5, 2, 3)
    assert SeriesRing(5, 2, 3) is ring
    assert SeriesRing(order=5, lam_order=2, nilpotency=3) is ring
    assert SeriesRing(5, 2) is SeriesRing(5, 2, 1)
    assert dataclasses.replace(ring, nilpotency=1) is SeriesRing(5, 2, 1)
    assert ring != SeriesRing(5, 2, 2) and ring != SeriesRing(5, 3, 3)
    assert [f.name for f in dataclasses.fields(ring)] == ["order", "lam_order", "nilpotency"]
    assert repr(ring) == "SeriesRing(order=5, lam_order=2, nilpotency=3)"
    assert hash(ring) == hash((5, 2, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ring.order = 4
    for params in ((0, 2, 1), (5, -1, 1), (5, 2, 0)):
        with pytest.raises(ValueError, match="invalid ring parameters"):
            SeriesRing(*params)


def _shared(ring) -> bool:
    return ring is SeriesRing(ring.order, ring.lam_order, ring.nilpotency)


@pytest.mark.parametrize("pair", list(shipped_pairs().values()), ids=lambda p: p.name)
def test_every_built_coefficient_has_the_shared_ring(pair):
    """Every coefficient of I^X, I^Y, H^X, H^Y, H^Y', both J routes and the
    outputs of ``u_bar``, ``i_c`` and ``delta_circ`` lies in the shared ring
    of its parameters, which the identity tests of ring equality rely on."""
    orders = recommended_orders(pair, 4, 2)
    i_x, h_x = genfun.i_function_x(pair, orders), genfun.h_function_x(pair, orders)
    j_oracle = genfun.untwisted_j_oracle(pair, 0, orders)
    limit = genfun.z_ddt_distinguished(i_x).nonequivariant_limit()
    series = [i_x, genfun.i_function_y(pair, orders), h_x, genfun.h_function_y(pair, orders),
              genfun.h_continued(pair, orders), genfun.untwisted_j(pair, 1, orders),
              j_oracle, u_bar(pair, orders.lam_order).apply(h_x),
              i_c(pair, 1).apply(j_oracle), delta_circ(pair).apply(limit)]
    for built in series:
        assert built.terms
        assert all(_shared(value.ring) for value in built.terms.values())


@pytest.mark.parametrize("order", [1, 3, 4, 10])
def test_sector_value_is_unequal_to_a_cyclotomic_of_another_order(order):
    """Like ``Cyclotomic.__eq__``, ``SectorValue.__eq__`` answers False for a
    ``Cyclotomic`` of another order instead of raising, from either side."""
    ring = SeriesRing(5, 2, 1)
    for value in (ring.scalar(1), ring.zero(), ring.lam() + 1):
        other = Cyclotomic.one(order)
        assert (value == other) is False and (value != other) is True
        assert (other == value) is False and (other != value) is True
        assert (value == Cyclotomic.zero(order)) is False
    assert ring.scalar(1) == Cyclotomic.one(5)
