"""Truncated series: the constructor's filters and the first-difference witness."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from lgcy.catalog import quintic, shipped_pairs
from lgcy.cohseries import CohSeries, Orders
from lgcy.exactalg import SeriesRing
from lgcy.genfun import i_function_x, untwisted_j, untwisted_j_oracle
from lgcy.transforms import delta_circ, i_c, u_bar

QUINTIC = quintic()
ORIGIN = (0,) * 5
GRADING = (1,) * 5


def _sorted_scan(left: CohSeries, right: CohSeries) -> dict | None:
    """The coefficient witness of ``compare`` by a scan of every key of both
    sides in sorted order, a missing key read as its ring's zero."""
    for key in sorted(set(left.terms) | set(right.terms)):
        a = left.terms.get(key)
        if a is None:
            a = left.ring_for(key[0]).zero()
        b = right.terms.get(key)
        if b is None:
            b = right.ring_for(key[0]).zero()
        if a != b:
            return {"kind": "coefficient", "sector": list(key[0]), "z": key[1],
                    "degree": list(key[2]), "left": str(a), "right": str(b)}
    return None


@pytest.fixture(scope="module")
def small_j() -> CohSeries:
    return untwisted_j_oracle(QUINTIC, 1, Orders(t_order=3, lam_order=0))


def test_equal_series_compare_to_none(small_j):
    twin = small_j._replace_terms(dict(small_j.terms))
    assert twin.terms is not small_j.terms
    assert small_j.compare(twin) is None and twin.compare(small_j) is None
    assert small_j.compare(small_j) is None


def test_every_difference_gives_the_sorted_scan_witness(small_j):
    keys = sorted(small_j.terms)
    assert len(keys) > 20
    d, lam = QUINTIC.fermat.degree, small_j.orders.lam_order
    other_ring = SeriesRing(d, lam, 2)
    for key in keys:
        value = small_j.terms[key]
        doubled = dict(small_j.terms)
        doubled[key] = value * 2
        dropped = {k: v for k, v in small_j.terms.items() if k != key}
        two_keys = dict(doubled)
        two_keys[keys[-1]] = small_j.terms[keys[-1]] * 3
        other = dict(small_j.terms)
        other[key] = value.with_ring(other_ring)
        for terms in (doubled, dropped, two_keys, other):
            tampered = small_j._replace_terms(terms)
            for left, right in ((small_j, tampered), (tampered, small_j)):
                assert left.compare(right) == _sorted_scan(left, right), key
        assert small_j.compare(small_j._replace_terms(doubled))["sector"] == list(key[0])


def test_constructor_filters_the_window_the_t_degree_and_zeros():
    orders = Orders(t_order=3, lam_order=0, z_min=-2, z_max=1)
    ring = SeriesRing(5, 0, 1)
    one = ring.one()
    kept = {
        (ORIGIN, 0, (3, 0)): one,
        (ORIGIN, 0, (3, -1)): one,        # the t-degree counts positive entries
        (ORIGIN, -2, (0, -4)): one,
        (GRADING, 1, (1, 1)): ring.scalar(F(1, 2)),
    }
    dropped = {
        (ORIGIN, 2, (0, 0)): one,         # above the z-window
        (ORIGIN, -3, (0, 0)): one,        # below it
        (ORIGIN, 0, (4, 0)): one,         # t-degree 4 > 3
        (ORIGIN, 0, (4, -1)): one,        # entry sum 3, t-degree 4
        (GRADING, 0, (2, 2)): one,
        (GRADING, 0, (0, 0)): ring.zero(),
    }
    series = CohSeries("lg", QUINTIC, ("a", "b"), orders, {**kept, **dropped})
    assert series.terms == kept
    backwards = dict(reversed([*kept.items(), *dropped.items()]))
    assert CohSeries("lg", QUINTIC, ("a", "b"), orders, backwards).terms == kept
    with pytest.raises(TypeError):
        CohSeries("lg", QUINTIC, ("a", "b"), orders, {(ORIGIN, 0, (0, 0)): 1})


def _assert_clean(series: CohSeries) -> None:
    """``series`` equals its rebuild through the validating constructor:
    the same terms and the same signature."""
    rebuilt = CohSeries(series.side, series.pair, series.variables, series.orders,
                        dict(series.terms), series.tokens, series.c_twist)
    assert rebuilt.terms == series.terms
    assert rebuilt.signature() == series.signature()


@pytest.mark.parametrize("name", sorted(shipped_pairs()))
def test_unchecked_and_transformed_series_are_clean(name):
    """Every series built without the constructor's filters, and every
    ``Transform.apply`` result, is one the constructor would keep as is.
    The J window ends at z_max = 0, so a derivative that kept a key above
    z_max would show here.  Both J routes are also built at windows that
    drop the unit (z_max = 0) or the linear terms (z_min = 1), and at
    T = 0."""
    pair = shipped_pairs()[name]
    j_orders = Orders(t_order=3, lam_order=1, z_max=0)
    ix = i_function_x(pair, Orders(t_order=3, lam_order=2))
    d = pair.fermat.degree
    for c in pair.valid_twists():
        closed = untwisted_j(pair, c, j_orders)
        _assert_clean(closed)
        _assert_clean(i_c(pair, c).apply(untwisted_j_oracle(pair, 0, j_orders)))
        for orders in (j_orders, Orders(t_order=3, lam_order=1, z_min=1),
                       Orders(t_order=0, lam_order=1), Orders(t_order=0, lam_order=1, z_max=0)):
            for builder in (untwisted_j, untwisted_j_oracle):
                _assert_clean(builder(pair, c, orders))
        for series in (closed, ix):
            for index in range(len(series.variables)):
                for multiple in (0, d):
                    _assert_clean(series.z_ddt_var(index, prefactor_lam_multiple=multiple))
    _assert_clean(ix.filter_terms(lambda key, value: key[1] < 0 and key[2][0] > 0))
    _assert_clean(u_bar(pair, ix.orders.lam_order).apply(ix))
    _assert_clean(delta_circ(pair).apply(ix.nonequivariant_limit()))


def test_restricted_refuses_larger_orders():
    """An I^X at T = 2, lam 1 holds no T = 6 or lam 4 term, so it cannot
    claim those orders; smaller orders inside its window restrict."""
    ix = i_function_x(QUINTIC, Orders(t_order=2, lam_order=1))
    assert ix.orders.z_window == (-4, 2)
    for larger in (Orders(t_order=6, lam_order=4), Orders(t_order=3, lam_order=1),
                   Orders(t_order=2, lam_order=2), Orders(t_order=2, lam_order=1, z_min=-5),
                   Orders(t_order=2, lam_order=1, z_max=3)):
        with pytest.raises(ValueError):
            ix.restricted(larger)
    assert ix.restricted(ix.orders).compare(ix) is None
    smaller = ix.restricted(Orders(t_order=1, lam_order=0, z_min=-3, z_max=1))
    assert smaller.terms and all(-3 <= z <= 1 and sum(degs) <= 1
                                 for _, z, degs in smaller.terms)


def test_z_ddt_var_refuses_an_index_outside_the_variables():
    """A negative index would wrap around in the degree slices and one past
    the end would fail only on a nonempty series, so both are refused up
    front, on an empty series too."""
    j = untwisted_j(QUINTIC, 0, Orders(t_order=3, lam_order=0))
    empty = j._replace_terms({})
    width = len(j.variables)
    for series in (j, empty):
        for index in (-1, width, width + 1):
            with pytest.raises(ValueError):
                series.z_ddt_var(index)
    assert empty.z_ddt_var(width - 1).terms == {}


def _per_term_z_ddt_var(series: CohSeries, index: int, multiple: int) -> dict:
    """``z_ddt_var``'s terms formed afresh for every term: value times the
    exponent, plus the prefactor piece."""
    out = {}
    for (exps, z, degs), value in series.terms.items():
        exponent = degs[index]
        if z >= series.orders.z_window[1] or (not exponent and not multiple):
            continue
        total = value.ring.zero()
        if exponent:
            total = total + value * exponent
        if multiple:
            total = total + value * value.ring.monomial(lam=1, tau=-1, coeff=multiple)
        if total.terms:
            out[exps, z + 1, degs[:index] + (exponent - 1,) + degs[index + 1:]] = total
    return out


@pytest.mark.parametrize("name", sorted(shipped_pairs()))
def test_z_ddt_var_matches_a_per_term_reference(name):
    """Each (value, exponent) product is formed once per call; the result is
    the per-term one on the closed J, whose terms share one value per
    factorial, on the relabelled oracle J and on I^X.  With no prefactor a
    term of exponent 1 passes its own value object through."""
    pair = shipped_pairs()[name]
    orders = Orders(t_order=4, lam_order=1)
    oracle = untwisted_j_oracle(pair, 0, orders)
    ix = i_function_x(pair, Orders(t_order=3, lam_order=2))
    d = pair.fermat.degree
    for c in pair.valid_twists():
        for series in (untwisted_j(pair, c, orders), i_c(pair, c).apply(oracle), ix):
            z_max = series.orders.z_window[1]
            for index in range(len(series.variables)):
                for multiple in (0, d):
                    assert series.z_ddt_var(index, multiple).terms == \
                        _per_term_z_ddt_var(series, index, multiple), (c, index, multiple)
                derivative = series.z_ddt_var(index).terms
                passed = [derivative[exps, z + 1, degs[:index] + (0,) + degs[index + 1:]]
                          is value for (exps, z, degs), value in series.terms.items()
                          if degs[index] == 1 and z < z_max]
                assert passed and all(passed), (c, index)
