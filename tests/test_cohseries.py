"""Truncated series: the constructor's filters and the first-difference witness."""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from lgcy.catalog import quintic
from lgcy.cohseries import CohSeries, Orders
from lgcy.exactalg import SeriesRing
from lgcy.genfun import untwisted_j_oracle

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
    same_ring = SeriesRing(d, lam, 1)
    other_ring = SeriesRing(d, lam, 2)
    for key in keys:
        value = small_j.terms[key]
        doubled = dict(small_j.terms)
        doubled[key] = value * 2
        dropped = {k: v for k, v in small_j.terms.items() if k != key}
        two_keys = dict(doubled)
        two_keys[keys[-1]] = small_j.terms[keys[-1]] * 3
        same = dict(small_j.terms)
        same[key] = value.with_ring(same_ring)
        other = dict(small_j.terms)
        other[key] = value.with_ring(other_ring)
        assert same[key].ring is not value.ring and same[key] == value
        for terms in (doubled, dropped, two_keys, same, other):
            tampered = small_j._replace_terms(terms)
            for left, right in ((small_j, tampered), (tampered, small_j)):
                assert left.compare(right) == _sorted_scan(left, right), key
        assert small_j.compare(small_j._replace_terms(same)) is None
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
    assert list(series.terms) == sorted(kept)
    with pytest.raises(TypeError):
        CohSeries("lg", QUINTIC, ("a", "b"), orders, {(ORIGIN, 0, (0, 0)): 1})
