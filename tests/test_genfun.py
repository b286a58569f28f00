"""Generating functions: J and its oracle, I^X, I^Y, H-sides, continuation."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcy import genfun
from lgcy.catalog import cubic, quartic, quintic, sextic, shipped_pairs
from lgcy.cohseries import CohSeries, Orders, TOKEN_Q_H, TOKEN_T_LAMBDA
from lgcy.exactalg import (Cyclotomic, GammaAtom, SectorValue, SeriesRing, ZLaurentSeries,
                           series_exp)
from lgcy.genfun import (
    IdentityError,
    _index_tables,
    _verify_factorization,
    assert_lambda_divisibility,
    fjrw_i_function,
    fjrw_limit,
    gamma_pole_residue,
    h_continued,
    h_factorization,
    h_function_x,
    h_function_y,
    i_function_x,
    i_function_y,
    modification_factor,
    psi_integral_oracle,
    serialize_series,
    untwisted_j,
    untwisted_j_oracle,
    y_ray_levels,
    z_ddt_distinguished,
)
from lgcy.lgmodel import GroupElement, LGPair, SectorBasisElement, load_pair
from lgcy.transforms import Transform, gamma_class_op, ubar_block
from lgcy.verify import (ALL_CHECKS, check_continuation, check_gamma_factorization,
                         check_mlk_untwisted, check_oracle_equivalence, recommended_orders,
                         run_checks, self_test)

ALL_PAIRS = [quintic(), cubic(), quartic(), sextic()]


# -- untwisted J and the psi oracle ------------------------------------------------

def test_untwisted_j_t_cubed_coefficient():
    q = quintic()
    orders = Orders(t_order=4, lam_order=2)
    series = untwisted_j(q, 0, orders)
    idx = series.variables.index(q.grading.exps)
    degs = tuple(3 if i == idx else 0 for i in range(len(series.variables)))
    value = series.coefficient((q.grading ** 3).exps, -2, degs)
    assert value == series.ring_for((3,) * 5).scalar(F(1, 6))


def test_untwisted_j_dilaton_leading_term():
    q = quintic()
    series = untwisted_j(q, 0, Orders(t_order=2, lam_order=0))
    zero = tuple(0 for _ in series.variables)
    assert series.coefficient(q.identity.exps, 1, zero) == \
        series.ring_for((0,) * 5).one()
    # the whole z^1 slice is the unit: no other key reaches z = 1
    z_one = [key for key in series.terms if key[1] == 1]
    assert z_one == [(q.identity.exps, 1, zero)]


def test_untwisted_j_two_active_coordinates():
    q = quintic()
    series = untwisted_j(q, 0, Orders(t_order=3, lam_order=0))
    degs = tuple(1 if exps in (q.grading.exps, (q.grading ** 2).exps) else 0
                 for exps in series.variables)
    value = series.coefficient((q.grading ** 3).exps, -1, degs)
    assert value == series.ring_for((3,) * 5).one()


def test_psi_integral_oracle_examples():
    assert psi_integral_oracle((0, 0, 0)) == 1
    assert psi_integral_oracle((1, 0, 0, 0)) == 1
    # closed form cross-checks, values computed by (n-3)!/prod a_i!
    assert psi_integral_oracle((1, 1, 0, 0, 0)) == 2
    assert psi_integral_oracle((2, 1, 0, 0, 0, 0)) == 3
    assert psi_integral_oracle((3, 0, 0, 0, 0, 0)) == 1
    # off the dimension sum a_i = n - 3 the integral is not asked for
    for exponents in ((0, 0), (2, 0, 0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            psi_integral_oracle(exponents)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_oracle_equals_closed_form(pair):
    orders = Orders(t_order=4, lam_order=0)
    for c in pair.valid_twists():
        closed = untwisted_j(pair, c, orders)
        oracle = untwisted_j_oracle(pair, c, orders)
        assert closed.compare(oracle) is None


def _per_twist_closed_terms(pair, c, orders) -> dict:
    """The closed J's terms built afresh for one twist: each sector is the
    element of the walk's exponent sum reduced mod d/c_j, built by the public
    ``GroupElement`` constructor."""
    pair.require_twist(c)
    ring = SeriesRing(pair.fermat.degree, orders.lam_order, 1)
    z_min, z_max = orders.z_window
    rows = [g.exps for g in pair.group.elements]
    terms = {}
    for total in range(orders.t_order + 1):
        if z_min <= 1 - total <= z_max:
            for degs, sums, fact in _multidegree_walk(rows, total):
                sector = GroupElement(pair.fermat, [k % m for k, m
                                                    in zip(sums, pair.fermat.exponents)])
                terms[(sector.exps, 1 - total, degs)] = ring.scalar(F(1, fact))
    return terms


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_closed_j_terms_are_built_once_and_copied_per_twist(pair):
    for orders in (Orders(t_order=2, lam_order=0), Orders(t_order=6, lam_order=0),
                   Orders(t_order=4, lam_order=1, z_min=-2)):
        genfun._closed_j_terms.cache_clear()
        series = [untwisted_j(pair, c, orders) for c in pair.valid_twists()]
        assert genfun._closed_j_terms.cache_info().misses == 1
        cached = genfun._closed_j_terms(pair, orders)
        for c, closed in zip(pair.valid_twists(), series):
            assert closed.c_twist == c
            assert closed.terms == _per_twist_closed_terms(pair, c, orders), (orders, c)
            assert closed.terms is not cached
        assert len({id(closed.terms) for closed in series}) == len(series)


def test_invalid_twist_raises_before_the_closed_terms_are_read(monkeypatch):
    reads = []
    monkeypatch.setattr(genfun, "_closed_j_terms", lambda *args: reads.append(args))
    for pair in ALL_PAIRS:
        for c in (-1, max(pair.valid_twists()) + 1):
            with pytest.raises(ValueError, match="twist"):
                untwisted_j(pair, c, Orders(t_order=2, lam_order=0))
    assert reads == []


def _multidegree_walk(rows, total: int):
    """The reference enumeration: every exponent tuple of the given total
    over len(rows) variables, lexicographic, as (degs, sums, fact).

    sums = sum_i degs_i rows[i] is an integer tuple and fact = prod_i degs_i!.
    Each step is one odometer carry from the previous tuple: of the last
    nonzero entry v, one unit moves one slot to the left and the other v - 1
    to the last slot, and sums and fact follow in integers.
    """
    last = len(rows) - 1
    degs = [0] * last + [total]
    sums = tuple(total * e for e in rows[last])
    fact = math.factorial(total)
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


def _compositions(n_vars: int, total: int) -> list:
    """Every exponent tuple of the given total, in lexicographic order."""
    return sorted(tuple(combo.count(i) for i in range(n_vars))
                  for combo in itertools.combinations_with_replacement(range(n_vars), total))


_rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(st.tuples(*[st.integers(min_value=0, max_value=6)] * width),
                           min_size=1, max_size=5))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rows=_rows, total=st.integers(min_value=0, max_value=6))
def test_multidegree_walk_matches_itertools_reference(rows, total):
    walk = list(_multidegree_walk(rows, total))
    assert [degs for degs, _, _ in walk] == _compositions(len(rows), total)
    for degs, sums, fact in walk:
        assert sums == tuple(sum(k * row[j] for k, row in zip(degs, rows))
                             for j in range(len(rows[0])))
        assert fact == math.prod(math.factorial(k) for k in degs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), total=st.integers(min_value=0, max_value=6))
def test_level_walk_matches_itertools_reference(data, total):
    """Each level of the walk is the compositions of its total in
    lexicographic order, with their factorial products and sums, and a
    sector that is the position of prod_i g_i^(k_i) formed with
    ``GroupElement.__mul__``; sums are None when no rows are given."""
    pair = data.draw(st.sampled_from(ALL_PAIRS + CENSUS_PAIRS + [NON_SL_PAIR]))
    elements = pair.group.elements
    positions = [g.exps for g in elements]
    n = data.draw(st.integers(min_value=1, max_value=5))
    coordinates = data.draw(st.lists(st.integers(min_value=0, max_value=len(elements) - 1),
                                     min_size=n, max_size=n))
    width = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.none() | st.lists(st.tuples(*[st.integers(0, 6)] * width),
                                          min_size=n, max_size=n))
    walk = genfun._level_walk(pair.group.times, coordinates, rows)
    for level_total, level in zip(range(total + 1), walk):
        assert [degs for degs, *_ in level] == _compositions(n, level_total)
        for degs, _, sector, fact, sums in level:
            assert fact == math.prod(math.factorial(k) for k in degs)
            if rows is None:
                assert sums is None
            else:
                assert sums == tuple(sum(k * row[j] for k, row in zip(degs, rows))
                                     for j in range(width))
            product = pair.identity
            for i, k in zip(coordinates, degs):
                for _ in range(k):
                    product = product * elements[i]
            assert sector == positions.index(product.exps)


def _direct_scan_oracle_terms(pair, c, orders) -> dict:
    """The oracle's loop with one is_nonempty scan of every g0 per multidegree."""
    elements = pair.group.elements
    ring = SeriesRing(pair.fermat.degree, orders.lam_order, 1)
    z_min, z_max = orders.z_window
    jc = pair.grading ** c
    shifted = [g * jc for g in elements]
    j2c_inverse = (jc * jc).inverse()
    duals = [g0.inverse() * j2c_inverse for g0 in elements]
    dual_norm = pair.fermat.degree ** pair.fermat.n_variables
    n = len(elements)
    terms = {(pair.identity.exps, 1, (0,) * n): ring.one()}
    for i, g in enumerate(elements):
        terms[g.exps, 0, tuple(int(i == s) for s in range(n))] = ring.one()
    for total in range(2, orders.t_order + 1):
        a = total - 2
        if -a - 1 < z_min:
            break
        corr = F(1, dual_norm) * psi_integral_oracle((a,) + (0,) * total)
        for degs in _compositions(n, total):
            insertions = [g_jc for g_jc, k in zip(shifted, degs) for _ in range(k)]
            coeff = F(1, math.prod(math.factorial(k) for k in degs))
            for g0_jc, dual in zip(shifted, duals):
                if pair.is_nonempty(c, 0, [g0_jc] + insertions):
                    key = (dual.exps, -a - 1, degs)
                    assert key not in terms
                    terms[key] = ring.scalar(coeff * corr * dual_norm)
    return {key: value for key, value in terms.items() if z_min <= key[1] <= z_max}


def _order16_quartic():
    return load_pair({"weights": [1, 1, 1, 1], "degree": 4,
                      "generators": [[0, 2, 0, 2], [0, 0, 2, 2]]})


def _order25_quintic():
    """The quintic's <j, (0,1,2,3,4)>: 25 elements, so at total 2 already
    325 multidegrees share at most 25 residue classes mod 5."""
    return load_pair({"weights": [1] * 5, "degree": 5,
                      "generators": [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]})


@pytest.mark.parametrize("pair,t_order,window", [(p, 4, {}) for p in ALL_PAIRS]
                         + [(_order16_quartic(), 3, {}), (_order25_quintic(), 2, {}),
                            (quartic(), 4, {"z_min": -2, "z_max": 0}),
                            (quintic(), 4, {"z_min": 1})],
                         ids=[p.name for p in ALL_PAIRS]
                         + ["quartic-order16", "quintic-order25",
                            "quartic-without-unit", "quintic-without-linear"])
def test_oracle_memoized_scan_equals_direct_scan(pair, t_order, window):
    """The oracle J writes only inside the orders; the direct scan writes
    every key and clips to the z-window at the end."""
    orders = Orders(t_order=t_order, lam_order=0, **window)
    for c in pair.valid_twists():
        assert untwisted_j_oracle(pair, c, orders).terms == \
            _direct_scan_oracle_terms(pair, c, orders), c


@pytest.mark.parametrize("pair,t_order", [(p, 5) for p in ALL_PAIRS]
                         + [(_order16_quartic(), 4), (_order25_quintic(), 4)],
                         ids=[p.name for p in ALL_PAIRS] + ["quartic-order16", "quintic-order25"])
def test_oracle_scans_each_dual_once_per_residue_class(pair, t_order, monkeypatch):
    """The exponent sums of a multidegree reduce to the exponents of an
    element of G, so each total t = 2..T has at most |G| residue classes,
    and each class scans |G| duals."""
    is_nonempty = LGPair.is_nonempty
    calls = []

    def counted(self, c, h, insertions):
        calls.append(c)
        return is_nonempty(self, c, h, insertions)

    monkeypatch.setattr(LGPair, "is_nonempty", counted)
    orders = Orders(t_order=t_order, lam_order=0)
    for c in pair.valid_twists():
        calls.clear()
        untwisted_j_oracle(pair, c, orders)
        assert 0 < len(calls) <= len(pair.group) ** 2 * (t_order - 1), c


# -- the residue-class table both J routes read ----------------------------------

@pytest.fixture
def fresh_j_tables():
    """Empty the J table and the closed terms before and after the test, so
    no table built under a monkeypatch outlives it."""
    caches = (genfun._j_classes, genfun._closed_j_terms)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _residue_partition(pair, rows, total) -> dict:
    """The multidegrees of one total grouped by their exponent sums over
    ``rows`` mod d/c_j, in walk order, keyed by the residues."""
    classes: dict = {}
    for degs, sums, _ in _multidegree_walk(rows, total):
        key = tuple(s % m for s, m in zip(sums, pair.fermat.exponents))
        classes.setdefault(key, []).append(degs)
    return classes


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_twist_leaves_the_residue_partition_unchanged(pair):
    """Over the rows g j^c the sums are sums_0 + c total j mod d/c_j, one
    translation per total, so every valid c and total 2..6 groups the
    multidegrees as the untwisted rows do, and as ``_j_classes`` does, whose
    members each carry the residues as their own sector.  The check is
    exhaustive, so no case is left to a random draw."""
    elements = pair.group.elements
    table = genfun._j_classes(pair, Orders(t_order=6, lam_order=0))
    for total in range(2, 7):
        untwisted = _residue_partition(pair, [g.exps for g in elements], total)
        grouped: dict = {}
        for members in table[total]:
            for degs, _, sector in members:
                grouped.setdefault(sector, []).append(degs)
        assert grouped == untwisted
        assert len(grouped) == len(table[total])
        for c in pair.valid_twists():
            jc = pair.grading ** c
            twisted = _residue_partition(pair, [(g * jc).exps for g in elements], total)
            assert sorted(twisted.values()) == sorted(untwisted.values()), (c, total)


def _counted_level_walks(monkeypatch) -> list:
    """Replace ``genfun._level_walk`` by a wrapper and return its record:
    one list per run of the walk, of the totals of the levels handed out.
    The walk builds a level only when asked for it, so the record also
    names every level built."""
    runs = []
    walk = genfun._level_walk

    def counted(*args):
        totals = []
        runs.append(totals)

        def levels():
            for level in walk(*args):
                totals.append(sum(level[0][0]))
                yield level

        return levels()

    monkeypatch.setattr(genfun, "_level_walk", counted)
    return runs


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_oracle_equivalence_walks_once_per_total(pair, monkeypatch, fresh_j_tables):
    """Both routes at every twist read one table: one run of the level walk,
    with levels 0..6, however many twists the pair has."""
    runs = _counted_level_walks(monkeypatch)
    assert check_oracle_equivalence(pair, n_max=6).ok()
    assert runs == [list(range(7))]


def _corrupted_j_classes(fault: str):
    """``_j_classes`` with one fault at total 2.  "member-moved" moves the
    last member of the second class to the front of the first, where the
    oracle scans it, and "member-filed-last" to its end; "sector-shifted"
    moves the first member's own sector by +1 in its first coordinate."""
    real = genfun._j_classes

    def table(pair, orders):
        classes = list(real(pair, orders))
        first, second, *rest = [list(members) for members in classes[2]]
        if fault == "member-moved":
            first.insert(0, second.pop())
        elif fault == "member-filed-last":
            first.append(second.pop())
        else:
            degs, fact, sector = first[0]
            moved = ((sector[0] + 1) % pair.fermat.exponents[0],) + sector[1:]
            first[0] = (degs, fact, moved)
        classes[2] = tuple(tuple(members) for members in [first, second, *rest] if members)
        return tuple(classes)

    return table


@pytest.mark.parametrize("fault", ["member-moved", "member-filed-last", "sector-shifted"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_corrupted_j_table_fails_both_j_checks(pair, fault, monkeypatch, fresh_j_tables):
    """Sharing the table does not merge the two sides: the closed J writes
    each member under its own sector, the oracle scans each class's first
    member, so every fault splits them in oracle-equivalence and in
    mlk-untwisted at every c, c = 0 included."""
    monkeypatch.setattr(genfun, "_j_classes", _corrupted_j_classes(fault))
    reports = [check_oracle_equivalence(pair, n_max=4)] + \
        [check_mlk_untwisted(pair, c, Orders(t_order=4, lam_order=0))
         for c in pair.valid_twists()]
    for report in reports:
        assert not report.ok() and report.witness["kind"] == "coefficient", report.check


def test_reference_rebuilds_see_a_multidegree_filed_last_in_another_class(
        monkeypatch, fresh_j_tables):
    """A multidegree filed behind another class's first member keeps its own
    sector on the closed route, which matches its per-twist rebuild, and
    gets that class's duals on the oracle route, which moves away from the
    direct scan."""
    monkeypatch.setattr(genfun, "_j_classes", _corrupted_j_classes("member-filed-last"))
    pair, orders = quintic(), Orders(t_order=4, lam_order=0)
    assert untwisted_j(pair, 0, orders).terms == _per_twist_closed_terms(pair, 0, orders)
    assert untwisted_j_oracle(pair, 0, orders).terms != \
        _direct_scan_oracle_terms(pair, 0, orders)


# sha256 of the sorted-key JSON of serialize_series; the closed form and the
# oracle agree, so one digest covers both routes.  "cN" is twist N at
# Orders(t_order=6, lam_order=0); "T8" is c=0 at recommended_orders(p, 8, 4).
J_GOLDEN = {
    ("quintic", "c0"): "54ea0c4ec276510b491768bd22f01c1779d9fa41c7bb9b0627a1099b4b8f8a6e",
    ("quintic", "c1"): "aa0b86a37ae81f61ecd32e4e0d9a6a7d96ac423f6cbab94febf80e3f5c3c8982",
    ("quintic", "c2"): "72f5ff038475f852eb6a5e69a41db9e5881875ec070c43d146d214c3ea6cf03f",
    ("quintic", "c3"): "195edae34d9ce3b6e9dbf72781d0a3e256906e81a5e90f4b4c83b5f266e6ec5f",
    ("quintic", "c4"): "4c956df7b28c3ba9f4a5f1577e0d2ddb6d98e89783686888ed4e14e1cfbe2cd9",
    ("quintic", "T8"): "7d58c21b887b3a69a5e5e05f5d027559183132b14e62b308e1dab807d6025a60",
    ("cubic", "c0"): "5a687a828d8e258a87a470ee6f291fa2c6fba3133f12161acc44e048132c2b54",
    ("cubic", "c1"): "2196914fd6effcecf5e4db5bc9c2483322dd290d444783b20d3cca2336e2fee6",
    ("cubic", "c2"): "7b656881b9eb3ed1f1df570a377fab1a94c3b85be8ddfb354c0420bfd27ef0be",
    ("cubic", "T8"): "561af959f6677175d3b7c10c60e2018e1366bcca1707ac62522c376e0e2cc49c",
    ("quartic", "c0"): "ab9b51503c193c5f478f1d0805d9f8737a818ee0a13b3da738c208764b5ca2df",
    ("quartic", "c1"): "3c790482698493ab3cf393e16e3124676f9b1c32c82429b9d0dd05be06da294c",
    ("quartic", "c2"): "bc24a1b36a2d429f28f5e5dc05d9fc1cd4b91e414bd5270812b87d547d27944c",
    ("quartic", "c3"): "6238b823a27ced90347addfc5f68b4997b724f86ef27eca4bff9c5385dd0a07f",
    ("sextic", "c0"): "e259e8c4032e248dc18874a0197b653de2d3c3d430e66a5289c48866dc6b6db4",
    ("sextic", "c1"): "a1efa96f60da0f415f657bc1d65a6e65c0f1df9cea8b44df2896216b2db8697c",
}


def test_j_golden_covers_every_valid_twist():
    for name, pair in shipped_pairs().items():
        labels = {label for (n, label) in J_GOLDEN if n == name} - {"T8"}
        assert labels == {f"c{c}" for c in pair.valid_twists()}


@pytest.mark.parametrize("name,label", sorted(J_GOLDEN),
                         ids=[f"{n}-{l}" for n, l in sorted(J_GOLDEN)])
def test_j_routes_golden_digests(name, label):
    pair = shipped_pairs()[name]
    if label == "T8":
        c, orders = 0, recommended_orders(pair, 8, 4)
    else:
        c, orders = int(label[1:]), Orders(t_order=6, lam_order=0)
    for build in (untwisted_j, untwisted_j_oracle):
        text = json.dumps(serialize_series(build(pair, c, orders)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == J_GOLDEN[name, label], \
            build.__name__


# The same digest for the I- and H-builders at recommended_orders(p, 6, 3).
IH_GOLDEN = {
    ("quintic", "i_function_x"): "9ffd2c351214ede26fe74d520faa10fd01229a9e4d1b13fe90a6847367adede3",
    ("quintic", "i_function_y"): "719f8bfb213f3590e1b63e0db5e9258c21179386ba0c9c1acaf37d7367f206da",
    ("quintic", "h_function_x"): "a2c7bb6fb921d45d97f2a971e32f8a38931d5ae34d9c031357bd921a71700c79",
    ("quintic", "h_function_y"): "b239b75117bb2579b0198742e2554e56354a80c31392b1b62caf0791944baff8",
    ("quintic", "h_continued"): "fa69f47d95a6af86048bdfcbf33159e299933489a1ef8950868b6525b09e8461",
    ("quintic", "fjrw_i_function"): "c55a752ee8fff34ed3e6bbce3b2b5dbba1314a173581709009ca92f7e5e641c2",
    ("cubic", "i_function_x"): "eb7f932b869ce5cd2e9df9635317578de476641b4c234f945466e6c71edf52ea",
    ("cubic", "i_function_y"): "f18c5ff50bc1d3cecacb3abd0e9ab298ceb58d2d21a00e77d0b6a9c28f6d418a",
    ("cubic", "h_function_x"): "e0fbef504a7fb0c51d18d2aa8ebb5fc524fd34b15215bc848d639dec6f81057d",
    ("cubic", "h_function_y"): "5945f3ba73f169076f9d8b6f24689f0e1115b755d65471203bbe42d506d740fe",
    ("cubic", "h_continued"): "48d208fe4c37dd4abb56fb6f340d56b50d9837a18e7c471af2fa474320091f0d",
    ("cubic", "fjrw_i_function"): "49ba03550ece0f1f5862d10b5b47ebe6cf2e84ee476146d69b0832e588bf8afd",
    ("quartic", "i_function_x"): "6d992ce3368f25f9ad023f1f44c9bad121c07fe70603f10c2c72437ec3f2836b",
    ("quartic", "i_function_y"): "fcdc31c1a1392879626e752ebfe3c995f0574af14480fa965a90b04be32cca98",
    ("quartic", "h_function_x"): "4ba0dbd95f0cbe675ad54d526a27dbc1e5b1df0e6b5e7e1191e47497b2dcb9d5",
    ("quartic", "h_function_y"): "20cdcdf40fd880192ecf1df899139fe661f7fed16f125ea0044efaa167f08db4",
    ("quartic", "h_continued"): "a4332afc4811a82e35e5eb5f3c095e29a1fda9f441b6e2bff7d408a0de708b5e",
    ("quartic", "fjrw_i_function"): "5a12930feeca91de45d417a16fa2fb1cf2beccc64cbcd58946d671c1a41e159a",
    ("sextic", "i_function_x"): "596ad739c9a42ac7d54bd3600b7737c14641c7863af1056f0b6e3c0f1f3b946c",
    ("sextic", "i_function_y"): "b5a94a932d7db79cfc251dbe733a54116ed336481fa37f515a15593e9d60db9a",
    ("sextic", "h_function_x"): "5bd1b62be65d92706446da4503f6b46b9866b5db6d220c69a9491465922ea036",
    ("sextic", "h_function_y"): "539ac7a5f4cd9bf2aca8c2af091a7aa9279d612b813723e1f9143a823e8bfe4c",
    ("sextic", "h_continued"): "40ee94f7df2bd2f7144b6a917d630ccbba6023bd91a9baf1de015ad5ff932151",
    ("sextic", "fjrw_i_function"): "a3edcf6f5a8d782406c43db2e3ea8cdb3806513c2ee9ea7b13caab9bd44c5d16",
}
IH_BUILDERS = {fn.__name__: fn for fn in (i_function_x, i_function_y, h_function_x,
                                          h_function_y, h_continued, fjrw_i_function)}

# sha256 of the sorted-key JSON of [[check, status, witness], ...] from
# run_checks(p, ALL_CHECKS, recommended_orders(p, 5, 3)); every check passes
# on every shipped pair, so the digest is the same for all four.
CHECKS_GOLDEN = "3d86b0a80f877dba439e42799b09f36ab053753a8178d1baf1c886ce232153b4"


@pytest.mark.parametrize("name,builder", sorted(IH_GOLDEN),
                         ids=[f"{n}-{b}" for n, b in sorted(IH_GOLDEN)])
def test_ih_builders_golden_digests(name, builder):
    pair = shipped_pairs()[name]
    series = IH_BUILDERS[builder](pair, recommended_orders(pair, 6, 3))
    text = json.dumps(serialize_series(series), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == IH_GOLDEN[name, builder]


@pytest.mark.parametrize("name", sorted(shipped_pairs()))
def test_check_reports_golden_digest(name):
    pair = shipped_pairs()[name]
    reports = run_checks(pair, ALL_CHECKS, recommended_orders(pair, 5, 3))
    text = json.dumps([[r.check, r.status, r.witness] for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHECKS_GOLDEN


# The same digest of self_test(p, recommended_orders(p, 4, 2)): one failing
# report per check, so every fault witness is pinned.
SELF_TEST_GOLDEN = {
    "cubic": "203128173bce2b1e1b5519baf7dd15ac93499041cb87216af534efcc02e26a85",
    "quartic": "d0c217086980288400655712ce891893b5b085e55832b5bfbdcfaf21c0df1491",
    "quintic": "8cf4bcedd294e6531345544b9a18d609c715a3840cc15f2958cea679fb605f28",
    "sextic": "01b6bc0c4ebd6824052f22fb75a114104f23ee9af51cd4b68d1fc76d81eb120b",
}


@pytest.mark.parametrize("name", sorted(SELF_TEST_GOLDEN))
def test_self_test_witnesses_golden_digest(name):
    pair = shipped_pairs()[name]
    reports = self_test(pair, recommended_orders(pair, 4, 2))
    assert not any(r.ok() for r in reports)
    text = json.dumps([[r.check, r.status, r.witness] for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SELF_TEST_GOLDEN[name]


def test_string_equation():
    q = quintic()
    orders = Orders(t_order=4, lam_order=0)
    series = untwisted_j(q, 0, orders)
    idx = series.variables.index(q.identity.exps)
    derivative = series.z_ddt_var(idx)
    # both sides at T 3: the keys inside its z-window and t-order
    z_min, z_max = Orders(t_order=3, lam_order=0).z_window

    def kept(key, _):
        return z_min <= key[1] <= z_max and sum(key[2]) <= 3

    assert derivative.filter_terms(kept).compare(series.filter_terms(kept)) is None


# -- the twisted I-function on the quotient-stack side ------------------------------

def test_modification_factor_m70():
    q = quintic()
    ring = SeriesRing(5, 6, 1)
    factor = modification_factor(q, (7,) * 5, ring, -20, 20)  # r_j = 7/5
    expected = ZLaurentSeries(ring, -20, 20, {0: ring.one()})
    linear = ZLaurentSeries(ring, -20, 20, {0: -ring.lam(), 1: ring.scalar(F(-2, 5))})
    for _ in range(5):
        expected = expected * linear
    assert factor == expected


def test_i_function_x_terms():
    q = quintic()
    series = i_function_x(q, Orders(t_order=4, lam_order=3))
    assert series.tokens == ((TOKEN_T_LAMBDA, 1),)
    # k = 0, k0 = 2: M = 1, term z * t^2/(2 z^2)
    assert series.coefficient((q.grading ** 2).exps, -1, (2, 0)) == \
        series.ring_for((2,) * 5).scalar(F(1, 2))
    # leading term z * unit
    assert series.coefficient(q.identity.exps, 1, (0, 0)) == \
        series.ring_for((0,) * 5).one()


def test_i_function_x_requires_cy():
    non_cy = load_pair({"weights": [1, 1, 2, 3], "degree": 6})
    with pytest.raises(ValueError):
        i_function_x(non_cy, Orders(t_order=2, lam_order=2))


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_lambda_divisibility_of_derivative(pair):
    derivative = z_ddt_distinguished(i_function_x(pair, Orders(t_order=5, lam_order=4)))
    assert_lambda_divisibility(derivative)
    # explicit statement: N_g > 0 coefficients at t-degree >= 0 carry lam^{N_g}
    for (exps, z, degs), value in derivative.terms.items():
        n_g = GroupElement(pair.fermat, exps).fixed_dim()
        if n_g > 0 and degs[0] >= 0:
            assert value.lambda_valuation() >= n_g


# -- the toric side -------------------------------------------------------------------

def test_y_ray_levels():
    # levels of v / d as integer numerators over d
    assert y_ray_levels(1, 5) == ((), (1,))
    assert y_ray_levels(7, 5) == ((), (7, 2))
    assert y_ray_levels(2, 1) == ((), (2, 1))
    assert y_ray_levels(0, 1) == ((), ())
    assert y_ray_levels(-2, 5) == ((), ())
    # ratio form forces numerator factors at negative integers
    assert y_ray_levels(-1, 1) == ((0,), ())
    assert y_ray_levels(-3, 2) == ((-1,), ())


def test_i_function_y_quintic_k0_pieces():
    # k0 = 1 on the quintic: numerator -5(H+lam), one denominator level 1/5
    # per j; the sector j^-1 is empty so the assembled series drops it, but
    # the pieces are what the displayed formula dictates.
    q = quintic()
    assert y_ray_levels(1, 5) == ((), (1,))
    series = i_function_y(q, Orders(t_order=10, lam_order=3))
    assert series.tokens == ((TOKEN_Q_H, 1),)
    # leading term: z * q^(H/tau)-dressed unit on the identity sector
    zero = tuple(0 for _ in series.variables)
    assert series.coefficient(q.identity.exps, 1, zero) == \
        series.ring_for((0,) * 5).one()
    # support: only N_g > 0 sectors, H-powers below nilpotency
    for (exps, z, degs), value in series.terms.items():
        n_g = GroupElement(q.fermat, exps).fixed_dim()
        assert n_g > 0
        assert all(mono[1] < n_g for mono in value.terms)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_h_factorization_both_sides(pair):
    orders = recommended_orders(pair, 5, 3)
    op_x, hx = h_factorization(pair, i_function_x(pair, orders), "x")
    op_y, hy = h_factorization(pair, i_function_y(pair, orders), "y")
    assert hx.tokens == ((TOKEN_T_LAMBDA, 1),)
    assert hy.tokens == ((TOKEN_Q_H, 1),)
    assert op_x == gamma_class_op(pair, "x") and op_y == gamma_class_op(pair, "y")


def test_h_function_x_atom_example():
    q = quintic()
    series = h_function_x(q, Orders(t_order=7, lam_order=3))
    value = series.coefficient((q.grading ** 2).exps, 0, (7, 0))
    [(mono, coeff)] = list(value.terms.items())
    lam, h, tau, atoms = mono
    assert (lam, h, tau) == (0, 0, 0)
    [(atom, exponent)] = atoms
    assert exponent == -5
    assert atom.weight == 1 and atom.offset == F(7, 5) and atom.h_weight == 0
    assert coeff == Cyclotomic.from_rational(5, F(1, math.factorial(7)))


def test_h_function_x_k0_zero_term():
    q = quintic()
    series = h_function_x(q, Orders(t_order=3, lam_order=2))
    value = series.coefficient(q.identity.exps, 0, (0, 0))
    [(mono, coeff)] = list(value.terms.items())
    assert coeff == Cyclotomic.one(5)
    # all atom offsets are 0 and the multiset collapses to one key
    [(atom, exponent)] = mono[3]
    assert atom.offset == 0 and exponent == -5


def test_h_function_age_z_bookkeeping():
    # sextic sector j^4 has age 2, so each t^{j^4} power shifts z up by one
    s = sextic()
    series = h_function_x(s, recommended_orders(s, 4, 2))
    j4 = (s.grading ** 4).exps
    idx = series.variables.index(j4)
    degs = tuple(2 if i == idx else 0 for i in range(len(series.variables)))
    keys = [k for k in series.terms if k[2] == degs]
    assert keys and all(k[1] == 2 for k in keys)


NON_SL_PAIR = load_pair({"weights": [1] * 5, "degree": 5, "generators": [[1, 0, 0, 0, 0]]})
NON_CY_PAIR = load_pair({"weights": [1, 1, 2, 3], "degree": 6})


def test_non_integral_ages_refused_by_every_h_builder():
    # generator (1,0,0,0,0) puts non-integral ages on the indexing sectors;
    # the I-functions still build, every H-builder refuses the z-grading.
    # At T = 0 no index touches such a sector: the refusal comes up front,
    # and the table carries no shift or age.
    assert not NON_SL_PAIR.is_sl
    for t_order in (0, 1):
        orders = Orders(t_order=t_order, lam_order=1)
        for side in ("x", "y"):
            table = _index_tables(NON_SL_PAIR, orders)[side]
            assert all(term.shift is None and term.age is None for term in table)
            if t_order == 0:
                assert table and all(
                    GroupElement(NON_SL_PAIR.fermat, term.sector).age().denominator == 1
                    for term in table)
        series = {"x": i_function_x(NON_SL_PAIR, orders), "y": i_function_y(NON_SL_PAIR, orders)}
        assert series["x"].terms and series["y"].terms
        for build in (h_function_x, h_function_y, h_continued):
            with pytest.raises(ValueError, match="SL"):
                build(NON_SL_PAIR, orders)
        for side in ("x", "y"):
            with pytest.raises(ValueError, match="SL"):
                h_factorization(NON_SL_PAIR, series[side], side)


def test_every_builder_refuses_an_unsupported_pair_before_its_walk(monkeypatch):
    """The H builders, the factorization and the FJRW I-function refuse a
    non-SL pair, and the I builders a non-CY pair, with ValueError from
    ``LGPair.require_sl`` or ``require_cy`` before the index table is read."""
    orders = Orders(t_order=2, lam_order=1)
    i_series = {"x": i_function_x(NON_SL_PAIR, orders), "y": i_function_y(NON_SL_PAIR, orders)}

    def no_table(*_):
        raise AssertionError("a builder walked the index table of an unsupported pair")

    monkeypatch.setattr(genfun, "_index_tables", no_table)
    for build in (h_function_x, h_function_y, h_continued, fjrw_i_function):
        with pytest.raises(ValueError, match="SL"):
            build(NON_SL_PAIR, orders)
    for side in ("x", "y"):
        with pytest.raises(ValueError, match="SL"):
            h_factorization(NON_SL_PAIR, i_series[side], side)
    for build in (i_function_x, i_function_y):
        with pytest.raises(ValueError, match="Calabi-Yau"):
            build(NON_CY_PAIR, orders)


def test_identity_error_requires_a_witness():
    with pytest.raises(TypeError):
        IdentityError("no witness")


def test_h_factorization_detects_corruption():
    q = quintic()
    orders = Orders(t_order=4, lam_order=2)
    series = i_function_x(q, orders)
    key = sorted(series.terms)[2]
    broken = series._replace_terms({**series.terms,
                                    key: series.terms[key] * 2})
    with pytest.raises(IdentityError):
        h_factorization(q, broken, "x")


def _first_repeated(terms, key_of):
    """The first index term whose product key an earlier term already had."""
    seen = set()
    for term in terms:
        key = key_of(term)
        if key in seen:
            return term
        seen.add(key)
    raise AssertionError("no repeated product key")


def _repeated_index(pair, side):
    """The degree of the first index whose product (hence whose sector, H
    atoms and z-offset) an earlier index of the same sector already had."""
    product_of = genfun._i_x_product if side == "x" else genfun._i_y_product
    orders = recommended_orders(pair, 6, 3)
    window = genfun._wide_window(orders, pair)
    products = {}
    return _first_repeated(
        _index_tables(pair, orders)[side],
        lambda term: (term.sector, product_of(pair, term, *window, products)[0])).degs


def _doubled_rewrite(monkeypatch, pair, side):
    rewrite = genfun.gamma_shift_product

    # every Gamma ratio doubled: a block of k ratios comes out 2^k times
    # too large, so an I block and an operator block do not cancel
    def doubled(shifts, ring, z_min, z_max):
        return rewrite(shifts, ring, z_min, z_max) * F(2 ** len(shifts))

    monkeypatch.setattr(genfun, "gamma_shift_product", doubled)


def _atoms_moved(term, moved):
    """``term`` with the offset of its first Gamma atom moved by ``moved``."""
    (atom, exp), *rest = term.atoms
    atom = GammaAtom(atom.weight, atom.offset + moved, atom.h_weight)
    atoms = tuple(sorted([(atom, exp)] + rest))
    # keyed by the atoms themselves, equal exactly when the atoms are
    return term._replace(atoms_key=atoms, atoms=atoms)


def _moved_atom(moved, repeated_only=False):
    """The first H atom of every term of the side's table, or of its first
    repeated index only, moved by ``moved`` in the table."""
    def inject(monkeypatch, pair, side):
        target = _repeated_index(pair, side) if repeated_only else None
        _changed_table_term(monkeypatch, side, target, lambda term: _atoms_moved(term, moved))
    return inject


def _flat(value):
    """The leaves of nested tuples."""
    if isinstance(value, tuple):
        for part in value:
            yield from _flat(part)
    else:
        yield value


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_atoms_keys_are_integers_equal_exactly_when_the_atoms_are(pair, side):
    """The H builders and the factorization walk key their blocks and values
    on the table's atoms key: it holds only ints and it names the atoms one
    to one on every index of the side's table, so the sharing is that of
    keying on the atoms themselves."""
    by_key, by_atoms = {}, {}
    for term in _index_tables(pair, recommended_orders(pair, 8, 3))[side]:
        key, atoms = term.atoms_key, term.atoms
        assert all(type(leaf) is int for leaf in _flat(key))
        assert by_key.setdefault(key, atoms) == atoms
        assert by_atoms.setdefault(atoms, key) == key
    assert len(by_key) == len(by_atoms) > 1


@pytest.mark.parametrize("side", ["x", "y"])
def test_factorization_checks_terms_whose_product_is_reused(side):
    """A term whose product comes out of the per-walk dict is still checked:
    tampering its stored I coefficient must fail naming its sector and degree."""
    p = quartic()
    orders = recommended_orders(p, 6, 3)

    def key_of(term):
        if side == "x":
            return term.r_num
        return (term.ring.nilpotency, term.degs[0], term.v_num)

    target = _first_repeated(_index_tables(p, orders)[side], key_of)
    sector = target.sector
    series = (i_function_x if side == "x" else i_function_y)(p, orders)
    key = next(k for k in sorted(series.terms)
               if k[0] == sector and k[2] == target.degs)
    broken = series._replace_terms({**series.terms, key: series.terms[key] * 2})
    with pytest.raises(IdentityError) as caught:
        h_factorization(p, broken, side)
    assert caught.value.witness["sector"] == list(sector)
    assert caught.value.witness["degree"] == list(target.degs)


@pytest.mark.parametrize("side", ["x", "y"])
def test_factorization_residual_names_the_first_bad_coefficient(monkeypatch, side):
    """A wrong Gamma-shift rewrite leaves the stored I series a true clamp but
    the two sides of the identity apart: the residual assert must name the
    first bad coefficient with both of its values."""
    p = quartic()
    series = (i_function_x if side == "x" else i_function_y)(p, recommended_orders(p, 6, 3))
    _doubled_rewrite(monkeypatch, p, side)
    with pytest.raises(IdentityError, match=f"residual on the {side.upper()} side") as caught:
        h_factorization(p, series, side)
    assert set(caught.value.witness) == {"sector", "z", "degree", "left", "right"}


def _assert_reused_h_term_tamper_fails(side, tamper):
    """On the first index whose Gamma atoms an earlier index of the table
    shares, the stored H term changed by ``tamper`` fails naming its sector
    and degree."""
    p = quartic()
    orders = recommended_orders(p, 6, 3)
    table = _index_tables(p, orders)[side]
    if side == "x":
        target = _first_repeated(table, lambda term: term.r_num)
        i_series, h_series = i_function_x(p, orders), h_function_x(p, orders)
    else:
        target = _first_repeated(table, lambda term: (term.degs[0], term.v_num))
        i_series, h_series = i_function_y(p, orders), h_function_y(p, orders)
    gamma = gamma_class_op(p, side)
    sector = target.sector
    key = next(k for k in sorted(h_series.terms)
               if k[0] == sector and k[2] == target.degs)
    broken = h_series._replace_terms({**h_series.terms, key: tamper(h_series.terms[key])})
    _verify_factorization(p, side, i_series, h_series, gamma)
    with pytest.raises(IdentityError, match="H-function term") as caught:
        _verify_factorization(p, side, i_series, broken, gamma)
    assert caught.value.witness == {"sector": list(sector), "degree": list(target.degs)}


@pytest.mark.parametrize("side", ["x", "y"])
def test_h_term_check_runs_on_terms_whose_atoms_are_reused(side):
    """A term whose Gamma atoms an earlier term shares is still checked:
    tampering its stored H coefficient must fail naming its sector and
    degree."""
    _assert_reused_h_term_tamper_fails(side, lambda value: value * 2)


@pytest.mark.parametrize("side", ["x", "y"])
def test_h_term_check_compares_the_stored_atoms(side):
    """The H-term check reads the stored term's atoms as well as its
    coefficient: its first Gamma atom moved by 1 fails naming the term."""
    def atom_moved(value):
        [((lam, h, tau, ((atom, exp), *rest)), coeff)] = value.terms.items()
        moved = GammaAtom(atom.weight, atom.offset + 1, atom.h_weight)
        return SectorValue(value.ring, {(lam, h, tau, tuple(sorted([(moved, exp)] + rest))):
                                        coeff})

    _assert_reused_h_term_tamper_fails(side, atom_moved)


@pytest.mark.parametrize("side", ["x", "y"])
def test_h_term_check_compares_every_coordinate_of_the_coefficient(side):
    """The H-term check compares the stored cell with 1/fact in integers on
    every coordinate of Q(xi): 1/fact + xi in its place fails naming the
    term."""
    def xi_added(value):
        [(key, coeff)] = value.terms.items()
        return SectorValue(value.ring, {key: coeff + Cyclotomic.root(coeff.order)})

    _assert_reused_h_term_tamper_fails(side, xi_added)


@pytest.mark.parametrize("pair", [quintic(), quartic()], ids=lambda p: p.name)
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("moved, match, witness", [
    (F(1), "residual", {"sector", "z", "degree", "left", "right"}),
    (F(1, 2), "unpaired", {"sector", "degree", "atom"})], ids=["integer", "half"])
def test_factorization_catches_a_wrong_h_atom(monkeypatch, side, pair, moved, match,
                                              witness):
    """H's atoms enter the operator side: moving one atom's offset by an
    integer leaves a residual, and by a non-integer leaves it unpaired."""
    series = (i_function_x if side == "x" else i_function_y)(
        pair, recommended_orders(pair, 5, 3))
    _moved_atom(moved)(monkeypatch, pair, side)
    with pytest.raises(IdentityError, match=match) as caught:
        h_factorization(pair, series, side)
    assert set(caught.value.witness) == witness


# -- the per-key factorization check against the per-term route ----------------------

def _clamped(terms, window):
    """The terms of a z -> SectorValue dict inside ``window``."""
    z_min, z_max = window
    return {z: value for z, value in terms.items() if z_min <= z <= z_max}


def _atom_value(ring, atoms, scale):
    """The H closed form of one index: scale times the Gamma-atom monomial,
    through the public constructor."""
    return SectorValue(ring, {(0, 0, 0, atoms): scale})


def _i_value(product, scale, offset, window):
    """The I coefficient of one index as a z -> SectorValue dict: scale times
    its product at each z + offset inside ``window``."""
    return _clamped({z + offset: value * scale for z, value in product.terms.items()}, window)


def _dict_product(left, right, window):
    """left times right for z -> SectorValue dicts, clamped to ``window``,
    with the zeros dropped."""
    out = {}
    for z1, v1 in left.items():
        for z2, v2 in right.items():
            z = z1 + z2
            out[z] = out[z] + v1 * v2 if z in out else v1 * v2
    return {z: value for z, value in _clamped(out, window).items() if not value.is_zero()}


def _assert_no_term_residual(lhs, rhs, side, sector, degs):
    """The two sides of one term's factorization agree at every z; the
    witness is the first z where they differ, with both values."""
    if lhs != rhs:
        z_bad = min(z for z in lhs.keys() | rhs.keys() if lhs.get(z) != rhs.get(z))
        raise IdentityError(
            f"Gamma factorization residual on the {side} side",
            {"sector": list(sector), "z": z_bad, "degree": list(degs),
             "left": str(lhs.get(z_bad, 0)), "right": str(rhs.get(z_bad, 0))})


def _per_term_factorization(pair, side, i_series, h_series, gamma):
    """The factorization check term by term: every term rebuilds its I value
    for the clamp compare and its H closed form as a ``SectorValue``, and
    forms lhs and rhs as z -> SectorValue dicts with scale and z-power in
    them, through no ``ZLaurentSeries`` operation.  scale is 1 over the
    factorial product of the term's degree, all of it on X and all but k0
    on Y, not over the table's fact.  The H atoms are the table's.  The
    Gamma-ratio blocks come from ``genfun._gamma_ratio_blocks``; their
    values are checked against the per-factor route in ``test_exactalg``,
    their pairing against ``_fraction_ratio_blocks``."""
    if side == "x":
        product_of, first = genfun._i_x_product, 0
    else:
        product_of, first = genfun._i_y_product, 1
    window = genfun._wide_window(i_series.orders, pair)
    z_min, z_max = i_series.orders.z_window
    products, blocks = {}, {}
    for term in genfun._index_tables(pair, i_series.orders)[side]:
        sector, ring, atoms = term.sector, term.ring, term.atoms
        age = int(GroupElement(pair.fermat, sector).age())
        shift = term.shift
        scale = F(1, math.prod(math.factorial(k) for k in term.degs[first:]))
        _, product = product_of(pair, term, *window, products)
        i_value = _i_value(product, scale, term.offset, window)
        stored = {z: i_series.terms[sector, z, term.degs]
                  for z in range(z_min, z_max + 1)
                  if (sector, z, term.degs) in i_series.terms}
        if stored != _clamped(i_value, (z_min, z_max)):
            raise IdentityError(f"I^{side.upper()}: stored series is not the declared clamp",
                                {"sector": list(sector), "degree": list(term.degs)})
        if z_min <= shift <= z_max and h_series.coefficient(sector, shift, term.degs) \
                != _atom_value(ring, atoms, scale):
            raise IdentityError("H-function term disagrees with its closed form",
                                {"sector": list(sector), "degree": list(term.degs)})
        key = (sector, atoms)
        if key not in blocks:
            blocks[key] = genfun._gamma_ratio_blocks(gamma[sector], atoms, ring, window,
                                                     sector, term.degs, {})
        i_block, block = blocks[key]
        lhs = i_value if i_block is None else _dict_product(i_value, i_block.terms, window)
        rhs = _clamped({z + shift + 1 - age: value * scale for z, value in block.terms.items()},
                       window)
        _assert_no_term_residual(lhs, rhs, side.upper(), sector, term.degs)


def _changed_table_term(monkeypatch, side, target, change):
    """``genfun._index_tables`` with ``change`` applied to the term of
    ``side`` whose degree is ``target``, or to every term of ``side`` when
    ``target`` is None."""
    index_tables = genfun._index_tables

    def changed(p, orders):
        tables = dict(index_tables(p, orders))
        tables[side] = tuple(change(term) if target in (None, term.degs) else term
                             for term in tables[side])
        return tables

    monkeypatch.setattr(genfun, "_index_tables", changed)


def _moved_z_shift_on_a_repeated_index(monkeypatch, pair, side):
    _changed_table_term(monkeypatch, side, _repeated_index(pair, side),
                        lambda term: term._replace(shift=term.shift + 1))


def _doubled_table_fact(monkeypatch, pair, side):
    """The table's fact doubled on the side's first index of t-degree >= 2,
    which the I and H builders read and the check's own factorial does not."""
    table = genfun._index_tables(pair, recommended_orders(pair, 6, 3))[side]
    target = next(term.degs for term in table if sum(term.degs) >= 2)
    _changed_table_term(monkeypatch, side, target,
                        lambda term: term._replace(fact=term.fact * 2))


def _doubled_product_on_a_repeated_index(monkeypatch, pair, side):
    target = _repeated_index(pair, side)
    name = "_i_x_product" if side == "x" else "_i_y_product"
    product_of = getattr(genfun, name)

    def doubled(p, term, z_min, z_max, products):
        key, product = product_of(p, term, z_min, z_max, products)
        if term.degs == target:
            return ("doubled", key), product * F(2)
        return key, product

    monkeypatch.setattr(genfun, name, doubled)


FACTORIZATION_FAULTS = {
    "none": None,
    "gamma-shift-doubled": _doubled_rewrite,
    "h-atom-moved-by-1": _moved_atom(F(1)),
    "h-atom-moved-by-half": _moved_atom(F(1, 2)),
    # an index that shares its product, blocks and z-offset with an earlier
    # one, made to differ from it by its z-offset, its H atoms or its product
    "z-shift-moved-on-a-repeated-index": _moved_z_shift_on_a_repeated_index,
    "h-atom-moved-on-a-repeated-index": _moved_atom(F(1), repeated_only=True),
    "i-product-doubled-on-a-repeated-index": _doubled_product_on_a_repeated_index,
    "i-fact-doubled": _doubled_table_fact,
}


def _changed_middle_coefficient(change):
    def tamper(series):
        key = sorted(series.terms)[len(series.terms) // 2]
        return series._replace_terms({**series.terms, key: change(series.terms[key])})
    return tamper


def _tau_moved(value):
    return value.map_monomials(lambda key, coeff: ((key[0], key[1], key[2] + 1, key[3]), coeff))


# faults in the stored I series, which the clamp assert must catch
STORED_FAULTS = {
    "i-coefficient-doubled": _changed_middle_coefficient(lambda value: value * 2),
    "i-monomials-moved": _changed_middle_coefficient(_tau_moved),
    "i-monomials-added": _changed_middle_coefficient(lambda value: value + _tau_moved(value)),
    "i-ring-widened": _changed_middle_coefficient(lambda value: value.with_ring(
        SeriesRing(value.ring.order, value.ring.lam_order + 1, value.ring.nilpotency))),
}


def _assert_routes_agree(monkeypatch, pair, side, fault, orders):
    """Under ``fault``, the per-key check and the term-by-term route give
    the same message and witness at ``orders``; the outcome is returned."""
    inject = FACTORIZATION_FAULTS.get(fault)
    if inject is not None:
        inject(monkeypatch, pair, side)
    i_series = (i_function_x if side == "x" else i_function_y)(pair, orders)
    if fault in STORED_FAULTS:
        i_series = STORED_FAULTS[fault](i_series)
    h_series = (h_function_x if side == "x" else h_function_y)(pair, orders)
    gamma = gamma_class_op(pair, side)

    def outcome(check):
        try:
            check(pair, side, i_series, h_series, gamma)
        except IdentityError as err:
            return str(err), err.witness
        return None

    expected = outcome(_per_term_factorization)
    assert outcome(_verify_factorization) == expected
    return expected


@pytest.mark.parametrize("fault", sorted(FACTORIZATION_FAULTS) + sorted(STORED_FAULTS))
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_per_key_check_agrees_with_the_per_term_route(monkeypatch, pair, side, fault):
    """Per-key residuals and the integer clamp compare give the message and
    witness of the term-by-term route, under every fault."""
    expected = _assert_routes_agree(monkeypatch, pair, side, fault,
                                    recommended_orders(pair, 6, 3))
    assert (expected is None) == (fault == "none")


@pytest.mark.parametrize("fault", sorted(FACTORIZATION_FAULTS) + sorted(STORED_FAULTS))
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_per_key_check_agrees_with_the_per_term_route_at_a_narrow_window(
        monkeypatch, pair, side, fault):
    """The same agreement at T 3 with the z-window [-1, 0], where the
    per-key products and the per-term values clamp furthest apart."""
    expected = _assert_routes_agree(monkeypatch, pair, side, fault,
                                    Orders(t_order=3, lam_order=2, z_min=-1, z_max=0))
    # no nonzero key of the quintic, or of the cubic's X side, has a Gamma
    # ratio at these orders: a doubled rewrite changes nothing there; the
    # sextic's first Y index of t-degree 2 keeps neither an I key nor its H
    # term in this window, so its doubled fact changes nothing stored
    if fault != "gamma-shift-doubled":
        invisible = (fault, pair.name, side) == ("i-fact-doubled", "sextic", "y")
        assert (expected is None) == (fault == "none" or invisible)


def _fraction_ratio_blocks(gamma_atoms, h_atoms, ring, window, sector, degs):
    """``genfun._gamma_ratio_blocks`` pairing the atoms by their Fraction
    fields: weights compared as Fractions, the gap by Fraction subtraction."""
    pool = {atom: -exp for atom, exp in h_atoms}
    unpaired, i_shifts, shifts = [], [], []
    for atom, exp in gamma_atoms:
        for _ in range(exp):
            weights = (atom.weight, atom.h_weight)
            partner = next((h for h, left in pool.items()
                            if left > 0 and (h.weight, h.h_weight) == weights
                            and (h.offset - atom.offset).denominator == 1), None)
            if partner is None:
                unpaired.append(atom)
                continue
            pool[partner] -= 1
            n = int(partner.offset - atom.offset)
            if n:
                ratio = (*weights, min(atom.offset, partner.offset), abs(n))
                (shifts if n > 0 else i_shifts).append(ratio)
    unpaired += [h for h, left in pool.items() if left]
    if unpaired:
        raise IdentityError("Gamma atom left unpaired by the integer-gap rewrite",
                            {"sector": list(sector), "degree": list(degs),
                             "atom": str(unpaired[0])})

    def block(ratios):
        # each Fraction ratio as integers over its common denominator
        entries = []
        for weight, h_weight, base, steps in ratios:
            q = math.lcm(weight.denominator, h_weight.denominator, base.denominator)
            entries.append((q, int(weight * q), int(h_weight * q), int(base * q), steps))
        return genfun.gamma_shift_product(entries, ring, *window)

    return (block(i_shifts) if i_shifts else None), block(shifts)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_integer_pairing_agrees_with_the_fraction_pairing(pair, side):
    """The atom pairing in integer numerators gives the blocks, or the
    unpaired witness, of the pairing in Fractions, on every (sector, H atoms)
    of the side's table and with its first H atom moved by 1 or by 1/2."""
    orders = recommended_orders(pair, 6, 3)
    window = genfun._wide_window(orders, pair)
    gamma = gamma_class_op(pair, side)

    def outcome(pairing, *args):
        try:
            return pairing(*args)
        except IdentityError as err:
            return str(err), err.witness

    seen, outcomes = set(), set()
    for term in _index_tables(pair, orders)[side]:
        atoms = term.atoms
        if (term.sector, atoms) in seen:
            continue
        seen.add((term.sector, atoms))
        gamma_atoms = gamma[term.sector]
        (atom, exp), *rest = atoms
        for moved in (F(0), F(1), F(1, 2)):
            h_atoms = tuple(sorted([(GammaAtom(atom.weight, atom.offset + moved,
                                               atom.h_weight), exp)] + rest))
            args = (gamma_atoms, h_atoms, term.ring, window, term.sector, term.degs)
            expected = outcome(_fraction_ratio_blocks, *args)
            assert outcome(genfun._gamma_ratio_blocks, *args, {}) == expected
            outcomes.add(isinstance(expected[1], ZLaurentSeries))
    # both the blocks and the unpaired witness were compared
    assert outcomes == {True, False}


def _other_sector(pair, side, sector):
    """A group element other than ``sector``, on side y one of the same N_g
    where the group has one, so that a value filed there lies in that
    sector's ring."""
    others = [g.exps for g in pair.group.elements if g.exps != sector]
    if side == "y":
        return min(others, key=lambda exps: (exps.count(0) != sector.count(0), exps))
    return others[0]


def _stray_key(pair, side, series, place):
    """(key, stray): a key of ``series`` and a key it lacks, the stray at a
    z of the window that the key's (sector, degree) leaves free (``place``
    "z") or at the key's z and degree under another sector ("sector")."""
    z_min, z_max = series.orders.z_window
    if place == "z":
        sector, z, degs = next(
            key for key in sorted(series.terms)
            if any((key[0], free, key[2]) not in series.terms
                   for free in range(z_min, z_max + 1)))
        free = next(w for w in range(z_min, z_max + 1) if (sector, w, degs) not in series.terms)
        return (sector, z, degs), (sector, free, degs)
    sector, z, degs = key = sorted(series.terms)[len(series.terms) // 2]
    stray = (_other_sector(pair, side, sector), z, degs)
    assert stray not in series.terms
    return key, stray


@pytest.mark.parametrize("place", ["z", "sector"])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_factorization_refuses_a_stored_z_the_closed_form_lacks(pair, side, place):
    """A copy of a stored I coefficient filed at an in-window z that its
    (sector, degree) lacks, or at the same z and degree under another
    sector, fails the clamp assert: each stored key the indices read
    matches its closed form, but the stored keys outnumber the ones they
    read, and the witness is the stray key's sector and degree."""
    orders = recommended_orders(pair, 4, 2)
    series = (i_function_x if side == "x" else i_function_y)(pair, orders)
    key, stray = _stray_key(pair, side, series, place)
    extra = series._replace_terms({**series.terms, stray: series.terms[key]})
    label = f"I^{side.upper()}: stored series is not the declared clamp"
    with pytest.raises(IdentityError, match=re.escape(label)) as caught:
        h_factorization(pair, extra, side)
    assert caught.value.witness == {"sector": list(stray[0]), "degree": list(stray[2])}


@pytest.mark.parametrize("place", ["z", "sector"])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_factorization_refuses_a_stored_h_key_the_closed_form_lacks(pair, side, place):
    """The same for H: a copy of a stored H term filed at another z of its
    (sector, degree), or at its z and degree under another sector, fails
    the H-term assert with the stray key's sector and degree."""
    orders = recommended_orders(pair, 4, 2)
    i_series = (i_function_x if side == "x" else i_function_y)(pair, orders)
    h_series = (h_function_x if side == "x" else h_function_y)(pair, orders)
    key, stray = _stray_key(pair, side, h_series, place)
    extra = h_series._replace_terms({**h_series.terms, stray: h_series.terms[key]})
    gamma = gamma_class_op(pair, side)
    _verify_factorization(pair, side, i_series, h_series, gamma)
    with pytest.raises(IdentityError, match="H-function term disagrees") as caught:
        _verify_factorization(pair, side, i_series, extra, gamma)
    assert caught.value.witness == {"sector": list(stray[0]), "degree": list(stray[2])}


# -- the I and H builders against the route through the public constructors -----------

def _public_route(pair, orders, side, kind):
    """I or H of one side the way the builders formed it before they clipped
    to the window themselves: each I value is the product over fact, shifted
    by the public ``ZLaurentSeries`` constructor, each H value one
    ``_atom_value`` per index, and the series is built by the public
    ``CohSeries`` constructor, which drops the keys outside the window.
    Returns the series and the terms before that constructor."""
    terms, memo = {}, {}
    window = genfun._wide_window(orders, pair)
    for term in _index_tables(pair, orders)[side]:
        scale = F(1, term.fact)
        if kind == "i":
            product_of = genfun._i_x_product if side == "x" else genfun._i_y_product
            _, product = product_of(pair, term, *window, memo)
            value = ZLaurentSeries(product.ring, product.z_min, product.z_max,
                                   {z + term.offset: coeff * scale
                                    for z, coeff in product.terms.items()})
            for z, coeff in value.terms.items():
                terms[(term.sector, z, term.degs)] = coeff
        else:
            terms[(term.sector, term.shift, term.degs)] = \
                _atom_value(term.ring, term.atoms, scale)
    variable = "t" if side == "x" else "q^(1/d)"
    token = TOKEN_T_LAMBDA if side == "x" else TOKEN_Q_H
    variables = (variable,) + tuple(g.exps for g in pair.positive_dim_sectors())
    return CohSeries(side, pair, variables, orders, terms, ((token, 1),)), terms


BUILDERS = {("i", "x"): i_function_x, ("i", "y"): i_function_y,
            ("h", "x"): h_function_x, ("h", "y"): h_function_y}


@pytest.mark.parametrize("kind, side", sorted(BUILDERS))
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_builders_match_the_public_constructor_route(pair, kind, side):
    """I^X, I^Y, H^X and H^Y equal the route through the public
    constructors, key for key and in signature, at the recommended orders
    and at a window that drops keys of that route; the same tampered key
    then fails the factorization check with the same witness on both."""
    narrow = Orders(t_order=3, lam_order=2, z_min=-1, z_max=0)
    for orders in (narrow, recommended_orders(pair, 4, 2)):
        built = BUILDERS[kind, side](pair, orders)
        expected, unclipped = _public_route(pair, orders, side, kind)
        if orders is narrow:
            assert len(unclipped) > len(expected.terms)
        assert built.compare(expected) is None and built.c_twist == expected.c_twist
        assert built.terms and all(value.terms for value in built.terms.values())
        z_min, z_max = orders.z_window
        assert all(z_min <= z <= z_max for _, z, _ in built.terms)
        i_series = (i_function_x if side == "x" else i_function_y)(pair, orders)
        h_series = (h_function_x if side == "x" else h_function_y)(pair, orders)
        gamma = gamma_class_op(pair, side)
        key = sorted(built.terms)[len(built.terms) // 2]

        def outcome(series):
            tampered = series._replace_terms({**series.terms, key: series.terms[key] * 2})
            args = (tampered, h_series) if kind == "i" else (i_series, tampered)
            with pytest.raises(IdentityError) as caught:
                _verify_factorization(pair, side, *args, gamma)
            return str(caught.value), caught.value.witness

        assert outcome(built) == outcome(expected)
        assert outcome(built)[1]["sector"] == list(key[0])


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_scaling_a_product_matches_the_per_z_route(pair, side):
    """``ZLaurentSeries * r`` scales every cell of every z in one pass; on
    every I product of the side's table and for r = 1, -3/7 and 1/120 it
    equals the per-z route, each z's ``SectorValue`` times r, cell for cell
    in the same lowest terms, on the product's ring and window."""
    orders = recommended_orders(pair, 4, 2)
    window = genfun._wide_window(orders, pair)
    product_of = genfun._i_x_product if side == "x" else genfun._i_y_product
    products = {}
    for term in _index_tables(pair, orders)[side]:
        product_of(pair, term, *window, products)
    assert products
    for product in products.values():
        for r in (1, F(-3, 7), F(1, 120)):
            scaled = product * r
            assert scaled.terms == {z: v * r for z, v in product.terms.items()}
            assert scaled.ring is product.ring
            assert (scaled.z_min, scaled.z_max) == (product.z_min, product.z_max)
            assert all(cell.den > 0 and math.gcd(cell.den, *cell.nums) == 1
                       for value in scaled.terms.values() for cell in value.terms.values())


# -- the kept index table ---------------------------------------------------------------

def test_gamma_factorization_builds_each_index_table_once(monkeypatch):
    """I, H and the factorization check of both sides walk one pair of
    tables: on a fresh pair object the check makes one run of the level
    walk, with one level per total degree, which serves X and Y."""
    pair = quartic()
    orders = recommended_orders(pair, 6, 3)
    runs = _counted_level_walks(monkeypatch)
    assert check_gamma_factorization(pair, orders).ok()
    assert runs == [list(range(orders.t_order + 1))]


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_a_doubled_table_fact_fails_the_factorization_check(monkeypatch, pair, side):
    """The check reads its own factorial, so a table fact doubled on one side
    alone fails gamma-factorization with that side's clamp witness on the
    doubled index; on X, which the continued series reads, continuation
    fails as well."""
    orders = recommended_orders(pair, 4, 2)
    _doubled_table_fact(monkeypatch, pair, side)
    target = next(term for term in genfun._index_tables(pair, orders)[side]
                  if sum(term.degs) >= 2)
    build = i_function_x if side == "x" else i_function_y
    with pytest.raises(IdentityError, match=re.escape(
            f"I^{side.upper()}: stored series is not the declared clamp")):
        h_factorization(pair, build(pair, orders), side)
    report = check_gamma_factorization(pair, orders)
    assert report.witness == {"sector": list(target.sector), "degree": list(target.degs)}
    assert check_continuation(pair, orders).ok() == (side == "y")


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_a_moved_table_atom_fails_the_factorization_check(monkeypatch, pair, side):
    """The H builder and the check read one term's atoms from the table, so
    the first atom of one index of t-degree >= 1 moved by 1 there leaves
    the H-term assert passing and fails gamma-factorization on the residual
    of that index."""
    orders = recommended_orders(pair, 4, 2)
    target = next(term for term in _index_tables(pair, orders)[side] if sum(term.degs) >= 1)
    _changed_table_term(monkeypatch, side, target.degs, lambda term: _atoms_moved(term, 1))
    report = check_gamma_factorization(pair, orders)
    assert not report.ok()
    assert set(report.witness) == {"sector", "z", "degree", "left", "right"}
    assert (report.witness["sector"], report.witness["degree"]) == \
        (list(target.sector), list(target.degs))


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("fault", ["gamma-shift-doubled", "h-atom-moved-by-1"])
def test_kept_index_table_keeps_faults_visible(monkeypatch, fault, side):
    """After a clean check, a fault in what the walks derive from the table
    (Gamma shifts) or in the table's own atoms fails the same pair object at
    the same orders with the witness of a fresh pair: no walk keeps a copy
    of either past the check."""
    warm, fresh = quartic(), quartic()
    orders = recommended_orders(warm, 6, 3)
    assert check_gamma_factorization(warm, orders).ok()
    build = i_function_x if side == "x" else i_function_y
    warm_series = build(warm, orders)
    FACTORIZATION_FAULTS[fault](monkeypatch, warm, side)

    def outcome(pair, series):
        with pytest.raises(IdentityError) as caught:
            h_factorization(pair, series, side)
        return str(caught.value), caught.value.witness

    # the table of warm_series is the one kept when the fault goes in
    assert outcome(warm, warm_series) == outcome(fresh, build(fresh, orders))
    rerun = check_gamma_factorization(warm, orders)
    assert not rerun.ok()
    assert rerun.witness == check_gamma_factorization(fresh, orders).witness


# census pairs with larger index tables than the shipped ones (21 and 24
# indexing sectors); the first has indexing sectors of age 0 and 2 only
CENSUS_PAIRS = [
    load_pair({"weights": [1] * 5, "degree": 5, "generators": [[0, 1, 2, 3, 4]]}),
    load_pair({"weights": [1, 1, 1, 1, 2], "degree": 6, "generators": [[0, 1, 3, 4, 2]]}),
]


def _fraction_atoms(pair, degs, a_k, side):
    """(key, atoms) of one index's H coefficient, formed from the Fraction
    values r_j = k0 c_j/d + a(k)^j (X) or v_j = k0 c_j/d - a(k)^j (Y)
    through the ``GammaAtom`` constructor; the key is each atom's fields
    times d, with its exponent."""
    weights, d = pair.fermat.weights, pair.fermat.degree
    k0 = degs[0]
    if side == "x":
        gammas = [GammaAtom(F(cj), F(k0 * cj, d) + a) for cj, a in zip(weights, a_k)]
    else:
        gammas = [GammaAtom(F(d), F(k0), F(d))] + \
            [GammaAtom(F(0), -(F(k0 * cj, d) - a), F(-cj)) for cj, a in zip(weights, a_k)]
    counts = {}
    for atom in gammas:
        counts[atom] = counts.get(atom, 0) - 1
    atoms = tuple(sorted(counts.items()))
    key = tuple(((int(atom.weight * d), int(atom.offset * d), int(atom.h_weight * d)), exp)
                for atom, exp in atoms)
    return key, atoms


def _per_side_index_terms(pair, orders, side):
    """The index table of one side from its own multidegree walk, the way
    each side was built before both came from one walk; fact and the atoms
    are formed here from their formulas."""
    sectors = pair.positive_dim_sectors()
    weights, d, exponents = pair.fermat.weights, pair.fermat.degree, pair.fermat.exponents
    graded = pair.is_sl
    step = pair.grading.exps if side == "x" else tuple(-e for e in pair.grading.exps)
    rows = [(0,) * (len(weights) + 1)] + \
        [g.exps + (sum(e * c for e, c in zip(g.exps, weights)) - d,) for g in sectors]
    table = []
    for total in range(orders.t_order + 1):
        for degs, sums, fact in _multidegree_walk(rows, total):
            k0 = degs[0]
            sector = tuple((s + k0 * e) % m for s, e, m in zip(sums, step, exponents))
            nilpotency = 1 if side == "x" else sector.count(0)
            if not nilpotency:
                continue
            ring = SeriesRing(d, orders.lam_order, nilpotency)
            age = sum(e * c for e, c in zip(sector, weights)) // d if graded else None
            base = tuple(s % m for s, m in zip(sums, exponents))
            r_num = tuple((k0 + s) * cj for s, cj in zip(sums, weights))
            v_num = tuple((k0 - s) * cj for s, cj in zip(sums, weights))
            if side == "x":
                offset = 1 - total
            else:
                fact //= math.factorial(k0)
                offset = 1 - total + k0
            shift = sums[-1] // d if graded else None
            a_k = [F(s * cj, d) for s, cj in zip(sums, weights)]
            atoms_key, atoms = _fraction_atoms(pair, degs, a_k, side)
            table.append(genfun.IndexTerm(
                degs=degs, base=base, fact=fact, offset=offset, r_num=r_num, v_num=v_num,
                shift=shift, age=age, sector=sector, ring=ring, atoms_key=atoms_key,
                atoms=atoms))
    return table


@pytest.mark.parametrize("pair", ALL_PAIRS + CENSUS_PAIRS + [NON_SL_PAIR],
                         ids=lambda p: p.name)
def test_joint_index_tables_equal_the_per_side_walks(pair):
    """Both tables of one walk equal the per-side walks field by field and
    in order, at every T <= 4 and at two lam-orders, also on a non-SL pair,
    whose shift and age are None; the tables are kept per (pair, orders)."""
    genfun._index_tables.cache_clear()
    for t_order in range(5):
        for lam_order in (0, 2):
            orders = recommended_orders(pair, t_order, lam_order)
            tables = _index_tables(pair, orders)
            for side in ("x", "y"):
                table = tables[side]
                expected = _per_side_index_terms(pair, orders, side)
                assert len(table) == len(expected)
                for term, reference in zip(table, expected):
                    for field in genfun.IndexTerm._fields:
                        value, wanted = getattr(term, field), getattr(reference, field)
                        assert value == wanted and type(value) is type(wanted), field
                    assert term.ring is reference.ring
            assert _index_tables(pair, orders) is tables


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS + CENSUS_PAIRS, ids=lambda p: p.name)
def test_index_table_integers_match_the_fraction_formulas(pair, side):
    """Each term's shift, age, fact, offset and atoms, read off the walk's
    integer sums, are sum_s (age(g_s) - 1) k_s, the age of its sector, the
    side's factorial and z-power formulas, and the Gamma atoms of r_j or
    v_j with a(k)^j = sum_s k_s m_j(g_s), all formed here, the atoms in
    Fractions."""
    sectors = pair.positive_dim_sectors()
    weights, d = pair.fermat.weights, pair.fermat.degree
    table = _index_tables(pair, recommended_orders(pair, 3, 2))[side]
    for term in table:
        k = term.degs[1:]
        shift = sum((g.age() - 1) * k_s for g, k_s in zip(sectors, k))
        fact = math.prod(math.factorial(k_s) for k_s in k)
        offset = 1 - sum(k)
        if side == "x":
            fact *= math.factorial(term.degs[0])
            offset -= term.degs[0]
        a_k = [sum((k_s * F(g.exps[j] * cj, d) for g, k_s in zip(sectors, k)), F(0))
               for j, cj in enumerate(weights)]
        assert (term.shift, term.age, term.fact, term.offset) == \
            (shift, GroupElement(pair.fermat, term.sector).age(), fact, offset)
        assert (term.atoms_key, term.atoms) == _fraction_atoms(pair, term.degs, a_k, side)
        assert type(term.shift) is int and type(term.age) is int and type(term.fact) is int
    assert any(term.shift != 0 for term in table)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS + CENSUS_PAIRS, ids=lambda p: p.name)
def test_index_table_sectors_are_the_grading_power_times_base(pair, side):
    """Each index lives on j^(+-k0) base, the product formed here in group
    elements from the table's exponent tuples, and the Y table skips exactly
    the indices whose sector has N_g = 0."""
    orders = recommended_orders(pair, 3, 2)
    sectors = pair.positive_dim_sectors()
    expected = []
    for total in range(orders.t_order + 1):
        for degs in _compositions(len(sectors) + 1, total):
            base = pair.identity
            for g, k in zip(sectors, degs[1:]):
                base = base * g ** k
            shift = pair.grading ** degs[0]
            sector = (shift if side == "x" else shift.inverse()) * base
            if side == "x" or sector.fixed_dim():
                expected.append((degs, base, sector))
    table = _index_tables(pair, orders)[side]
    assert all(type(term.base) is tuple and type(term.sector) is tuple for term in table)
    assert [(term.degs, GroupElement(pair.fermat, term.base),
             GroupElement(pair.fermat, term.sector)) for term in table] == expected
    assert all(term.ring.nilpotency
               == (1 if side == "x" else GroupElement(pair.fermat, term.sector).fixed_dim())
               for term in table)
    if side == "y":
        assert len(expected) < sum(1 for total in range(orders.t_order + 1)
                                   for _ in _compositions(len(sectors) + 1, total))


# -- the product table and the J table -------------------------------------------------

@pytest.mark.parametrize("pair", ALL_PAIRS + CENSUS_PAIRS + [NON_SL_PAIR],
                         ids=lambda p: p.name)
def test_product_table_is_the_group_multiplication(pair):
    """``pair.group.times[a][b]`` is the position of the exponent tuples of
    the elements at positions a and b added mod d/c_j, for every a and b;
    ``pair.group.position`` inverts ``elements``."""
    positions = [g.exps for g in pair.group.elements]
    exponents = pair.fermat.exponents
    assert pair.group.position == {exps: i for i, exps in enumerate(positions)}
    assert [list(row) for row in pair.group.times] == \
        [[positions.index(tuple((x + y) % m for x, y, m in zip(a, b, exponents)))
          for b in positions] for a in positions]


def _reference_j_classes(pair, orders) -> tuple:
    """``_j_classes`` from the reference enumeration: per total, the
    multidegrees grouped by their exponent sums reduced mod d/c_j, each
    member's sector being its own reduced sums; empty where z = 1 - total
    is outside the z-window."""
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


@pytest.mark.parametrize("pair", ALL_PAIRS + CENSUS_PAIRS + [NON_SL_PAIR],
                         ids=lambda p: p.name)
def test_j_classes_equal_the_reference_table(pair, monkeypatch, fresh_j_tables):
    """``_j_classes`` equals the reference table class by class and member
    by member, in order, with every field of every member of the reference's
    value and type, at every T <= 6 (T <= 3 on the groups of order 25 and
    36, whose total 6 alone has 0.6 and 4.5 million multidegrees), also in
    windows that drop totals at either end.  The level walk runs once and
    builds no level above the last total whose z = 1 - total the window
    keeps."""
    top = 6 if len(pair.group) < 10 else 3
    cases = [Orders(t, 0) for t in range(top + 1)] + \
        [Orders(6, 0, z_min=-2), Orders(top, 0, z_max=-1), Orders(top, 0, z_min=2)]
    runs = _counted_level_walks(monkeypatch)
    for orders in cases:
        runs.clear()
        table = genfun._j_classes(pair, orders)
        expected = _reference_j_classes(pair, orders)
        assert type(table) is tuple and len(table) == len(expected) == orders.t_order + 1
        for classes, wanted in zip(table, expected):
            assert type(classes) is tuple and len(classes) == len(wanted), orders
            for members, reference in zip(classes, wanted):
                assert type(members) is tuple and len(members) == len(reference)
                for member, reference_member in zip(members, reference):
                    assert type(member) is tuple and member == reference_member
                    degs, fact, sector = member
                    assert type(degs) is tuple and type(sector) is tuple and type(fact) is int
                    assert all(type(x) is int for x in degs + sector)
        z_min, z_max = orders.z_window
        kept = [total for total in range(orders.t_order + 1) if z_min <= 1 - total <= z_max]
        assert runs == ([list(range(kept[-1] + 1))] if kept else [[]]), orders


# -- the Gamma class as atoms ----------------------------------------------------------

def _transform_gamma_class(pair, side):
    """The Gamma class built as a ``Transform``: per sector one atom-valued
    ``SectorValue`` monomial on the ``SectorBasisElement`` of that sector,
    and an empty block on a Y sector with N_g = 0."""
    d = pair.fermat.degree
    blocks = {}
    for g in pair.group.elements:
        if side == "x":
            ring = SeriesRing(d, 0, 1)
            atoms = {}
            for j, cj in enumerate(pair.fermat.weights):
                atom = GammaAtom.over(d, cj * d, g.exps[j] * cj)
                atoms[atom] = atoms.get(atom, 0) + 1
        else:
            n_g = g.fixed_dim()
            if n_g == 0:
                blocks[g.exps] = ()
                continue
            ring = SeriesRing(d, 0, n_g)
            atoms = {GammaAtom.over(d, d * d, 0, d * d): 1}
            for j, cj in enumerate(pair.fermat.weights):
                atom = GammaAtom.over(d, 0, g.exps[j] * cj, -cj * d)
                atoms[atom] = atoms.get(atom, 0) + 1
        value = ring.monomial(atoms=tuple(sorted(atoms.items())))
        blocks[g.exps] = ((SectorBasisElement(side, g), value),)
    return Transform(pair, side, side, blocks, name=f"gamma_class_{side}")


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("pair", ALL_PAIRS + CENSUS_PAIRS, ids=lambda p: p.name)
def test_gamma_class_atoms_match_the_transform_route(pair, side):
    """``gamma_class_op`` gives, sector by sector, the atoms of the unit
    monomial that the ``Transform`` route puts on the same sector, and no
    entry where that route's block is empty."""
    expected = {}
    for exps, block in _transform_gamma_class(pair, side).blocks.items():
        if not block:
            continue
        [(element, entry)] = block
        [((lam, h, tau, atoms), coeff)] = entry.terms.items()
        assert element.g.exps == exps and (lam, h, tau) == (0, 0, 0)
        assert coeff == Cyclotomic.from_rational(pair.fermat.degree, 1)
        expected[exps] = atoms
    gamma = gamma_class_op(pair, side)
    assert gamma == expected
    assert len(gamma) == (len(pair.group) if side == "x" else
                          sum(1 for g in pair.group.elements if g.fixed_dim()))
    with pytest.raises(ValueError, match="side must be"):
        gamma_class_op(pair, "z")


# -- the continued series -------------------------------------------------------------

def test_ubar_block_degenerate_geometric_sum():
    q = quintic()
    ring = SeriesRing(5, 4, 3)
    x = ring.lam() + ring.hyperplane()
    geometric = ring.zero()
    for a in range(5):
        geometric = geometric + series_exp(x * a)
    assert ubar_block(q, 0, ring) == geometric * F(1, 5)
    assert ubar_block(q, 5, ring) == geometric * F(1, 5)


def test_ubar_block_nondegenerate_constant_zero():
    q = quintic()
    ring = SeriesRing(5, 3, 2)
    for b in range(1, 5):
        assert ubar_block(q, b, ring).constant_term().is_zero()


def test_ubar_block_first_order():
    q = quintic()
    ring = SeriesRing(5, 1, 2)
    block = ubar_block(q, 1, ring)
    inv = (Cyclotomic.root(5) - 1).inverse()
    assert block == (ring.lam() + ring.hyperplane()) * ring.scalar(inv)


def test_degenerate_block_identity():
    # (e^{d(lam+H)} - 1) = (e^{lam+H} - 1) * sum_{a<d} e^{a(lam+H)} exactly
    for d, nilp in ((5, 3), (3, 2), (4, 4), (6, 2)):
        ring = SeriesRing(d, 5, nilp)
        x = ring.lam() + ring.hyperplane()
        geometric = ring.zero()
        for a in range(d):
            geometric = geometric + series_exp(x * a)
        assert series_exp(x * d) - 1 == (series_exp(x) - 1) * geometric


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_continuation_identity(pair):
    orders = recommended_orders(pair, 5, 3)
    _, hx = h_factorization(pair, i_function_x(pair, orders), "x")
    from lgcy.transforms import u_bar
    lhs = u_bar(pair, orders.lam_order).apply(hx)
    rhs = h_continued(pair, orders)
    assert lhs.compare(rhs) is None


def test_h_continued_frozen_degenerate_coefficient():
    # quintic, m = 0, k = 0, b = 0: the degenerate block (1/5) sum_a e^{a(lam+H)}
    # dressed with Gamma(1 - beta)^-5.  By hand: the lam-coefficient is
    # (1/5)(0+1+2+3+4) = 2, and the lam*H one (1/5) sum a^2 = 6.
    q = quintic()
    series = h_continued(q, Orders(t_order=2, lam_order=3))
    value = series.coefficient(q.identity.exps, 0, (0, 0))
    atoms = next(iter(value.terms))[3]
    [(atom, exponent)] = atoms
    assert exponent == -5 and atom.offset == 0 and atom.weight == 1
    one = Cyclotomic.one(5)
    assert value.terms[0, 0, 0, atoms] == one
    assert value.terms[1, 0, 0, atoms] == one * 2
    assert value.terms[0, 1, 0, atoms] == one * 2
    assert value.terms[1, 1, 0, atoms] == one * 6


def test_h_continued_nondegenerate_block_vanishing_constant():
    # on the quintic the only Y-sector is e, reached with b = 0, so the
    # block at t-degree m uses xi^m: for m not divisible by 5 the numerator
    # e^{d*0} - 1 = 0 kills the constant (lam, H)-monomial.
    q = quintic()
    series = h_continued(q, Orders(t_order=7, lam_order=3))
    seen_nondegenerate = 0
    for (exps, z, degs), value in series.terms.items():
        if degs[0] % 5 != 0:
            seen_nondegenerate += 1
            assert all(lam + h > 0 for (lam, h, _tau, _atoms) in value.terms)
    assert seen_nondegenerate > 0


# -- residues and the FJRW limit --------------------------------------------------------

def test_gamma_pole_residue_examples():
    assert gamma_pole_residue(0, 0, 5) == F(1, 5)
    assert gamma_pole_residue(1, 2, 5) == F(-1, 5)
    assert gamma_pole_residue(3, 0, 5) == F(-1, 30)
    for d in (3, 4, 5, 6):
        for m in range(7):
            for b in range(d):
                assert gamma_pole_residue(m, b, d) == F((-1) ** m, d * math.factorial(m))
    assert gamma_pole_residue(2, 1, 5) != F(1, 7)
    with pytest.raises(ValueError):
        gamma_pole_residue(-1, 0, 5)


def test_fjrw_leading_term_sign():
    q = quintic()
    orders = Orders(t_order=5, lam_order=4)
    series = fjrw_i_function(q, orders)
    zero = tuple(0 for _ in series.variables)
    ring = series.ring_for((0,) * 5)
    assert series.coefficient(q.identity.exps, 1, zero) == ring.scalar(-1)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_fjrw_narrow_support(pair):
    series = fjrw_i_function(pair, Orders(t_order=4, lam_order=4))
    for (exps, _z, _degs) in series.terms:
        assert pair.is_narrow(GroupElement(pair.fermat, exps))
    # no lingering tokens after the nonequivariant limit
    assert series.tokens == ()


def test_fjrw_broad_image_coefficients_vanish():
    q = quintic()
    series = fjrw_i_function(q, Orders(t_order=4, lam_order=4))
    broad = (q.grading ** 4).exps
    assert all(key[0] != broad for key in series.terms)


def test_fjrw_witnesses_are_the_sorted_first_bad_key(monkeypatch):
    """A series' terms promise no order: with two bad keys inserted in
    reverse sorted order, the lambda-divisibility and the narrow-support
    witnesses are still those of the sorted-first key."""
    q = quintic()
    ring = SeriesRing(5, 2, 1)
    # sector 0^5 has N_g = 5, and a lam-free value fails there
    bad = [((0,) * 5, -1, (2, 0)), ((0,) * 5, 0, (1, 0))]
    series = CohSeries("x", q, ("t", (0,) * 5), Orders(t_order=3, lam_order=2),
                       {key: ring.one() for key in reversed(bad)})
    assert list(series.terms) == bad[::-1]
    with pytest.raises(IdentityError) as err:
        assert_lambda_divisibility(series)
    assert (err.value.witness["z"], err.value.witness["degree"]) == (-1, [2, 0])

    # a stand-in for delta_circ sends two compact X sectors to two broad
    # ones, the sorted-first broad sector from the later input key
    p = quartic()
    broad = sorted(g.exps for g in p.group.elements if not p.is_narrow(g))[:2]
    compact = [g for g in p.group.elements if g.fixed_dim() == 0][:2]
    blocks = {g.exps: ((SectorBasisElement("fjrw", GroupElement(p.fermat, target)), 1),)
              for g, target in zip(compact, reversed(broad))}
    monkeypatch.setattr(genfun, "delta_circ",
                        lambda pair: Transform(pair, "x", "fjrw", blocks, name="stand-in"))
    one = SeriesRing(4, 2, 1).one()
    derivative = CohSeries("x", p, ("t",), Orders(t_order=2, lam_order=2),
                           {(g.exps, 0, (1,)): one for g in compact})
    with pytest.raises(IdentityError) as err:
        fjrw_limit(p, derivative)
    assert err.value.witness == {"kind": "narrow-support", "sector": list(broad[0])}


# -- serialization -----------------------------------------------------------------------

def test_serialized_display_strings():
    q = quintic()
    data = serialize_series(h_function_x(q, Orders(t_order=2, lam_order=1)))
    displays = [t["value"]["display"] for t in data["terms"]]
    assert any("Gamma(1" in s and "beta" in s for s in displays)
