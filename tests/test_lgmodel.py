"""Fermat pairs: groups, sector combinatorics, moduli numerology, pairings."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcy.catalog import cubic, quartic, quintic, sextic
from lgcy.cohseries import Orders
from lgcy.genfun import untwisted_j, untwisted_j_oracle
from lgcy.lgmodel import (
    PAIRING_SPECIALIZATIONS,
    FermatData,
    GroupElement,
    SectorBasisElement,
    group_from_generators,
    load_pair,
    pair_to_dict,
    pair_twisted,
)
from lgcy.transforms import delta_c_generic, delta_c_specialized, i_c

ALL_PAIRS = [quintic(), cubic(), quartic(), sextic()]
TWISTED_PAIRS = [(pair, c) for pair in ALL_PAIRS for c in pair.valid_twists()]


# -- data validation -----------------------------------------------------------

def test_fermat_data_validation():
    with pytest.raises(ValueError):
        FermatData((2, 2), 4)        # gcd != 1
    with pytest.raises(ValueError):
        FermatData((1, 3), 5)        # 3 does not divide 5
    with pytest.raises(ValueError):
        FermatData((1, 1), 1)        # degenerate degree
    with pytest.raises(ValueError):
        FermatData((1, 5), 5)        # exponent d/c = 1
    data = FermatData((1, 1, 1, 3), 6)
    assert data.exponents == (6, 6, 6, 2)
    assert data.exponents is data.exponents      # built once
    assert data.is_calabi_yau
    assert not FermatData((1, 1, 2, 3), 6).is_calabi_yau


# -- group construction ----------------------------------------------------------

def test_group_from_generators_quintic():
    group = group_from_generators(FermatData((1,) * 5, 5), [])
    assert len(group.elements) == 5  # <j> always adjoined


def test_group_from_generators_quartic():
    group = group_from_generators(FermatData((1,) * 4, 4), [(0, 2, 0, 2)])
    assert len(group.elements) == 8


def test_group_from_generators_cubic_noncyclic():
    group = group_from_generators(FermatData((1, 1, 1), 3), [(1, 2, 0)])
    assert len(group.elements) == 9


def test_generator_out_of_range():
    with pytest.raises(ValueError):
        group_from_generators(FermatData((1,) * 4, 4), [(0, 4, 0, 0)])
    with pytest.raises(ValueError):
        load_pair({"weights": [1, 1, 1, 1], "degree": 4, "generators": [[0, 4, 0, 0]]})


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_group_operations_match_checked_constructor(pair):
    fermat = pair.fermat
    bounds = fermat.exponents

    def checked(exps):
        return GroupElement(fermat, exps)

    for a in pair.group.elements:
        results = [(a.inverse(), checked((-x) % m for x, m in zip(a.exps, bounds)))]
        results += [(a ** n, checked((x * n) % m for x, m in zip(a.exps, bounds)))
                    for n in range(-2, 2 * fermat.degree)]
        results += [(a * b, checked((x + y) % m for x, y, m in zip(a.exps, b.exps, bounds)))
                    for b in pair.group.elements]
        for got, expected in results:
            assert got == expected and hash(got) == hash(expected)
            assert type(got) is GroupElement and got.fermat is fermat
    with pytest.raises(AttributeError):
        a.inverse().exps = a.exps


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_checked_constructor_rejects_bad_input(pair):
    fermat = pair.fermat
    n, bounds = fermat.n_variables, fermat.exponents
    for j, bound in enumerate(bounds):
        for k in (-1, bound):
            exps = [0] * n
            exps[j] = k
            with pytest.raises(ValueError):
                GroupElement(fermat, exps)
    with pytest.raises(ValueError):
        GroupElement(fermat, (0,) * (n + 1))
    non_member = next(exps for exps in itertools.product(*map(range, bounds))
                      if GroupElement(fermat, exps) not in pair.group)
    with pytest.raises(ValueError):
        pair.element(non_member)
    assert pair.identity is pair.identity and pair.identity == GroupElement(fermat, (0,) * n)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_group_laws_random(pair):
    rng = random.Random(99)
    elements = pair.group.elements
    for _ in range(25):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == pair.identity
        assert a * b in pair.group


# -- ages, fixed loci, narrow sectors ----------------------------------------------

def test_age_examples():
    q = quintic()
    assert q.grading.age() == 1
    assert q.identity.age() == 0
    s = sextic()
    j2 = s.grading ** 2
    assert j2.exps == (2, 2, 2, 0)
    assert j2.age() == 1
    assert j2.fixed_dim() == 1


def test_fixed_dim_examples():
    q = quintic()
    assert q.identity.fixed_dim() == 5
    assert q.grading.fixed_dim() == 0


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_age_duality(pair):
    n = pair.fermat.n_variables
    for g in pair.group.elements:
        assert g.age() + g.inverse().age() == n - g.fixed_dim()


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_sl_condition(pair):
    assert pair.is_sl
    assert all(g.age().denominator == 1 for g in pair.group.elements)


def test_non_sl_pair_detected():
    pair = load_pair({"weights": [1, 2], "degree": 4})
    assert pair.grading.age() == F(3, 4)
    assert not pair.is_sl


@pytest.mark.parametrize("spec_dict,expected", [
    ({"weights": [1, 1, 1, 1, 1], "degree": 5}, True),
    ({"weights": [1, 2], "degree": 4}, False),
    ({"weights": [1, 1, 1, 1], "degree": 4, "generators": [[0, 2, 0, 2]]}, True),
])
def test_sl_iff_generators_pass(spec_dict, expected):
    pair = load_pair(spec_dict)
    seeds = list(pair.group.generators) + [pair.grading]
    generators_pass = all(g.age().denominator == 1 for g in seeds)
    assert generators_pass == pair.is_sl == expected


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_inverse_closure(pair):
    for g in pair.group.elements:
        assert g.inverse() in pair.group


def test_narrow_sectors():
    q = quintic()
    narrow = sorted(g.exps for g in q.narrow_sectors())
    assert narrow == [(0,) * 5, (1,) * 5, (2,) * 5, (3,) * 5]
    c = cubic()
    assert sorted(g.exps for g in c.narrow_sectors()) == [(0, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_identity_is_narrow_on_cy_pairs(pair):
    assert pair.is_narrow(pair.identity)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_narrow_duality(pair):
    j2_inv = (pair.grading ** 2).inverse()
    for g in pair.group.elements:
        assert pair.is_narrow(g) == pair.is_narrow(g.inverse() * j2_inv)


# -- moduli numerology -------------------------------------------------------------

def test_line_bundle_degree_examples():
    q = quintic()
    j2 = q.grading ** 2
    j3 = q.grading ** 3
    assert q.line_bundle_degree(1, 0, 0, [j2, j2, j2]) == -1
    assert q.line_bundle_degree(0, 0, 0, [q.identity] * 3) == 0
    assert q.line_bundle_degree(1, 0, 0, [j2, j2, j3]) == F(-6, 5)


def test_is_nonempty_examples():
    q = quintic()
    j2 = q.grading ** 2
    j3 = q.grading ** 3
    assert q.is_nonempty(1, 0, [j2, j2, j2])
    assert not q.is_nonempty(1, 0, [j2, j2, j3])
    assert q.is_nonempty(0, 0, [j2, j3])


@pytest.mark.parametrize("pair,c", TWISTED_PAIRS,
                         ids=[f"{p.name}-c{c}" for p, c in TWISTED_PAIRS])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_selection_rule_matches_definition(pair, c, data):
    h = data.draw(st.integers(0, 2), label="h")
    insertions = data.draw(st.lists(st.sampled_from(pair.group.elements),
                                    min_size=1, max_size=8), label="insertions")
    d, n = pair.fermat.degree, len(insertions)
    degrees = []
    for j, cj in enumerate(pair.fermat.weights):
        expected = F(c * cj, d) * (2 * h - 2 + n) - sum(g.multiplicity(j) for g in insertions)
        assert pair.line_bundle_degree(c, j, h, insertions) == expected
        degrees.append(expected)
    assert pair.is_nonempty(c, h, insertions) == all(x.denominator == 1 for x in degrees)


def _residues(pair, insertions) -> tuple[int, ...]:
    return tuple(sum(g.exps[j] for g in insertions) % m
                 for j, m in enumerate(pair.fermat.exponents))


@pytest.mark.parametrize("pair,c", TWISTED_PAIRS,
                         ids=[f"{p.name}-c{c}" for p, c in TWISTED_PAIRS])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_selection_rule_reads_exponent_sums_mod_the_exponents(pair, c, data):
    """The oracle keys its dual scan on this: for a fixed n, ``is_nonempty``
    reads its insertions only through each sum_i k_j(g_i) mod d/c_j.  Moving
    a factor h from one insertion to another and reordering keeps every
    residue and the verdict; the one first insertion of G that passes with
    the rest fails once any one of its exponents moves by 1."""
    elements = pair.group.elements
    n = data.draw(st.integers(3, 6), label="n")
    insertions = data.draw(st.lists(st.sampled_from(elements), min_size=n, max_size=n),
                           label="insertions")
    h = data.draw(st.sampled_from(elements), label="h")
    a, b = data.draw(st.permutations(range(n)), label="order")[:2]
    moved = list(insertions)
    moved[a], moved[b] = moved[a] * h, moved[b] * h.inverse()
    moved = data.draw(st.permutations(moved), label="moved")
    assert _residues(pair, moved) == _residues(pair, insertions)
    assert pair.is_nonempty(c, 0, moved) == pair.is_nonempty(c, 0, insertions)

    rest = insertions[1:]
    [first] = [g for g in elements if pair.is_nonempty(c, 0, [g] + rest)]
    for j, m in enumerate(pair.fermat.exponents):
        exps = list(first.exps)
        exps[j] = (exps[j] + 1) % m
        bumped = [GroupElement(pair.fermat, exps)] + rest
        assert sum(x != y for x, y in zip(_residues(pair, bumped),
                                          _residues(pair, [first] + rest))) == 1
        assert not pair.is_nonempty(c, 0, bumped), j


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_nonempty_iff_product_identity_untwisted(pair):
    elements = pair.group.elements
    for insertions in itertools.product(elements, repeat=3):
        product = insertions[0] * insertions[1] * insertions[2]
        assert pair.is_nonempty(0, 0, list(insertions)) == (product == pair.identity)


# -- twisted pairings ---------------------------------------------------------------

def test_pair_twisted_untwisted_example():
    q = quintic()
    v = pair_twisted(q, 0, q.grading, q.grading ** 4, "untwisted")
    assert v.coefficient == F(1, 3125) and v.lam_exponent == 0


def test_pair_twisted_euler_floor_example():
    # c=1 with g1' = e: all m_j(j) != 0, so every floor vanishes
    q = quintic()
    v = pair_twisted(q, 1, q.identity, q.grading ** 3, "euler-inverse")
    assert v.coefficient == F(1, 3125) and v.lam_exponent == 0


def test_pair_twisted_identity_block():
    q = quintic()
    v = pair_twisted(q, 0, q.identity, q.identity, "euler-inverse")
    assert v.coefficient == F(-1, 3125) and v.lam_exponent == -5


def test_pair_twisted_rejects_large_twist():
    s = sextic()
    with pytest.raises(ValueError):
        pair_twisted(s, 2, s.identity, s.identity)  # 2*3 = 6 = d


@pytest.mark.parametrize("pair", [quintic(), cubic(), sextic()],
                         ids=lambda p: p.name)
def test_pairing_symmetric_and_nondegenerate(pair):
    for spec in PAIRING_SPECIALIZATIONS:
        for c in pair.valid_twists():
            for g1 in pair.group.elements:
                nonzero = 0
                for g2 in pair.group.elements:
                    a = pair_twisted(pair, c, g1, g2, spec)
                    assert a == pair_twisted(pair, c, g2, g1, spec)
                    if a.coefficient != 0:
                        nonzero += 1
                assert nonzero == 1  # exactly one dual partner per row


# -- basis elements and pair files -----------------------------------------------------

def test_sector_basis_element_validation():
    q = quintic()
    SectorBasisElement("y", q.identity)
    with pytest.raises(ValueError):
        SectorBasisElement("y", q.grading)       # empty Y sector


def test_pair_file_round_trip(tmp_path):
    for pair in ALL_PAIRS:
        data = pair_to_dict(pair)
        rebuilt = load_pair(data)
        assert len(rebuilt.group) == len(pair.group)
        assert rebuilt.name == pair.name
    path = tmp_path / "pair.json"
    import json
    path.write_text(json.dumps(pair_to_dict(quartic())))
    from_file = load_pair(path)
    assert len(from_file.group) == 8
    assert from_file.grading.exps == (1, 1, 1, 1)


def test_degenerate_degree_rejected_upstream():
    with pytest.raises(ValueError):
        load_pair({"weights": [1], "degree": 1})


TWIST_ENTRY_POINTS = {
    "untwisted_j": lambda p, c: untwisted_j(p, c, Orders(t_order=1, lam_order=0)),
    "untwisted_j_oracle": lambda p, c: untwisted_j_oracle(p, c, Orders(t_order=1, lam_order=0)),
    "i_c": i_c,
    "delta_c_generic": lambda p, c: delta_c_generic(p, c, k_max=1, z_order=1),
    "delta_c_specialized": lambda p, c: delta_c_specialized(p, c, "euler-inverse", k_max=1),
    "pair_twisted": lambda p, c: pair_twisted(p, c, p.identity, p.identity),
}


@pytest.mark.parametrize("entry", sorted(TWIST_ENTRY_POINTS))
@pytest.mark.parametrize("pair", [quintic(), sextic()], ids=lambda p: p.name)
def test_out_of_range_twists_rejected_everywhere(pair, entry):
    build = TWIST_ENTRY_POINTS[entry]
    for c in (-1, max(pair.valid_twists()) + 1):
        with pytest.raises(ValueError, match="twist"):
            build(pair, c)
    build(pair, max(pair.valid_twists()))
