"""The symplectic operators: relabelings, twists, continuation, dressings."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction as F
from math import comb, factorial, gcd, lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcy import transforms
from lgcy.catalog import cubic, quartic, quintic, sextic, shipped_pairs
from lgcy.cohseries import CohSeries, Orders, _sector_nilpotency
from lgcy.exactalg import (
    Cyclotomic,
    ExactDivisionError,
    SectorValue,
    SeriesRing,
    divide_by_lambda_plus_h,
    series_exp,
    series_invert,
)
from lgcy.genfun import i_function_x, untwisted_j, untwisted_j_oracle, z_ddt_distinguished
from lgcy.lgmodel import PAIRING_SPECIALIZATIONS, SectorBasisElement, load_pair, pair_twisted
from lgcy.verify import recommended_orders
from lgcy.transforms import (
    DeltaDiamond,
    GenericEntry,
    PullbackToZ,
    delta_c_generic,
    delta_c_specialized,
    delta_circ,
    divide_or_none,
    gamma_class_op,
    i_c,
    u_bar,
    ubar_block,
)

from test_exactalg import bernoulli_poly

ALL_PAIRS = [quintic(), cubic(), quartic(), sextic()]


def basis_series(pair, g, orders, side="x", value=None):
    nilp = max(1, g.fixed_dim()) if side in ("y", "z") else 1
    ring = SeriesRing(pair.fermat.degree, orders.lam_order, nilp)
    variables = ("t",) + tuple(h.exps for h in pair.positive_dim_sectors())
    degs = tuple(0 for _ in variables)
    return CohSeries(side, pair, variables, orders,
                     {(g.exps, 0, degs): value if value is not None else ring.one()})


# -- i_c -----------------------------------------------------------------------

def test_i_c_examples():
    q = quintic()
    relabel = i_c(q, 1)
    [(element, entry)] = relabel.blocks[q.grading.exps]
    assert element.g == q.identity and entry == 1
    identity = i_c(q, 0)
    for g in q.group.elements:
        [(element, entry)] = identity.blocks[g.exps]
        assert element.g == g


def test_i_c_round_trip_is_identity():
    q = quintic()
    forward = {g.exps: el.g.exps
               for g in q.group.elements
               for el, _ in i_c(q, 1).blocks[g.exps]}
    # permutation: composing with the inverse map gives the identity
    inverse = {v: k for k, v in forward.items()}
    assert all(inverse[forward[k]] == k for k in forward)


def test_i_c_rejects_large_twist():
    s = sextic()
    with pytest.raises(ValueError):
        i_c(s, 2)


@pytest.mark.parametrize("pair", [quintic(), cubic(), sextic()],
                         ids=lambda p: p.name)
def test_i_c_preserves_pairing_matrix(pair):
    for c in pair.valid_twists():
        shift_inv = (pair.grading ** c).inverse()
        for spec in PAIRING_SPECIALIZATIONS:
            for g1 in pair.group.elements:
                for g2 in pair.group.elements:
                    assert pair_twisted(pair, 0, g1, g2, spec) == \
                        pair_twisted(pair, c, g1 * shift_inv, g2 * shift_inv, spec)


# -- Delta^c ----------------------------------------------------------------------

def test_delta_c_half_multiplicities_entry_one():
    # B_1(1/2) = 0: a sector with all m_j = 1/2 has trivial s_0-entry
    pair = load_pair({"weights": [1, 1], "degree": 4, "generators": []})
    target = None
    for g in pair.group.elements:
        if all(m == F(1, 2) for m in g.multiplicities()):
            target = g
    assert target is not None
    entries = transforms._log_entry(pair, target, k_max=0)
    assert all(p == 0 for (j, k), (p, q) in entries.items() if k == 0)


def test_delta_c_z1_log_entry_example():
    q = quintic()
    # phi^1_e = phi_j: the multiplicities of j^1
    entries = transforms._log_entry(q, q.grading, k_max=1)
    assert sum(F(*entries[(j, 1)]) for j in range(5)) == F(1, 60)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_mlk_conjugation_identity(pair):
    """i_c . Delta^0 = Delta^c . i_c entrywise (generic s and euler specs)."""
    for c in pair.valid_twists():
        shift = pair.grading ** c
        generic_0 = delta_c_generic(pair, 0)
        generic_c = delta_c_generic(pair, c)
        for g in pair.group.elements:
            assert generic_0[(g * shift).exps] == generic_c[g.exps]
        for spec in ("euler-inverse", "euler-inverse-signed"):
            entries_0 = delta_c_specialized(pair, 0, spec)
            entries_c = delta_c_specialized(pair, c, spec)
            for g in pair.group.elements:
                assert entries_0[(g * shift).exps] == entries_c[g.exps]


def test_delta_c_specialized_rational_lam_exponents():
    q = quintic()
    entries = delta_c_specialized(q, 1, "euler-inverse")
    _, mu, series = _specialized_fractions(entries[q.identity.exps])
    # phi^1_e has m_j = 1/5 on every j: exponents 1/2 - 1/5 = 3/10
    assert mu == (F(3, 10),) * 5
    assert sum(mu) == F(3, 2)
    assert series[0] == 1


def _specialized_fractions(entry):
    """(half_turns, mu, series) of a specialized entry, as Fractions."""
    lam = tuple(F(n, entry.lam_den) for n in entry.lam_nums)
    return lam[0], lam[1:], tuple(F(n, entry.series_den) for n in entry.series_nums)


def _fraction_specialized(pair, c, spec, k_max):
    """``delta_c_specialized`` as it stood with ``Fraction`` entries, as
    (half_turns, mu, series) per sector.  This test's oracle."""
    shift = pair.grading ** c
    d = pair.fermat.degree
    weights = pair.fermat.weights
    entries = {}
    for g in pair.group.elements:
        exps = (g * shift).exps
        exponents = [d - 2 * e * cj for e, cj in zip(exps, weights)]
        half = F(sum(exponents) if spec == "euler-inverse" else 0, 2 * d)
        terms = []
        for e, cj in zip(exps, weights):
            for k in range(1, k_max + 1):
                num, den = transforms._log_coefficient(k, e * cj, d)
                value = F(num * factorial(k - 1), den * cj ** k)
                terms.append((k, value.numerator, value.denominator))
        den = lcm(*(q for *_, q in terms))
        nums = [0] * (k_max + 1)
        for k, p, q in terms:
            nums[k] += p * (den // q)
        scaled = [1]
        for n in range(1, k_max + 1):
            scaled.append(sum(k * nums[k] * den ** (k - 1) * perm(n - 1, k - 1) * scaled[n - k]
                              for k in range(1, n + 1)))
        entries[g.exps] = (half, tuple(F(x, 2 * d) for x in exponents),
                           tuple(F(e, den ** n * factorial(n)) for n, e in enumerate(scaled)))
    return entries


def _one_unit_changes(entry):
    """Every entry that differs from ``entry`` in one of its integers by one."""
    for field in ("lam_nums", "series_nums"):
        nums = getattr(entry, field)
        for i in range(len(nums)):
            for step in (1, -1):
                changed = nums[:i] + (nums[i] + step,) + nums[i + 1:]
                yield dataclasses.replace(entry, **{field: changed})
    for field in ("lam_den", "series_den"):
        yield dataclasses.replace(entry, **{field: getattr(entry, field) + 1})


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_specialized_entries_compare_integers_and_read_as_before(pair):
    """Each entry's integers, read as Fractions, equal the Fraction entry's
    fields, are in lowest terms, and a one-unit change of any one of them
    breaks ``==``, at k_max -1 to 6 on every twist and both specializations."""
    for k_max in range(-1, 7):
        for c in pair.valid_twists():
            for spec in ("euler-inverse", "euler-inverse-signed"):
                reference = _fraction_specialized(pair, c, spec, k_max)
                for exps, entry in delta_c_specialized(pair, c, spec, k_max).items():
                    assert _specialized_fractions(entry) == reference[exps]
                    assert entry.lam_den > 0 and gcd(entry.lam_den, *entry.lam_nums) == 1
                    assert entry.series_den > 0
                    assert gcd(entry.series_den, *entry.series_nums) == 1
                    assert all(type(n) is int for n in entry.lam_nums + entry.series_nums)
                    if c == 0 and k_max == 4:
                        assert all(changed != entry for changed in _one_unit_changes(entry))


# -- golden digests of the operator layer ------------------------------------------

def _dump_generic(pair):
    """Every delta_c_generic entry at AC2's orders, terms sorted."""
    return [[c, list(exps), [[[[list(var), e] for var, e in mono], z, str(F(n, entry.den))]
                             for (mono, z), n in sorted(entry.nums.items())]]
            for c in pair.valid_twists()
            for exps, entry in sorted(delta_c_generic(pair, c, 4, 6).items())]


def _dump_specialized(spec):
    def dump(pair):
        rows = []
        for c in pair.valid_twists():
            for exps, entry in sorted(delta_c_specialized(pair, c, spec, 4).items()):
                half, mu, series = _specialized_fractions(entry)
                rows.append([c, list(exps), str(half), [str(m) for m in mu],
                             [str(v) for v in series]])
        return rows
    return dump


def _dump_u_bar(pair):
    """The str of every u_bar(pair, 6) block, keyed by input and output sector."""
    transform = u_bar(pair, 6)
    return [[list(exps), list(element.g.exps), str(entry)]
            for exps in sorted(transform.blocks)
            for element, entry in transform.blocks[exps]]


OPERATOR_DUMPS = {
    "delta_c_generic": _dump_generic,
    "euler-inverse": _dump_specialized("euler-inverse"),
    "euler-inverse-signed": _dump_specialized("euler-inverse-signed"),
    "u_bar": _dump_u_bar,
}

# sha256 of the JSON of each dump above, per shipped pair (every valid c).
OPERATOR_GOLDEN = {
    ("cubic", "delta_c_generic"): "4ca6981c8a85722e152d42a7b1454015a64b087e10e8122591ce68e16e9306b4",
    ("cubic", "euler-inverse"): "8a5d623b31aa74b0f11fe8fd88edf36e4111b69bae5cd42e8aa07eb473ca0a18",
    ("cubic", "euler-inverse-signed"): "51497605aaa793b60a1ab1c43f5b7a18cf69ce862265fbadb68f8a7d06951c17",
    ("cubic", "u_bar"): "1056b79130d5359ded02c7a699ca4bcf1342db389de04a7246a208563a5b1c19",
    ("quartic", "delta_c_generic"): "7859e2f1b4536ee71d553e77e0d2210ef9d5b1f4727eaf321f03a2f8ae36faa8",
    ("quartic", "euler-inverse"): "b396f5bddf06a6aab8e03563f48ef7cc757eff94cbbe82884c3ce05d5e61256d",
    ("quartic", "euler-inverse-signed"): "ad9eb63df8b39d89f974eee1fdd0e9cdfbf8701782cee346a844e985d270aaf6",
    ("quartic", "u_bar"): "d38cf43b77b517eefcad62d12a10961e4292324c26cf72e06a2817b534472dfa",
    ("quintic", "delta_c_generic"): "a3db0dbc426d404dd6a2e1277aa862e1d1d20ffe623e318fd1d891fd9feeff3b",
    ("quintic", "euler-inverse"): "5b01c857c8fac9a87b20f3fbb90ce9230f02dbbd94795b71471ee08c7a599655",
    ("quintic", "euler-inverse-signed"): "21366a2676b845a69fdcdd7a02d3b1472829f86018bbc276f6b0c042f9dbcfa4",
    ("quintic", "u_bar"): "b989cf8c747c5ff26e571b8fa4c9891ef40456eebc54f82939dac9a7c2a54b34",
    ("sextic", "delta_c_generic"): "6b86577c7b858820a40fe71db15dbe09a1d202c416b1fe89979b09bc2793fecb",
    ("sextic", "euler-inverse"): "2843d5f4e353d6b8523a695aebfbde1fb559a5a56d8717657e5c747c23ac3be6",
    ("sextic", "euler-inverse-signed"): "e0482fdf7d9c82bdefb30dd36c562618c0895b3ff81314e3a590dbf8447c3494",
    ("sextic", "u_bar"): "f9d3c2c77f34967baa4d3c668a08ef700e219f51e24c7031d1f7bf152a4a87ba",
}


@pytest.mark.parametrize("name,operator", sorted(OPERATOR_GOLDEN),
                         ids=[f"{n}-{o}" for n, o in sorted(OPERATOR_GOLDEN)])
def test_operator_golden_digests(name, operator):
    pair = shipped_pairs()[name]
    text = json.dumps(OPERATOR_DUMPS[operator](pair))
    assert hashlib.sha256(text.encode()).hexdigest() == OPERATOR_GOLDEN[name, operator]


# -- Delta-circle -------------------------------------------------------------------

def test_delta_circ_examples():
    q = quintic()
    transform = delta_circ(q)
    [(element, sign)] = transform.blocks[(3, 3, 3, 3, 3)]
    assert element.g.exps == (2, 2, 2, 2, 2) and sign == -1
    assert transform.blocks[(0, 0, 0, 0, 0)] == ()   # image j^4 is broad
    [(element, sign)] = transform.blocks[(1, 1, 1, 1, 1)]
    assert element.g.exps == (0, 0, 0, 0, 0) and sign == -1


def test_delta_circ_requires_sl():
    non_sl = load_pair({"weights": [1, 2], "degree": 4})
    with pytest.raises(ValueError):
        delta_circ(non_sl)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_delta_circ_signed_bijection_on_narrow_duals(pair):
    """Restricted to sectors with narrow image, Delta-circ is a signed
    permutation: its matrix times its transpose is the identity."""
    transform = delta_circ(pair)
    images = {}
    for g in pair.group.elements:
        for element, sign in transform.blocks[g.exps]:
            assert sign in (1, -1)
            assert element.g.exps not in images  # injective
            images[element.g.exps] = (g.exps, sign)
    assert set(images) == {g.exps for g in pair.narrow_sectors()}


# -- unit entries pass values through -------------------------------------------------

def _apply_by_products(transform, series):
    """``Transform.apply`` by the multiply route: every value brought into
    its output sector's ring and multiplied by its entry, the unit included."""
    d = transform.pair.fermat.degree
    out = {}
    for (exps, z, degs), value in series.terms.items():
        for element, entry in transform.blocks.get(exps, ()):
            ring = SeriesRing(d, series.orders.lam_order,
                              _sector_nilpotency(transform.side_out, transform.pair,
                                                 element.g.exps))
            factor = entry.with_ring(ring) if isinstance(entry, SectorValue) \
                else ring.scalar(entry)
            piece = value.with_ring(ring) * factor
            if piece.terms:
                key = (element.g.exps, z, degs)
                out[key] = out[key] + piece if key in out else piece
    return CohSeries(transform.side_out, series.pair, series.variables, series.orders,
                     out, series.tokens, c_twist=transform.twist_out)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_i_c_relabels_the_oracle_j_by_reference(pair):
    """i_c gives the multiply route's series for every valid c, each output
    value is the input value object, and none is a value of the closed J."""
    orders = Orders(t_order=4, lam_order=2)
    j_oracle = untwisted_j_oracle(pair, 0, orders)
    for c in pair.valid_twists():
        transform = i_c(pair, c)
        relabeled = transform.apply(j_oracle)
        expected = _apply_by_products(transform, j_oracle)
        assert relabeled.compare(expected) is None and relabeled.c_twist == expected.c_twist
        assert len(relabeled.terms) == len(j_oracle.terms)
        for (exps, z, degs), value in j_oracle.terms.items():
            [(element, _)] = transform.blocks[exps]
            assert relabeled.terms[element.g.exps, z, degs] is value
        closed = {id(value) for value in untwisted_j(pair, c, orders).terms.values()}
        assert not closed & {id(value) for value in relabeled.terms.values()}


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_delta_circ_passes_plus_one_entries_through_and_multiplies_minus_one(pair):
    ix = i_function_x(pair, Orders(t_order=3, lam_order=2))
    transform = delta_circ(pair)
    mapped = transform.apply(ix)
    expected = _apply_by_products(transform, ix)
    assert mapped.compare(expected) is None and mapped.c_twist == expected.c_twist
    signs = set()
    for (exps, z, degs), value in ix.terms.items():
        for element, sign in transform.blocks[exps]:
            out = mapped.terms[element.g.exps, z, degs]
            assert out.ring is value.ring
            assert (out is value) == (sign == 1)
            assert out == (value if sign == 1 else -value)
            signs.add(sign)
    assert signs == {1, -1}


def test_a_unit_entry_into_another_ring_re_truncates():
    """A unit entry whose output ring differs moves the value into that ring:
    X -> Y into N_g = 5 keeps every term, Y -> X drops the H-powers."""
    q = quintic()
    g = q.identity
    orders = Orders(t_order=2, lam_order=3)
    x_ring, y_ring = SeriesRing(5, 3, 1), SeriesRing(5, 3, 5)
    up = transforms.Transform(q, "x", "y", {g.exps: ((SectorBasisElement("y", g), 1),)})
    down = transforms.Transform(q, "y", "x", {g.exps: ((SectorBasisElement("x", g), 1),)})
    x_value = x_ring.one() + x_ring.lam(2) * F(1, 3)
    y_value = y_ring.one() + y_ring.lam(1) * y_ring.hyperplane(2) - y_ring.hyperplane(1)
    for transform, series, ring, kept in (
            (up, basis_series(q, g, orders, "x", x_value), y_ring, x_value.terms),
            (down, basis_series(q, g, orders, "y", y_value), x_ring, y_ring.one().terms)):
        mapped = transform.apply(series)
        expected = _apply_by_products(transform, series)
        assert mapped.compare(expected) is None and mapped.c_twist == expected.c_twist
        [(key, value)] = series.terms.items()
        out = mapped.terms[key]
        assert out is not value and out.ring is ring
        assert out == value.with_ring(ring) and out.terms == kept


# -- the continuation operator  ------------------------------------------------------

def test_u_bar_blocks_match_block_function():
    q = quintic()
    transform = u_bar(q, 3)
    for m in range(5):
        gm = q.grading ** m
        outputs = dict((el.g.exps, entry) for el, entry in transform.blocks[gm.exps])
        for b in range(5):
            target = gm * (q.grading ** b).inverse()
            n_g = target.fixed_dim()
            if n_g == 0:
                assert target.exps not in outputs
                continue
            ring = SeriesRing(5, 3, n_g)
            # direct block and the shifted-input law xi^{b' + m}, b' = b - m
            assert outputs[target.exps] == ubar_block(q, b, ring)
            assert outputs[target.exps] == ubar_block(q, (b - m) % 5 + m, ring)


def test_u_bar_nondegenerate_block_constant_vanishes():
    q = quintic()
    ring = SeriesRing(5, 3, 2)
    for b in range(1, 5):
        assert ubar_block(q, b, ring).constant_term().is_zero()


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_u_bar_structural_conditions(pair):
    transform = u_bar(pair, 5)
    for g in pair.group.elements:
        for element, entry in transform.blocks[g.exps]:
            # lam/H-polynomial entries: no tau, no atoms, ints only
            for (lam, h, tau, atoms) in entry.terms:
                assert tau == 0 and atoms == ()
            if element.g != g:
                assert divide_or_none(entry) is not None


def test_transform_linearity_random():
    rng = random.Random(17)
    q = quintic()
    orders = Orders(t_order=2, lam_order=3)
    ring = SeriesRing(5, 3, 1)
    transform = u_bar(q, 3)

    def random_series():
        terms = {}
        variables = ("t",) + tuple(h.exps for h in q.positive_dim_sectors())
        for _ in range(4):
            g = rng.choice(q.group.elements)
            z = rng.randint(-2, 1)
            degs = (rng.randint(0, 2), rng.randint(0, 1))
            value = ring.scalar(F(rng.randint(-3, 3))) + ring.lam(1) * rng.randint(0, 2)
            key = (g.exps, z, degs)
            terms[key] = terms[key] + value if key in terms else value
        return CohSeries("x", q, variables, orders, terms)

    def combination(a, alpha, b):
        """alpha a + b, term by term."""
        terms = {key: value * alpha for key, value in a.terms.items()}
        for key, value in b.terms.items():
            terms[key] = terms[key] + value if key in terms else value
        return a._replace_terms(terms)

    for _ in range(5):
        x, y = random_series(), random_series()
        alpha = F(rng.randint(1, 5), rng.randint(1, 3))
        lhs = transform.apply(combination(x, alpha, y))
        rhs = combination(transform.apply(x), alpha, transform.apply(y))
        assert lhs.compare(rhs) is None


# -- dressings --------------------------------------------------------------------------

def test_gamma_class_op_entries():
    q = quintic()
    [(atom, exponent)] = gamma_class_op(q, "x")[(0,) * 5]
    assert exponent == 5 and atom.weight == 1 and atom.offset == 0
    atoms = dict(gamma_class_op(q, "y")[(0,) * 5])
    fiber = [a for a in atoms if a.weight == 5]
    assert len(fiber) == 1 and atoms[fiber[0]] == 1


# -- Delta-diamond and the ambient pullback -----------------------------------------------

def test_delta_diamond_symbolic_pieces():
    q = quintic()
    dd = DeltaDiamond(q)
    ring = SeriesRing(5, 3, 5)
    sign = dd.sign_exponential(ring)
    # one z-power per H-power below the nilpotency, whatever the window
    assert sorted(sign) == [-4, -3, -2, -1, 0]
    assert sign[0] == ring.one()
    # z^-1 coefficient: (tau/2) * 5H
    [(mono, coeff)] = list(sign[-1].terms.items())
    assert mono == (0, 1, 1, ()) and coeff == Cyclotomic.from_rational(5, F(5, 2))


def test_delta_diamond_rejects_uncancelled_division():
    q = quintic()
    orders = Orders(t_order=1, lam_order=3)
    series = basis_series(q, q.identity, orders, side="y")
    with pytest.raises(ExactDivisionError):
        DeltaDiamond(q).apply(series)


def test_delta_diamond_divides_exactly():
    q = quintic()
    orders = Orders(t_order=1, lam_order=4)
    ring = SeriesRing(5, 4, 5)
    value = (ring.lam() + ring.hyperplane()) * (ring.scalar(3) + ring.lam())
    series = basis_series(q, q.identity, orders, side="y", value=value)
    out = DeltaDiamond(q).apply(series)
    # z^0 slice: -(1/5) * (3 + lam)
    zero_key = (q.identity.exps, 0, (0, 0))
    assert out.terms[zero_key] == (ring.scalar(3) + ring.lam()) * F(-1, 5)


def _per_term_delta_diamond(pair, series):
    """DeltaDiamond.apply with the sign factor rebuilt for every term and
    the -1/d applied to the quotient as its own product; also the number of
    pieces that the z-window dropped."""
    z_min, z_max = series.orders.z_window
    d = pair.fermat.degree
    dd = DeltaDiamond(pair)
    out, dropped = {}, 0
    for (exps, z, degs), value in series.terms.items():
        quotient, _ = divide_by_lambda_plus_h(value)
        quotient = quotient * F(-1, d)
        for dz, part in dd.sign_exponential(quotient.ring).items():
            z_out = z + dz
            if z_out < z_min or z_out > z_max:
                dropped += 1
                continue
            piece = quotient * part
            if piece.is_zero():
                continue
            key = (exps, z_out, degs)
            out[key] = out[key] + piece if key in out else piece
    return CohSeries(series.side, series.pair, series.variables,
                     series.orders, out, series.tokens, series.c_twist), dropped


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_delta_diamond_matches_the_per_term_sign_route(pair):
    """On the series that kernel-compatibility divides, Ubar of the N_g > 0
    part of z d/dt I^X at its working orders, the sign factor kept per ring
    gives the per-term route's series, key for key, also in a window that
    drops the lowest terms' higher sign powers."""
    orders = recommended_orders(pair, 8, 3)
    work = Orders(t_order=orders.t_order,
                  lam_order=max(orders.lam_order,
                                max(g.fixed_dim() for g in pair.group.elements)) + 1,
                  z_min=orders.z_window[0] - 1, z_max=orders.z_window[1] + 1)
    derivative = z_ddt_distinguished(i_function_x(pair, work))
    restricted = derivative.filter_terms(
        lambda key, value: key[2][0] >= 0 and pair.element(key[0]).fixed_dim() > 0)
    pushed = u_bar(pair, work.lam_order).apply(restricted)
    # the same terms in a window that starts at their lowest z
    z_low = min(z for _, z, _ in pushed.terms)
    narrow = CohSeries(pushed.side, pair, pushed.variables,
                       Orders(t_order=work.t_order, lam_order=work.lam_order,
                              z_min=z_low, z_max=work.z_window[1]),
                       pushed.terms, pushed.tokens, pushed.c_twist)
    dropped = []
    for series in (pushed, narrow):
        expected, count = _per_term_delta_diamond(pair, series)
        out = DeltaDiamond(pair).apply(series)
        assert out.terms and out.compare(expected) is None and out.c_twist == expected.c_twist
        dropped.append(count)
    assert dropped[0] == 0 < dropped[1]


def test_pullback_to_z():
    q = quintic()
    orders = Orders(t_order=1, lam_order=4)
    ring = SeriesRing(5, 4, 5)
    top = basis_series(q, q.identity, orders, side="y", value=ring.hyperplane(4))
    assert PullbackToZ(q).apply(top).is_zero()
    low = basis_series(q, q.identity, orders, side="y", value=ring.hyperplane(2))
    kept = PullbackToZ(q).apply(low)
    assert not kept.is_zero() and kept.side == "z"
    # a sector with N_g = 1 is killed entirely
    s = sextic()
    j2 = s.grading ** 2
    ring1 = SeriesRing(6, 4, 1)
    sector_series = basis_series(s, j2, Orders(t_order=1, lam_order=4),
                                 side="y", value=ring1.one())
    assert PullbackToZ(s).apply(sector_series).is_zero()


# -- the closed forms against the routes they replace ------------------------------

class _FractionPoly:
    """A polynomial in the s^j_k and z as a dict of one Fraction per
    coefficient, truncated in s-degree and z; ``exp`` is the power sum
    sum_n L^n / n!."""

    def __init__(self, s_degree, z_order, terms):
        self.s_degree, self.z_order = s_degree, z_order
        self.terms = {(mono, z): F(c) for (mono, z), c in terms.items()
                      if z <= z_order and sum(e for _, e in mono) <= s_degree and c != 0}

    def __add__(self, other):
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, F(0)) + coeff
        return _FractionPoly(self.s_degree, self.z_order, terms)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return _FractionPoly(self.s_degree, self.z_order,
                                 {key: c * other for key, c in self.terms.items()})
        out = {}
        for (m1, z1), c1 in self.terms.items():
            for (m2, z2), c2 in other.terms.items():
                merged = dict(m1)
                for var, e in m2:
                    merged[var] = merged.get(var, 0) + e
                key = (tuple(sorted(merged.items())), z1 + z2)
                out[key] = out.get(key, F(0)) + c1 * c2
        return _FractionPoly(self.s_degree, self.z_order, out)

    def exp(self):
        result = power = _FractionPoly(self.s_degree, self.z_order, {((), 0): F(1)})
        for n in range(1, self.s_degree + 1):
            power = power * self
            result = result + power * F(1, factorial(n))
        return result


def _log_form(pair, shifted, k_max):
    """The log of the Delta^c entry at ``shifted``: s^j_k z^k ->
    B_{k+1}(m_j) / (k+1)! for k <= k_max, as Fractions."""
    d = pair.fermat.degree
    return {((((j, k), 1),), k): F(*transforms._log_coefficient(k, e * cj, d))
            for j, (e, cj) in enumerate(zip(shifted.exps, pair.fermat.weights))
            for k in range(k_max + 1)}


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_generic_entries_are_the_power_sum_of_their_log_form(pair):
    """Each ``delta_c_generic`` entry is the power sum of its log form to
    s-degree 2, written as integers over one positive denominator in lowest
    terms with no zero numerator, at every c, k_max in {-1, 0, 1, 2, 4, 6}
    and z_order in {-1, 0, 1, 3, 6, 8}: below z-order 0 every entry is
    empty, over 1, and below k_max 0 every entry is the constant 1."""
    for c in pair.valid_twists():
        shift = pair.grading ** c
        for k_max in (-1, 0, 1, 2, 4, 6):
            for z_order in (-1, 0, 1, 3, 6, 8):
                entries = delta_c_generic(pair, c, k_max, z_order)
                assert sorted(entries) == sorted(g.exps for g in pair.group.elements)
                for g in pair.group.elements:
                    entry = entries[g.exps]
                    reference = _FractionPoly(2, z_order, _log_form(pair, g * shift, k_max))
                    assert {key: F(n, entry.den) for key, n in entry.nums.items()} == \
                        reference.exp().terms
                    assert entry.den > 0 and gcd(entry.den, *entry.nums.values()) == 1
                    assert all(type(n) is int and n for n in entry.nums.values())
                    if z_order < 0:
                        assert entry == GenericEntry({}, 1)
                    elif k_max < 0:
                        assert entry == GenericEntry({((), 0): 1}, 1)


def test_delta_c_generic_entry_example():
    """The quintic's Delta^1 entry at the identity, where every m_j = 1/5:
    a_j = B_1(1/5) = -3/10 at s^j_0 and B_2(1/5)/2 = 1/300 at s^j_1 z."""
    q = quintic()
    entry = delta_c_generic(q, 1, k_max=0, z_order=0)[q.identity.exps]
    # over 2 D^2 = 200: 200 at 1, 2 * 10 * (-3) at s_j, 9 at s_j^2, 18 at s_j s_j'
    expected = {((), 0): 200}
    for j in range(5):
        expected[((((j, 0), 1),), 0)] = -60
        expected[((((j, 0), 2),), 0)] = 9
        for j2 in range(j + 1, 5):
            expected[((((j, 0), 1), ((j2, 0), 1)), 0)] = 18
    assert entry == GenericEntry(expected, 200)

    entry = delta_c_generic(q, 1, k_max=1, z_order=1)[q.identity.exps]
    terms = {key: F(n, entry.den) for key, n in entry.nums.items()}
    assert len(terms) == 1 + 10 + 5 + 10 + 25
    for j in range(5):
        assert terms[((((j, 1), 1),), 1)] == F(1, 300)
        # s^j_1 squared sits at z^2, past the z-order
        assert ((((j, 1), 2),), 2) not in terms
        for j2 in range(5):
            mono = tuple(sorted((((j, 0), 1), ((j2, 1), 1))))
            assert terms[(mono, 1)] == F(-3, 10) * F(1, 300)
    # lowest terms: the lcm of the denominators 10, 300, 200, 100 and 1000
    assert entry.den == 3000


def test_delta_c_generic_refuses_an_invalid_twist():
    q = quintic()
    for c in (-1, 5):
        with pytest.raises(ValueError):
            delta_c_generic(q, c)


def _generic_one_unit_changes(entry):
    """Every entry that differs from ``entry`` in one of its integers by one."""
    for key, n in entry.nums.items():
        for step in (1, -1):
            yield dataclasses.replace(entry, nums={**entry.nums, key: n + step})
    yield dataclasses.replace(entry, den=entry.den + 1)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_generic_entries_compare_integers(pair):
    """A one-unit change of any numerator or of the denominator breaks
    ``==``, and so does the same value over a doubled denominator: the form
    is unique only in lowest terms.  The records are frozen and their repr
    shows the integer fields."""
    for c in pair.valid_twists():
        for entry in delta_c_generic(pair, c).values():
            assert all(changed != entry for changed in _generic_one_unit_changes(entry))
            doubled = GenericEntry({key: 2 * n for key, n in entry.nums.items()}, 2 * entry.den)
            assert doubled != entry
            assert entry == GenericEntry(dict(entry.nums), entry.den)
            with pytest.raises(dataclasses.FrozenInstanceError):
                entry.den = 1
    entry = delta_c_generic(pair, 0)[pair.identity.exps]
    assert repr(entry) == f"GenericEntry(nums={entry.nums!r}, den={entry.den!r})"


def _ubar_two_variable(d, b, ring):
    """The continuation block written out in (lam, H)."""
    x = ring.lam() + ring.hyperplane()
    if b % d == 0:
        total = ring.zero()
        for a in range(d):
            total = total + series_exp(x * a)
        return total * F(1, d)
    numerator = series_exp(x * d) - 1
    return numerator * series_invert((series_exp(x) * ring.root(b % d) - 1) * d)


def _uncached_ubar_block(d, b, ring):
    """The continuation block as built before blocks were kept: in one
    variable x = lam + H, then expanded binomially into (lam, H)."""
    line = SeriesRing(ring.order, ring.lam_order, 1)
    x = line.lam()
    if b % d == 0:
        total = line.zero()
        for a in range(d):
            total = total + series_exp(x * a)
        block = total * F(1, d)
    else:
        block = (series_exp(x * d) - 1) * series_invert(
            (series_exp(x) * line.root(b % d) - 1) * d)
    terms = {}
    for (n, _h, _tau, _atoms), coeff in block.terms.items():
        for h in range(min(n, ring.nilpotency - 1) + 1):
            terms[(n - h, h, 0, ())] = coeff * comb(n, h)
    return SectorValue(ring, terms)


@pytest.mark.parametrize("lam_order", [4, 6])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_u_bar_blocks_match_the_uncached_builder(pair, lam_order):
    d = pair.fermat.degree
    transform = u_bar(pair, lam_order)
    for g in pair.group.elements:
        expected = []
        for b in range(d):
            target = g * (pair.grading ** b).inverse()
            if target.fixed_dim():
                ring = SeriesRing(d, lam_order, target.fixed_dim())
                expected.append((target.exps, _uncached_ubar_block(d, b, ring)))
        assert [(element.g.exps, block)
                for element, block in transform.blocks[g.exps]] == expected


def test_ubar_block_is_kept_per_residue_of_b():
    q = quintic()
    ring = SeriesRing(5, 4, 3)
    for b in range(5):
        assert ubar_block(q, b, ring) is ubar_block(q, b + 5, ring)
    assert ubar_block(q, 1, ring) is not ubar_block(q, 1, SeriesRing(5, 4, 2))


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_ubar_block_matches_the_uncached_builder_and_the_definition(pair):
    """Every b in [0, d) and ring with lam-order 0..7 and nilpotency 1..5;
    other b are the same objects (``test_ubar_block_is_kept_per_residue_of_b``)."""
    d = pair.fermat.degree
    for lam_order in range(8):
        for nilpotency in range(1, 6):
            ring = SeriesRing(d, lam_order, nilpotency)
            for b in range(d):
                block = ubar_block(pair, b, ring)
                assert block == _uncached_ubar_block(d, b, ring)
                assert block == _ubar_two_variable(d, b, ring)


def test_ubar_line_series_are_inverted_once_per_degree_residue_and_lam_order(monkeypatch):
    """series_invert runs once per (d, b != 0, lam_order) in one process,
    however many rings, residues of b and u_bar builds ask for the blocks."""
    calls = []

    def counted(x):
        calls.append((x.ring.order, x.ring.lam_order))
        return series_invert(x)

    monkeypatch.setattr(transforms, "series_invert", counted)
    transforms._ubar_lines.cache_clear()
    transforms._ubar_block.cache_clear()
    lam_orders = (3, 6)
    for pair in ALL_PAIRS:
        d = pair.fermat.degree
        for lam_order in lam_orders:
            u_bar(pair, lam_order)
            u_bar(pair, lam_order)
            for nilpotency in range(1, 5):
                for b in range(2 * d):
                    ubar_block(pair, b, SeriesRing(d, lam_order, nilpotency))
    assert sorted(calls) == sorted((pair.fermat.degree, lam_order)
                                   for pair in ALL_PAIRS for lam_order in lam_orders
                                   for _ in range(1, pair.fermat.degree))
    q = quintic()
    assert ubar_block(q, 1, SeriesRing(5, 4, 3)) is not ubar_block(q, 1, SeriesRing(5, 4, 2))


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_delta_c_sides_are_never_the_same_object(pair):
    """i_c . Delta^0 and Delta^c . i_c are each exponentiated on their own."""
    for c in pair.valid_twists():
        shift = pair.grading ** c
        left, right = delta_c_generic(pair, 0), delta_c_generic(pair, c)
        for g in pair.group.elements:
            assert left[(g * shift).exps] is not right[g.exps]
            assert left[(g * shift).exps].nums is not right[g.exps].nums


def _specialized_by_products(pair, c, spec, k_max):
    """Per sector: the product over j of truncated exps of the j-th log series."""
    def mul(a, b):
        return [sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(k_max + 1)]

    entries = {}
    for g in pair.group.elements:
        shifted = g * (pair.grading ** c)
        series = [F(1)] + [F(0)] * k_max
        mu = []
        for j, cj in enumerate(pair.fermat.weights):
            m = shifted.multiplicity(j)
            mu.append(F(1, 2) - m)
            log = [F(0)] + [bernoulli_poly(k + 1, m) * factorial(k - 1)
                            / (factorial(k + 1) * F(cj) ** k) for k in range(1, k_max + 1)]
            exp, power = [F(1)] + [F(0)] * k_max, [F(1)] + [F(0)] * k_max
            for n in range(1, k_max + 1):
                power = mul(power, log)
                exp = [e + p / factorial(n) for e, p in zip(exp, power)]
            series = mul(series, exp)
        half = sum(mu, F(0)) if spec == "euler-inverse" else F(0)
        entries[g.exps] = (half, tuple(mu), tuple(series))
    return entries


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pair=st.sampled_from(ALL_PAIRS), data=st.data(), k_max=st.integers(0, 6),
       spec=st.sampled_from(["euler-inverse", "euler-inverse-signed"]))
def test_delta_c_specialized_matches_per_j_products(pair, data, k_max, spec):
    c = data.draw(st.sampled_from(pair.valid_twists()))
    reference = _specialized_by_products(pair, c, spec, k_max)
    for exps, entry in delta_c_specialized(pair, c, spec, k_max).items():
        assert _specialized_fractions(entry) == reference[exps]
