"""Sector-blockwise linear operators on the symplectic space.

A ``Transform`` is data: per input sector, a list of (output basis
element, entry) with z-degree-zero entries; ``apply`` is linear and exact.
The dressings that divide or truncate (``DeltaDiamond``, ``PullbackToZ``)
are classes with an ``apply`` of their own.  The operators that are never
applied return a dict of entries per sector exponent vector, since their
entries are not series at all: the Gamma class as a sorted atoms key
(``gamma_class_op``), exponentials of s-linear forms for generic s
(``delta_c_generic``), and entries carrying rational lam-exponents, which
never enter a CohSeries untested, at the euler specializations
(``delta_c_specialized``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .exactalg import (
    ExactDivisionError,
    SectorValue,
    SeriesRing,
    _atoms_key,
    _bernoulli_at,
    _rational_parts,
    divide_by_lambda_plus_h,
    series_exp,
    series_invert,
)
from .cohseries import CohSeries, _sector_nilpotency
from .lgmodel import GroupElement, LGPair, SectorBasisElement

__all__ = [
    "Transform",
    "i_c",
    "delta_circ",
    "u_bar",
    "ubar_block",
    "gamma_class_op",
    "PullbackToZ",
    "divide_or_none",
    "DeltaDiamond",
    "delta_c_generic",
    "SpecializedEntry",
    "delta_c_specialized",
]


class Transform:
    """Blockwise linear operator; blocks: input exps -> ((basis elt, entry), ...).

    Entries have z-degree zero: a SectorValue or a rational.  Application
    promotes each input coefficient into the output sector's ring, so X-side
    scalars multiply H-carrying entries without losing nilpotency headroom.
    A scalar entry equal to 1 multiplies nothing: it passes the input value
    through, re-truncated only when its ring is not the output ring.
    """

    def __init__(self, pair: LGPair, side_in: str, side_out: str, blocks: dict,
                 name: str = "", twist_in=None, twist_out=None):
        self.pair = pair
        self.side_in = side_in
        self.side_out = side_out
        self.blocks = {tuple(k): tuple(v) for k, v in blocks.items()}
        self.name = name
        self.twist_in = twist_in
        self.twist_out = twist_out

    def apply(self, series: CohSeries) -> CohSeries:
        if series.side != self.side_in:
            raise ValueError(f"{self.name}: expected side {self.side_in!r}, "
                             f"got {series.side!r}")
        if self.twist_in is not None and series.c_twist != self.twist_in:
            raise ValueError(f"{self.name}: twist mismatch")
        blocks = self._blocks_in_rings(series.orders.lam_order)
        out_terms: dict = {}
        for (exps, z, degs), value in series.terms.items():
            for out_exps, ring, factor in blocks.get(exps, ()):
                piece = value.with_ring(ring)
                if factor is not None:
                    piece = piece * factor
                if piece.is_zero():
                    continue
                key = (out_exps, z, degs)
                out_terms[key] = out_terms[key] + piece \
                    if key in out_terms else piece
        return CohSeries(self.side_out, series.pair, series.variables,
                         series.orders, out_terms, series.tokens,
                         c_twist=self.twist_out)

    def _blocks_in_rings(self, lam_order: int) -> dict:
        """input exps -> ((output exps, ring, factor), ...) at ``lam_order``:
        each output sector's nilpotency is read, and its shared ring looked
        up, once, and each entry is brought into it once, as a
        ``SectorValue`` factor, or as None for a unit entry, which values
        pass through."""
        d = self.pair.fermat.degree
        rings: dict = {}
        blocks: dict = {}
        for exps, block in self.blocks.items():
            entries = []
            for element, entry in block:
                out_exps = element.g.exps
                ring = rings.get(out_exps)
                if ring is None:
                    ring = rings[out_exps] = SeriesRing(
                        d, lam_order, _sector_nilpotency(self.side_out, self.pair, out_exps))
                if isinstance(entry, SectorValue):
                    factor = entry.with_ring(ring)
                else:
                    factor = None if entry == 1 else ring.scalar(entry)
                entries.append((out_exps, ring, factor))
            blocks[exps] = tuple(entries)
        return blocks

    def __repr__(self):
        return f"Transform({self.name}, {self.side_in}->{self.side_out})"


# ---------------------------------------------------------------------------
# the MLK relabeling and the FJRW sign map
# ---------------------------------------------------------------------------

def i_c(pair: LGPair, c: int) -> Transform:
    """phi^0_g -> phi^c_{g j^-c}; a pairing-preserving basis permutation.

    Every entry is the unit, so ``apply`` relabels by reference: each output
    value is the input value object itself."""
    pair.require_twist(c)
    shift = (pair.grading ** c).inverse()
    blocks = {
        g.exps: ((SectorBasisElement("lg", g * shift), 1),)
        for g in pair.group.elements
    }
    return Transform(pair, "lg", "lg", blocks, name=f"i_{c}",
                     twist_in=0, twist_out=c)


def delta_circ(pair: LGPair) -> Transform:
    """1_g -> (-1)^(sum_j m_j(g)) phi_{g j^-1}, zero on broad images."""
    pair.require_sl()
    j_inv = pair.grading.inverse()
    blocks = {}
    for g in pair.group.elements:
        target = g * j_inv
        if not pair.is_narrow(target):
            blocks[g.exps] = ()
            continue
        sign = (-1) ** int(g.age())
        blocks[g.exps] = ((SectorBasisElement("fjrw", target), sign),)
    return Transform(pair, "x", "fjrw", blocks, name="delta_circ")


# ---------------------------------------------------------------------------
# the analytic-continuation operator and its dressings
# ---------------------------------------------------------------------------

def ubar_block(pair: LGPair, xi_power: int, ring: SeriesRing) -> SectorValue:
    """(e^{d(lam+H)} - 1) / (d (e^{lam+H} xi^b - 1)) in the given ring.

    For xi^b = 1 the quotient is the geometric sum (1/d) sum_a e^{a(lam+H)}.
    The block is a series in x = lam + H alone, so it is computed in one
    variable (x^(lam_order+1) = 0) and then expanded binomially,
    x^n = sum_h C(n, h) lam^(n-h) H^h with h < nilpotency: x -> lam + H is a
    ring map of the truncations, so the expansion is exact.  The line series
    of every b are built once per process for their key (d, lam_order), and
    each block once for its key (d, b mod d, ring).
    """
    d = pair.fermat.degree
    return _ubar_block(d, xi_power % d, ring)


@lru_cache(maxsize=None)
def _ubar_block(d: int, b: int, ring: SeriesRing) -> SectorValue:
    """The line series of (d, b, lam_order), b in [0, d), expanded binomially
    into ``ring``: each key has n <= lam_order and h < nilpotency, and each
    C(n, h) times a nonzero coefficient is nonzero, so the terms are clean."""
    terms = {}
    for (n, _h, _tau, _atoms), coeff in _ubar_lines(d, ring.lam_order)[b].terms.items():
        for h in range(min(n, ring.nilpotency - 1) + 1):
            terms[(n - h, h, 0, ())] = coeff * comb(n, h)
    return SectorValue._unchecked(ring, terms)


@lru_cache(maxsize=None)
def _ubar_lines(d: int, lam_order: int) -> tuple[SectorValue, ...]:
    """The blocks of ``ubar_block`` for b = 0, ..., d-1 in the one variable x:
    the geometric sum for b = 0, and (e^{dx} - 1) / (d (e^x xi^b - 1)) by one
    inversion for each b > 0, all from the same e^{ax}, a = 0, ..., d."""
    line = SeriesRing(d, lam_order, 1)
    x = line.lam()
    exponentials = [series_exp(x * a) for a in range(d + 1)]
    geometric = line.zero()
    for term in exponentials[:d]:
        geometric = geometric + term
    numerator = exponentials[d] - 1
    return (geometric * Fraction(1, d),) + tuple(
        numerator * series_invert((exponentials[1] * line.root(b) - 1) * d)
        for b in range(1, d))


def u_bar(pair: LGPair, lam_order: int) -> Transform:
    """1_g -> sum_b [(e^{d(lam+H)}-1)/(d(e^{lam+H} xi^b - 1))] 1~_{g j^-b}.

    The b with xi^b = 1 uses the geometric sum; blocks are truncated at the
    output sector's nilpotency and come from the cache of ``ubar_block``.
    Outputs on empty Y-sectors are dropped.
    """
    pair.require_cy()
    d = pair.fermat.degree
    blocks = {}
    for g in pair.group.elements:
        outputs = []
        for b in range(d):
            target = g * ((pair.grading ** b).inverse())
            n_g = target.fixed_dim()
            if n_g == 0:
                continue
            outputs.append((SectorBasisElement("y", target),
                            ubar_block(pair, b, SeriesRing(d, lam_order, n_g))))
        blocks[g.exps] = tuple(outputs)
    return Transform(pair, "x", "y", blocks, name="u_bar")


def gamma_class_op(pair: LGPair, side: str) -> dict:
    """The diagonal Gamma class as atoms, never evaluated: sector exps -> its
    sorted atoms key.

    X side: prod_j Gamma(1 - m_j(g) - c_j beta), on every sector.  Y side
    additionally Gamma(1 - d(lam+H)/tau), with the per-j atoms carrying H,
    on the sectors with N_g > 0 only.
    """
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    d = pair.fermat.degree
    entries = {}
    for g in pair.group.elements:
        if side == "y" and not g.fixed_dim():
            continue
        counts: dict = {(d * d, 0, d * d): 1} if side == "y" else {}
        for e, cj in zip(g.exps, pair.fermat.weights):
            parts = (cj * d, e * cj, 0) if side == "x" else (0, e * cj, -cj * d)
            counts[parts] = counts.get(parts, 0) + 1
        entries[g.exps] = _atoms_key(d, counts)
    return entries


class PullbackToZ:
    """Ambient restriction: kills 1~_g H^(N_g - 1), keeps lower H-powers."""

    def __init__(self, pair: LGPair):
        pair.require_cy()
        self.pair = pair

    def apply(self, series: CohSeries) -> CohSeries:
        out: dict = {}
        for (exps, z, degs), value in series.terms.items():
            n_g = GroupElement(series.pair.fermat, exps).fixed_dim()
            kept = value.map_monomials(
                lambda k, c: (k, c) if k[1] < n_g - 1 else None)
            if kept.is_zero():
                continue
            out[(exps, z, degs)] = kept
        return CohSeries("z", series.pair, series.variables, series.orders,
                         out, series.tokens, series.c_twist)


def divide_or_none(value: SectorValue) -> SectorValue | None:
    """Quotient by (lam + H) when exact, None otherwise."""
    try:
        quotient, _ = divide_by_lambda_plus_h(value)
    except ExactDivisionError:
        return None
    return quotient


class DeltaDiamond:
    """phi -> -e^(pi i d H / z) / (d (lam + H)) phi for E = -K.

    rank(E) = 1 and c_1(E) = dH, so the sign is (-1)^1 and the Euler class
    d(lam + H).  The division is performed exactly and raises if the input
    is not divisible; pi*i is represented as tau/2, so the sign factor
    expands inside the existing token algebra.
    """

    def __init__(self, pair: LGPair):
        pair.require_cy()
        self.pair = pair

    def sign_exponential(self, ring: SeriesRing) -> dict:
        """e^(pi i d H / z) = sum_k (d H)^k (tau/2)^k z^-k / k!, finite in H,
        as {z-power: coefficient}."""
        d = self.pair.fermat.degree
        return {-k: ring.monomial(h=k, tau=k, coeff=Fraction(d ** k, 2 ** k * factorial(k)))
                for k in range(ring.nilpotency)}

    def apply(self, series: CohSeries) -> CohSeries:
        """Divide every coefficient by d(lam+H) and dress with the sign factor.

        The sign monomials, with the -1/d folded in, are built once per ring,
        so each term takes one monomial product per power of the sign.
        Raises ExactDivisionError when a block fails to cancel.
        """
        z_min, z_max = series.orders.z_window
        scale = Fraction(-1, self.pair.fermat.degree)
        signs: dict = {}   # ring -> the sign monomials times -1/d, per z-power
        out: dict = {}
        for (exps, z, degs), value in series.terms.items():
            quotient, _ = divide_by_lambda_plus_h(value)
            sign = signs.get(quotient.ring)
            if sign is None:
                sign = signs[quotient.ring] = [
                    (dz, part * scale)
                    for dz, part in self.sign_exponential(quotient.ring).items()]
            for dz, part in sign:
                z_out = z + dz
                if z_out < z_min or z_out > z_max:
                    continue
                piece = quotient._times_monomial(part)
                if piece.is_zero():
                    continue
                key = (exps, z_out, degs)
                out[key] = out[key] + piece if key in out else piece
        return CohSeries(series.side, series.pair, series.variables,
                         series.orders, out, series.tokens, series.c_twist)


# ---------------------------------------------------------------------------
# Delta^c with generic s-parameters
# ---------------------------------------------------------------------------

class SPoly:
    """Polynomial in the variables s^j_k and z, truncated in s-degree and z.

    Monomial keys: (s_mono, z) with s_mono a sorted tuple of ((j, k), e).
    The coefficients are integer numerators ``nums`` over one positive
    denominator ``den``, in lowest terms (gcd(den, nums) = 1, no zero
    numerator, zero stored over 1), ``Cyclotomic``'s layout: the form is
    unique, so ``==``, ``exp`` and the scalar ``*`` work in integers, and
    ``terms`` shows them as ``Fraction``s.  A coefficient or scalar that is
    not an exact rational (a float, say) raises ``TypeError``.
    """

    __slots__ = ("s_degree", "z_order", "nums", "den")

    def __init__(self, s_degree: int, z_order: int, terms: dict):
        parts = {(mono, z): _rational_parts(coeff) for (mono, z), coeff in terms.items()
                 if z <= z_order and sum(e for _, e in mono) <= s_degree}
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so the form is already in lowest terms
        den = lcm(*(q for _, q in parts.values()))
        self.s_degree, self.z_order, self.den = s_degree, z_order, den
        self.nums = {key: p * (den // q) for key, (p, q) in parts.items() if p}

    @classmethod
    def _reduced(cls, s_degree: int, z_order: int, nums: dict, den: int) -> "SPoly":
        """nums / den, with ``nums`` truncated and nonzero and den > 0, in
        lowest terms."""
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {key: n // g for key, n in nums.items()}
            den //= g
        return cls._lowest(s_degree, z_order, nums, den)

    @classmethod
    def _lowest(cls, s_degree: int, z_order: int, nums: dict, den: int) -> "SPoly":
        """nums / den, with ``nums`` truncated and nonzero, already in lowest terms."""
        poly = object.__new__(cls)
        poly.s_degree, poly.z_order, poly.nums, poly.den = s_degree, z_order, nums, den
        return poly

    @property
    def terms(self) -> dict:
        """(s_mono, z) -> coefficient, as a new dict of Fractions."""
        den = self.den
        return {key: Fraction(n, den) for key, n in self.nums.items()}

    def __mul__(self, scalar) -> "SPoly":
        p, q = _rational_parts(scalar)
        nums = {key: n * p for key, n in self.nums.items()} if p else {}
        return SPoly._reduced(self.s_degree, self.z_order, nums, self.den * q)

    def exp(self) -> "SPoly":
        """exp of an s-linear form L = sum_i c_i y_i, y_i = s_(v_i) z^(k_i), truncated.

        exp(L) = sum over multisets {y_i^(e_i)} of prod_i c_i^(e_i) / e_i!
        * y_i^(e_i), whose s-degree is e = sum_i e_i.  Which multisets
        survive the truncation, and the monomial each one writes, depend
        only on the form's shape, its sorted (v_i, k_i): ``_exp_plan`` lays
        them out once per shape and orders, and this pass forms the weights.

        The arithmetic is in integers.  With c_i = a_i / D over the form's
        denominator D, a multiset of size e is W / (D^e e!) with the integer
        W = prod_i a_i^(e_i) * e! / prod_i e_i!; extending it by y_i
        multiplies W by a_i (e + 1) / (e_i + 1), an exact division.
        Multisets that share a key (one variable at several z-powers) add
        their W, and sums that cancel are dropped.  Each level's sums are
        lifted to the divisor D^s s! of the deepest level s reached, and the
        common factor g of the divisor and every lifted sum is found from
        each level's own common factor before any is lifted, so the dict is
        written once, in lowest terms.
        """
        shape, coeffs = [], []
        for (mono, z), a in sorted(self.nums.items()):
            if len(mono) != 1 or mono[0][1] != 1 or z < 0:
                raise ValueError("exp needs an s-linear form with z-powers >= 0")
            shape.append((mono[0][0], z))
            coeffs.append(a)
        plan = _exp_plan(tuple(shape), self.s_degree, self.z_order)
        top, den = len(plan), self.den
        divisor = den ** top * factorial(top)
        # (s-degree, keys, sums) of every level that has a multiset
        levels = [(0, (((), 0),), [1])] if self.z_order >= 0 else []
        weights = [1]
        for e, (steps, keys, slots) in enumerate(plan, 1):
            scaled = [a * e for a in coeffs]
            weights = [weights[parent] * scaled[i] // run for parent, i, run in steps]
            if slots is None:
                levels.append((e, keys, weights))
                continue
            totals = [0] * len(keys)
            for slot, w in zip(slots, weights):
                totals[slot] += w
            kept = [i for i, t in enumerate(totals) if t]
            levels.append((e, [keys[i] for i in kept], [totals[i] for i in kept]))
        # a sum S of level e is S lift_e / divisor; with G_e the gcd of the
        # level's sums, S lift_e / g = (S / G_e) (lift_e G_e / g)
        lifts = [(den ** (top - e) * (factorial(top) // factorial(e)), gcd(*sums))
                       for e, _, sums in levels]
        g = gcd(divisor, *(lift * common for lift, common in lifts))
        nums: dict = {}
        for (_, keys, sums), (lift, common) in zip(levels, lifts):
            factor = lift * common // g
            nums.update(zip(keys, [s // common * factor for s in sums]))
        return SPoly._lowest(self.s_degree, self.z_order, nums, divisor // g)

    def __eq__(self, other):
        return (isinstance(other, SPoly) and self.den == other.den
                and self.nums == other.nums
                and (self.s_degree, self.z_order) == (other.s_degree, other.z_order))

    def __repr__(self):
        return f"SPoly({self.terms})"


@lru_cache(maxsize=None)
def _exp_plan(shape: tuple, s_degree: int, z_order: int) -> tuple:
    """The multisets ``SPoly.exp`` sums for a form of ``shape``, its sorted
    (variable, z-power) terms, one level per s-degree e = 1, 2, ... up to
    the deepest one that keeps a multiset of z-degree <= z_order.

    A level is (steps, keys, slots).  steps holds, per multiset, the index
    of its parent in the level below (the root, the empty multiset, below
    level 1), the index of the term that extends it and that term's
    multiplicity in it; keys the level's distinct monomial keys, in order of
    first appearance; slots each multiset's index into keys, or None when no
    two multisets share a key.  The plan holds no coefficient.

    Each multiset is visited once: it grows only by terms at or after its
    last one, and one whose z-degree passes z_order is not kept (z-degrees
    are non-negative, so no extension of it survives either).  The terms are
    in order of variable, so a monomial grows by appending a variable or by
    raising the exponent of its last one.
    """
    levels = []
    # a multiset: (index of its last term, multiplicity of that term,
    # monomial, z-degree)
    level = [(0, 0, (), 0)]
    for _ in range(s_degree):
        steps, grown, slots, index = [], [], [], {}
        for parent, (last, run, mono, z) in enumerate(level):
            for i in range(last, len(shape)):
                var, k = shape[i]
                z_i = z + k
                if z_i > z_order:
                    continue
                run_i = run + 1 if i == last else 1
                if mono and mono[-1][0] == var:
                    mono_i = mono[:-1] + ((var, mono[-1][1] + 1),)
                else:
                    mono_i = mono + ((var, 1),)
                key = (mono_i, z_i)
                slots.append(index.setdefault(key, len(index)))
                steps.append((parent, i, run_i))
                grown.append((i, run_i, mono_i, z_i))
        if not grown:
            break
        keys = tuple(index)
        levels.append((tuple(steps), keys,
                       None if len(keys) == len(steps) else tuple(slots)))
        level = grown
    return tuple(levels)


@lru_cache(maxsize=None)
def _log_coefficient(k: int, p: int, q: int) -> tuple[int, int]:
    """B_{k+1}(p/q) / (k+1)!, the s^j_k coefficient of log Delta^c at m_j = p/q,
    as (numerator, denominator) in lowest terms.

    Keyed on integers only, so one value serves every sector and twist
    with that multiplicity; each entry still reads its own sector's m_j.
    """
    return _rational_parts(_bernoulli_at(k + 1, p, q) / factorial(k + 1))


def _log_entry(pair: LGPair, shifted: GroupElement, k_max: int) -> dict:
    """(j, k) -> B_{k+1}(m_j) / (k+1)! as an integer pair, with m_j = e_j c_j / d
    the multiplicities of ``shifted``."""
    d = pair.fermat.degree
    return {(j, k): _log_coefficient(k, e * cj, d)
            for j, (e, cj) in enumerate(zip(shifted.exps, pair.fermat.weights))
            for k in range(k_max + 1)}


def delta_c_generic(pair: LGPair, c: int, k_max: int = 4, s_degree: int = 2,
                    z_order: int = 6) -> dict:
    """Entries of Delta^c with generic s^j_k, k <= k_max: sector exps -> SPoly.

    Each diagonal entry is exp(sum_{j,k} s^j_k B_{k+1}(m_j) z^k/(k+1)!),
    m_j those of g j^c, its log form summed in integers over the lcm of
    its coefficients' denominators.
    """
    pair.require_twist(c)
    shift = pair.grading ** c
    # log terms past the truncation never reach the exp
    k_top = min(k_max, z_order) if s_degree > 0 else -1
    entries = {}
    for g in pair.group.elements:
        log = _log_entry(pair, g * shift, k_top)
        den = lcm(*(q for _, q in log.values()))
        nums = {((((j, k), 1),), k): p * (den // q)
                for (j, k), (p, q) in log.items() if p}
        form = SPoly._reduced(s_degree, z_order, nums, den)
        entries[g.exps] = form.exp()
    return entries


# ---------------------------------------------------------------------------
# Delta^c under the closed euler specializations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class SpecializedEntry:
    """prod_j (+-lam_j)^(mu_j) * (series in z/lam), lam_j = c_j lam.

    half_turns counts the power of e^(i pi) produced by the (-lam_j) bases;
    mu carries the rational lam-exponents that operator entries may hold
    but series constructors reject.
    series maps n -> coefficient of (z/lam)^n.

    The entry is held in integers, each part in lowest terms over one
    positive denominator, ``SPoly``'s layout: (half_turns, *mu) is
    lam_nums / lam_den and series is series_nums / series_den.  The form is
    unique, so ``==`` compares integers; half_turns, mu and series are
    ``Fraction`` views, built when read.
    """

    lam_nums: tuple[int, ...]
    lam_den: int
    series_nums: tuple[int, ...]
    series_den: int

    @property
    def half_turns(self) -> Fraction:
        return Fraction(self.lam_nums[0], self.lam_den)

    @property
    def mu(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.lam_den) for n in self.lam_nums[1:])

    @property
    def series(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.series_den) for n in self.series_nums)

    def __repr__(self):
        return (f"SpecializedEntry(half_turns={self.half_turns!r}, mu={self.mu!r}, "
                f"series={self.series!r})")


def _lowest_terms(nums: list, den: int) -> tuple[tuple[int, ...], int]:
    """nums / den, den > 0, with the common factor of all of them divided out."""
    g = gcd(den, *nums)
    return tuple([n // g for n in nums]), den // g


@lru_cache(maxsize=None)
def _specialized_log_row(p: int, q: int, cj: int, k_max: int) -> tuple[int, tuple[int, ...]]:
    """B_{k+1}(p/q) (k-1)! / ((k+1)! c_j^k), the (z/lam)^k log terms of
    weight c_j for k = 1..k_max, as (D, (0, L_1, ..., L_k_max)): numerators
    over their lcm D.

    Keyed on integers only, like ``_log_coefficient``.
    """
    terms = []
    for k in range(1, k_max + 1):
        num, den = _log_coefficient(k, p, q)
        (num,), den = _lowest_terms([num * factorial(k - 1)], den * cj ** k)
        terms.append((num, den))
    den = lcm(*(q for _, q in terms))
    return den, (0, *(num * (den // q) for num, q in terms))


def delta_c_specialized(pair: LGPair, c: int, spec: str,
                        k_max: int = 4) -> dict:
    """Entries of Delta^c at the euler-inverse specializations, per sector.

    s^j_0 contributes (-+lam_j)^(1/2 - m_j); s^j_k for k>0 contributes
    exp(B_{k+1}(m_j) (k-1)! / ((k+1)! c_j^k) (z/lam)^k).  Each j's log
    terms are computed once per process for their integer key (m_j, c_j,
    k_max); the sum over j and its exp are formed per sector from that
    sector's own multiplicities, in integers, and so is each entry.
    """
    if spec not in ("euler-inverse", "euler-inverse-signed"):
        raise ValueError("spec must be one of the euler specializations")
    pair.require_twist(c)
    shift = pair.grading ** c
    d = pair.fermat.degree
    weights = pair.fermat.weights
    k_max = max(k_max, 0)   # below 0, as at 0, no log term is kept
    top = factorial(k_max)
    entries = {}
    for g in pair.group.elements:
        exps = (g * shift).exps
        # -B_1(m_j) = 1/2 - e_j c_j / d = (d - 2 e_j c_j) / (2d), and
        # half_turns is their sum or 0
        exponents = [d - 2 * e * cj for e, cj in zip(exps, weights)]
        half = sum(exponents) if spec == "euler-inverse" else 0
        rows = [_specialized_log_row(e * cj, d, cj, k_max) for e, cj in zip(exps, weights)]
        # the summed log series l_k = L_k / D over the lcm D of the rows'
        # denominators; its exp, n e_n = sum_{k=1..n} k l_k e_{n-k}, in
        # integers over one divisor: F_n = k_max! D^k_max e_n satisfies
        # n D F_n = sum_k k L_k F_{n-k}, an exact division
        den = lcm(*(q for q, _ in rows))
        logs = [k * sum(row[k] * (den // q) for q, row in rows) for k in range(k_max + 1)]
        divisor = top * den ** k_max
        series = [divisor]
        for n in range(1, k_max + 1):
            series.append(sum(logs[k] * series[n - k] for k in range(1, n + 1)) // (n * den))
        entries[g.exps] = SpecializedEntry(*_lowest_terms([half, *exponents], 2 * d),
                                           *_lowest_terms(series, divisor))
    return entries
