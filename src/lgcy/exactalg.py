"""Exact scalar and truncated-series arithmetic.

Everything downstream runs on four layers built here:

* ``Fraction`` for exact rationals,
* ``Cyclotomic`` for elements of Q(xi) with xi a primitive root of unity,
  kept in the canonical basis 1, xi, ..., xi^(phi(n)-1) modulo the n-th
  cyclotomic polynomial as integer numerators over one positive common
  denominator in lowest terms, so its ring operations are integer
  arithmetic,
* ``SectorValue`` for truncated polynomials in the equivariant parameter
  ``lam`` and a nilpotent hyperplane class ``H`` (H^N = 0 on a sector of
  nilpotency N), with monomials optionally dressed by an opaque invertible
  token ``tau`` (the 2*pi*i token) and by formal Gamma atoms,
* ``ZLaurentSeries`` for finitely supported z-Laurent series with
  ``SectorValue`` coefficients inside an explicit window.

Every product of linear (lam, H, z)-factors, and of inverses of linear
(H, z)-factors, goes through one kernel, ``_linear_product``: the modification
factor and the ray factors of the I-functions, and the Gamma-shift rewrite
``gamma_shift_product`` of a block of Gamma ratios.  The factors are
homogeneous, so the kernel keeps a dense table of integer numerators over one
denominator keyed by (lam, H) degree and builds the exact product as a
``ZLaurentSeries`` once, clamped to its window only at the end.

No floating point anywhere; equality is equality of canonical forms.
All values are immutable after construction and safe to share.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

__all__ = [
    "NonUnitError",
    "OrderMismatchError",
    "ExactDivisionError",
    "Cyclotomic",
    "GammaAtom",
    "SeriesRing",
    "SectorValue",
    "ZLaurentSeries",
    "series_exp",
    "series_invert",
    "divide_by_lambda_plus_h",
    "gamma_shift_product",
    "bernoulli_number",
    "bernoulli_poly",
    "euler_phi",
    "cyclotomic_polynomial",
]


class NonUnitError(ArithmeticError):
    """Inversion of a value whose constant term vanishes."""


class OrderMismatchError(ArithmeticError):
    """Mixing cyclotomic values or series of incompatible parameters."""


class ExactDivisionError(ArithmeticError):
    """A division that was promised exact left a remainder."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the field Q(xi_n)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of monic integer polynomials, ascending coefficients."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        coeff = num[k + len(den) - 1]
        out[k] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[k + i] -= coeff * d
    if any(num[: len(den) - 1]):
        raise ExactDivisionError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, exact integers."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_polynomial(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    return tuple(_poly_divide_exact(num, den))


@lru_cache(maxsize=None)
def _power_reduction(n: int) -> tuple[tuple[int, ...], ...]:
    """xi^m in the canonical basis for phi(n) <= m <= 2*phi(n) - 2 plus n-1.

    Phi_n is monic with integer coefficients, so every row is integral.
    """
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    top = max(2 * phi - 2, n - 1)
    rows: list[tuple[int, ...]] = []
    # x^phi = -(poly[0] + ... + poly[phi-1] x^{phi-1}), poly monic
    current = [-poly[i] for i in range(phi)]
    for _ in range(phi, top + 1):
        rows.append(tuple(current))
        shifted = [0] + current[:-1]
        lead = current[-1]
        if lead:
            for i in range(phi):
                shifted[i] -= lead * poly[i]
        current = shifted
    return tuple(rows)


def _rational_parts(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational scalar, in lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


class Cyclotomic:
    """Element of Q(xi_n) in reduced canonical form.

    The value is (sum_i nums[i] xi^i) / den over the basis 1, xi, ...,
    xi^(phi(n)-1): ``nums`` holds phi(n) integers over one positive integer
    ``den``, in lowest terms (gcd(nums, den) = 1, zero stored as 0/1), the
    layout of FLINT's fmpq_poly.  The form is unique, so equality and
    hashing compare integers.  ``coeffs`` shows the same value as
    ``Fraction``s.  Ring operations work on the integers and build their
    results through ``_reduced``, which puts them in lowest terms.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        parts = [_rational_parts(c) for c in coeffs]
        if len(parts) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so the result is already in lowest terms
        den = lcm(*(q for _, q in parts))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", tuple(p * (den // q) for p, q in parts))
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, order: int, nums: tuple[int, ...], den: int) -> "Cyclotomic":
        """The value nums / den, den nonzero, brought to lowest terms."""
        if den != 1:
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = tuple([x // g for x in nums])
                den //= g
        value = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(value, "order", order)
        setattr_(value, "nums", nums)
        setattr_(value, "den", den)
        return value

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, xi, ..., xi^(phi-1) as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rational(order: int, value) -> "Cyclotomic":
        num, den = _rational_parts(value)
        return Cyclotomic._reduced(order, (num,) + (0,) * (euler_phi(order) - 1), den)

    @staticmethod
    def zero(order: int) -> "Cyclotomic":
        return Cyclotomic.from_rational(order, 0)

    @staticmethod
    def one(order: int) -> "Cyclotomic":
        return Cyclotomic.from_rational(order, 1)

    @staticmethod
    def root(order: int, power: int = 1) -> "Cyclotomic":
        """xi_n^power, reduced."""
        power %= order
        phi = euler_phi(order)
        if power < phi:
            nums = [0] * phi
            nums[power] = 1
            return Cyclotomic._reduced(order, tuple(nums), 1)
        return Cyclotomic._reduced(order, _power_reduction(order)[power - phi], 1)

    # -- ring structure ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cyclotomic orders differ: {self.order} vs {other.order}")
            return other
        return Cyclotomic.from_rational(self.order, other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.nums, other.nums
        da, db = self.den, other.den
        if da == db:
            return Cyclotomic._reduced(self.order, tuple(x + y for x, y in zip(a, b)), da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return Cyclotomic._reduced(
            self.order, tuple(x * sa + y * sb for x, y in zip(a, b)), da * sa)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._reduced(self.order, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.nums, other.nums
        den = self.den * other.den
        # a rational operand scales the other's numerators: no convolution
        # and no reduction modulo Phi_n
        if not any(b[1:]):
            return Cyclotomic._reduced(self.order, tuple(x * b[0] for x in a), den)
        if not any(a[1:]):
            return Cyclotomic._reduced(self.order, tuple(a[0] * y for y in b), den)
        phi = len(a)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:phi]
        table = _power_reduction(self.order)
        for m in range(phi, len(conv)):
            c = conv[m]
            if c:
                for i, r in enumerate(table[m - phi]):
                    if r:
                        out[i] += c * r
        return Cyclotomic._reduced(self.order, tuple(out), den)

    __rmul__ = __mul__

    def _conjugate(self, k: int) -> "Cyclotomic":
        """The Galois conjugate sigma_k(self), xi -> xi^k, for gcd(k, n) = 1."""
        phi = len(self.nums)
        table = _power_reduction(self.order)
        out = [0] * phi
        for i, a in enumerate(self.nums):
            if a:
                m = i * k % self.order
                if m < phi:
                    out[m] += a
                    continue
                for idx, r in enumerate(table[m - phi]):
                    if r:
                        out[idx] += a * r
        return Cyclotomic._reduced(self.order, tuple(out), self.den)

    def inverse(self) -> "Cyclotomic":
        """Field inverse by the norm: prod_{k != 1} sigma_k(self) / N(self).

        The sigma_k with gcd(k, n) = 1 are the Galois group of Q(xi_n), so
        self times the product of its other conjugates is the norm N(self),
        a nonzero rational whenever self is nonzero.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        nums = self.nums
        if self.is_rational():
            return Cyclotomic._reduced(self.order, (self.den,) + nums[1:], nums[0])
        others = Cyclotomic.one(self.order)
        for k in range(2, self.order):
            if gcd(k, self.order) == 1:
                others = others * self._conjugate(k)
        norm = self * others
        return Cyclotomic._reduced(
            self.order, tuple(x * norm.den for x in others.nums),
            others.den * norm.nums[0])

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __eq__(self, other):
        if type(other) is not Cyclotomic:
            if isinstance(other, (int, Fraction)):
                num, den = _rational_parts(other)
                return self.is_rational() and self.nums[0] == num and self.den == den
            if not isinstance(other, Cyclotomic):
                return False
        return (self.order == other.order
                and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*xi" if c != 1 else "xi")
            else:
                parts.append(f"{c}*xi^{i}" if c != 1 else f"xi^{i}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Gamma atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class GammaAtom:
    """The opaque symbol Gamma(1 - weight*beta - h_weight*H/tau - offset).

    beta = lam/tau is never expanded; atoms are compared by key and only
    ever combined through integer-offset rewrites (``gamma_shift_product``).
    Atoms key the monomial dicts of every ``SectorValue``, so the hash of
    the three Fractions is computed once, at construction, and so are the
    integer numerators ``nums`` of (weight, offset, h_weight) over one
    positive ``den`` in lowest terms.  The builders make atoms through
    ``GammaAtom.over``, which hands out one shared instance per value:
    equal atoms are then the same object, and dict lookups and atoms-tuple
    compares take the identity path.
    """

    weight: Fraction
    offset: Fraction
    h_weight: Fraction = Fraction(0)

    def __post_init__(self):
        fields = (self.weight, self.offset, self.h_weight)
        den = lcm(*(x.denominator for x in fields))
        setattr_ = object.__setattr__
        setattr_(self, "den", den)
        setattr_(self, "nums", tuple(x.numerator * (den // x.denominator) for x in fields))
        setattr_(self, "_hash", hash(fields))

    @staticmethod
    def over(d: int, weight: int, offset: int, h_weight: int = 0) -> "GammaAtom":
        """The shared atom Gamma(1 - (weight*beta + h_weight*H/tau + offset)/d),
        d > 0: one instance per value, whatever d its numerators come over."""
        g = gcd(d, weight, offset, h_weight)
        return _shared_atom(d // g, weight // g, offset // g, h_weight // g)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = ["1"]
        if self.weight:
            parts.append(f"- {self.weight}*beta")
        if self.h_weight:
            parts.append(f"- {self.h_weight}*H/tau")
        if self.offset:
            parts.append(f"- {self.offset}")
        return "Gamma(" + " ".join(parts) + ")"


@lru_cache(maxsize=None)
def _shared_atom(den: int, weight: int, offset: int, h_weight: int) -> GammaAtom:
    """The one atom of numerators in lowest terms over den."""
    return GammaAtom(Fraction(weight, den), Fraction(offset, den), Fraction(h_weight, den))


AtomsKey = tuple  # sorted tuple of (GammaAtom, nonzero int exponent)


def _atoms_key(d: int, counts: dict) -> AtomsKey:
    """The atoms key of ``counts``, (weight, offset, h_weight) numerators over
    d -> exponent.  Over one d the numerators sort as the atoms do, so the
    key is sorted in integers and each atom is the one ``GammaAtom.over``."""
    return tuple((GammaAtom.over(d, *parts), exp) for parts, exp in sorted(counts.items()))


def _merge_atoms(a: AtomsKey, b: AtomsKey) -> AtomsKey:
    if not a:
        return b
    if not b:
        return a
    acc: dict[GammaAtom, int] = dict(a)
    for atom, exp in b:
        new = acc.get(atom, 0) + exp
        if new:
            acc[atom] = new
        else:
            acc.pop(atom, None)
    return tuple(sorted(acc.items()))


# ---------------------------------------------------------------------------
# truncated sector values
# ---------------------------------------------------------------------------

_SHARED_RINGS: dict = {}   # (order, lam_order, nilpotency) -> the one ring


@dataclass(frozen=True, eq=False, init=False)
class SeriesRing:
    """Truncation context: cyclotomic order, lam-order, H-nilpotency.

    A monomial lam^a H^b survives iff a + b <= lam_order and b < nilpotency,
    i.e. the quotient modulo H^N and total (lam, H)-degree > lam_order.
    Working modulo an ideal keeps every operation a true ring map.  The
    constructor hands out one shared instance per parameter triple, so rings
    compare by identity; the hash stays that of the three fields.
    """

    order: int
    lam_order: int
    nilpotency: int = 1

    def __new__(cls, order: int, lam_order: int, nilpotency: int = 1):
        key = (order, lam_order, nilpotency)
        ring = _SHARED_RINGS.get(key)
        if ring is None:
            if order < 1 or lam_order < 0 or nilpotency < 1:
                raise ValueError("invalid ring parameters")
            ring = _SHARED_RINGS[key] = object.__new__(cls)
            ring.__dict__.update(order=order, lam_order=lam_order, nilpotency=nilpotency)
        return ring

    def __hash__(self):
        return hash((self.order, self.lam_order, self.nilpotency))

    def zero(self) -> "SectorValue":
        return SectorValue._unchecked(self, {})

    def one(self) -> "SectorValue":
        return self.scalar(1)

    def scalar(self, value) -> "SectorValue":
        if not isinstance(value, Cyclotomic):
            value = Cyclotomic.from_rational(self.order, value)
        elif value.order != self.order:
            raise OrderMismatchError("scalar has wrong cyclotomic order")
        return SectorValue._unchecked(
            self, {} if value.is_zero() else {(0, 0, 0, ()): value})

    def root(self, power: int = 1) -> "SectorValue":
        return self.scalar(Cyclotomic.root(self.order, power))

    def lam(self, power: int = 1) -> "SectorValue":
        return self.monomial(lam=power)

    def hyperplane(self, power: int = 1) -> "SectorValue":
        return self.monomial(h=power)

    def monomial(self, lam: int = 0, h: int = 0, tau: int = 0,
                 atoms: AtomsKey = (), coeff=1) -> "SectorValue":
        if not isinstance(coeff, Cyclotomic):
            coeff = Cyclotomic.from_rational(self.order, coeff)
        return SectorValue(self, {(lam, h, tau, tuple(sorted(atoms))): coeff})


class SectorValue:
    """Truncated polynomial over Q(xi): sum of coeff * lam^a H^b tau^t * atoms.

    Monomial keys are (lam, h, tau, atoms).  lam is a non-negative integer
    bounded by the ring's lam_order (negative or fractional lam powers are
    rejected at construction); h < nilpotency; tau any integer (the 2*pi*i
    token is invertible); atoms a canonical multiset of GammaAtom powers.
    The public constructor truncates, coerces and drops zeros; ring operations
    whose results are already truncated and zero-free use ``_unchecked``.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: dict):
        clean: dict = {}
        for (lam, h, tau, atoms), coeff in terms.items():
            if not isinstance(lam, int) or lam < 0:
                raise ValueError(f"lam exponent must be a non-negative integer, got {lam!r}")
            if not isinstance(h, int) or h < 0:
                raise ValueError(f"H exponent must be a non-negative integer, got {h!r}")
            if lam + h > ring.lam_order or h >= ring.nilpotency:
                continue
            if not isinstance(coeff, Cyclotomic):
                coeff = Cyclotomic.from_rational(ring.order, coeff)
            if coeff.is_zero():
                continue
            clean[(lam, h, tau, atoms)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, ring: SeriesRing, terms: dict) -> "SectorValue":
        """A value whose terms are already truncated, coerced and nonzero."""
        value = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(value, "ring", ring)
        setattr_(value, "terms", terms)
        return value

    def __setattr__(self, *_):
        raise AttributeError("SectorValue is immutable")

    # -- helpers -------------------------------------------------------------
    def _check(self, other: "SectorValue"):
        if self.ring is not other.ring:
            raise OrderMismatchError(
                f"ring mismatch: {self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, SectorValue):
            self._check(other)
            return other
        return self.ring.scalar(other)

    # -- ring operations -------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = terms.get(key)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        return SectorValue._unchecked(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return SectorValue._unchecked(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SectorValue):
            self._check(other)
        elif isinstance(other, (int, Fraction)):
            return self._scaled(other)
        else:
            other = self.ring.scalar(other)
        ring = self.ring
        if len(other.terms) == 1:
            return self._times_monomial(other)
        if len(self.terms) == 1:
            return other._times_monomial(self)
        out: dict = {}
        for (l1, h1, t1, a1), c1 in self.terms.items():
            for (l2, h2, t2, a2), c2 in other.terms.items():
                lam = l1 + l2
                h = h1 + h2
                if lam + h > ring.lam_order or h >= ring.nilpotency:
                    continue
                key = (lam, h, t1 + t2, _merge_atoms(a1, a2))
                prod = c1 * c2
                prev = out.get(key)
                total = prod if prev is None else prev + prod
                if total.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = total
        return SectorValue._unchecked(ring, out)

    __rmul__ = __mul__

    def _scaled(self, value) -> "SectorValue":
        """self * value for a rational value: every coefficient's integer
        numerators times value's numerator, over its denominator times
        value's, with no scalar ``SectorValue`` and no ``Cyclotomic`` product."""
        num, den = value.numerator, value.denominator
        if not num:
            return SectorValue._unchecked(self.ring, {})
        order, reduced = self.ring.order, Cyclotomic._reduced
        return SectorValue._unchecked(
            self.ring, {key: reduced(order, tuple([x * num for x in c.nums]), c.den * den)
                        for key, c in self.terms.items()})

    def _times_monomial(self, mono: "SectorValue") -> "SectorValue":
        """self * mono for a one-term mono: each key maps to one key.

        Adding a fixed monomial is injective on keys and a product of
        nonzero field elements is nonzero, so there is nothing to merge and
        nothing to drop but the truncation.
        """
        ring = self.ring
        lam_order, nilpotency = ring.lam_order, ring.nilpotency
        ((l2, h2, t2, a2), c2), = mono.terms.items()
        out: dict = {}
        for (l1, h1, t1, a1), c1 in self.terms.items():
            lam = l1 + l2
            h = h1 + h2
            if lam + h > lam_order or h >= nilpotency:
                continue
            out[(lam, h, t1 + t2, _merge_atoms(a1, a2))] = c1 * c2
        return SectorValue._unchecked(ring, out)

    def __pow__(self, n: int):
        if n < 0:
            return series_invert(self) ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not SectorValue:
            if isinstance(other, Cyclotomic) and other.order != self.ring.order:
                return False
            if isinstance(other, (int, Fraction, Cyclotomic)):
                other = self.ring.scalar(other)
            elif not isinstance(other, SectorValue):
                return False
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(),
                                             key=lambda kv: kv[0]))))

    # -- queries -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Cyclotomic:
        return self.terms.get((0, 0, 0, ()), Cyclotomic.zero(self.ring.order))

    def coefficient(self, lam: int = 0, h: int = 0, tau: int = 0,
                    atoms: AtomsKey = ()) -> Cyclotomic:
        return self.terms.get((lam, h, tau, tuple(sorted(atoms))),
                              Cyclotomic.zero(self.ring.order))

    def lambda_valuation(self) -> int:
        """Largest k with lam^k dividing every monomial; inf -> lam_order+1."""
        if not self.terms:
            return self.ring.lam_order + 1
        return min(key[0] for key in self.terms)

    def nonequivariant_limit(self) -> "SectorValue":
        """Set lam to 0: keep only lam-degree-zero monomials."""
        return SectorValue(self.ring,
                           {k: c for k, c in self.terms.items() if k[0] == 0})

    def with_ring(self, ring: SeriesRing) -> "SectorValue":
        """Re-truncate into another ring of the same cyclotomic order; a
        value already in ``ring`` is returned as it is."""
        if ring is self.ring:
            return self
        if ring.order != self.ring.order:
            raise OrderMismatchError("cannot change cyclotomic order")
        return SectorValue(ring, dict(self.terms))

    def scale_atoms(self, atoms: AtomsKey) -> "SectorValue":
        return SectorValue(self.ring,
                           {(l, h, t, _merge_atoms(a, atoms)): c
                            for (l, h, t, a), c in self.terms.items()})

    def map_monomials(self, fn) -> "SectorValue":
        """fn(key, coeff) -> (key, coeff) or None (drop)."""
        out: dict = {}
        for key, coeff in self.terms.items():
            mapped = fn(key, coeff)
            if mapped is None:
                continue
            k2, c2 = mapped
            prev = out.get(k2)
            total = c2 if prev is None else prev + c2
            if total.is_zero():
                out.pop(k2, None)
            else:
                out[k2] = total
        return SectorValue(self.ring, out)

    def __repr__(self):
        return f"SectorValue({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (lam, h, tau, atoms) in sorted(self.terms):
            coeff = self.terms[(lam, h, tau, atoms)]
            bits = [f"({coeff})"]
            if lam:
                bits.append(f"lam^{lam}")
            if h:
                bits.append(f"H^{h}")
            if tau:
                bits.append(f"tau^{tau}")
            for atom, exp in atoms:
                bits.append(f"{atom}^{exp}" if exp != 1 else str(atom))
            parts.append("*".join(bits))
        return " + ".join(parts)


def series_exp(x: SectorValue) -> SectorValue:
    """Sum x^n / n!, exact at truncation order.

    Requires a nilpotent-plus-truncated argument: zero constant term and
    every monomial of positive (lam, H)-degree, no atoms and no bare tau
    powers (the exponential of a unit is outside the model).
    """
    for (lam, h, tau, atoms) in x.terms:
        if atoms:
            raise NonUnitError("cannot exponentiate Gamma atoms")
        if lam + h == 0:
            raise NonUnitError("series_exp needs a zero constant term")
    result = x.ring.one()
    power = x.ring.one()
    bound = x.ring.lam_order + x.ring.nilpotency
    fact = 1
    for n in range(1, bound + 1):
        power = power * x
        if power.is_zero():
            break
        fact *= n
        result = result + power * Fraction(1, fact)
    return result


def series_invert(x: SectorValue) -> SectorValue:
    """y with x*y = 1 to truncation order.

    The constant term must be a nonzero cyclotomic and every other monomial
    must have positive (lam, H)-degree; geometric-sum callers that hold a
    zero constant term get a NonUnitError and must expand by hand.

    y is solved degree by degree in (lam, H): with x_n and y_n the parts of
    total degree n, y_0 = 1 / x_0 and y_n = -y_0 sum_{k=1..n} x_k y_{n-k},
    one product of two monomials per pair of cells.
    """
    const = x.constant_term()
    if const.is_zero():
        raise NonUnitError("series_invert: zero constant term")
    ring = x.ring
    x_parts: list = [[] for _ in range(ring.lam_order + 1)]
    for key, coeff in x.terms.items():
        lam, h, tau, atoms = key
        if atoms:
            raise NonUnitError("cannot invert Gamma atoms")
        if lam + h == 0:
            if key != (0, 0, 0, ()):
                raise NonUnitError("non-nilpotent correction term")
            continue
        x_parts[lam + h].append((lam, h, tau, coeff))
    inv_const = const.inverse()
    nilpotency = ring.nilpotency
    terms = {(0, 0, 0, ()): inv_const}
    y_parts = [[(0, 0, 0, inv_const)]]
    for n in range(1, ring.lam_order + 1):
        total: dict = {}
        for k in range(1, n + 1):
            for l1, h1, t1, c1 in x_parts[k]:
                for l2, h2, t2, c2 in y_parts[n - k]:
                    h = h1 + h2
                    if h >= nilpotency:
                        continue
                    key = (l1 + l2, h, t1 + t2)
                    prod = c1 * c2
                    prev = total.get(key)
                    total[key] = prod if prev is None else prev + prod
        part = []
        for (lam, h, tau), coeff in total.items():
            if not coeff.is_zero():
                coeff = -(coeff * inv_const)
                part.append((lam, h, tau, coeff))
                terms[(lam, h, tau, ())] = coeff
        y_parts.append(part)
    return SectorValue._unchecked(ring, terms)


def divide_by_lambda_plus_h(x: SectorValue) -> tuple[SectorValue, int]:
    """Exact quotient x / (lam + H) and the total degree it is valid to.

    Solves (lam + H) * W = x layer by layer in H; raises ExactDivisionError
    if any layer leaves a lam-free remainder.  Dividing by a degree-one
    element costs one order: the quotient is exact for monomials of total
    (lam, H)-degree <= lam_order - 1, and entries above that are dropped.
    """
    ring = x.ring
    # group into slices indexed by (tau, atoms) then by h
    slices: dict[tuple, dict[int, dict[int, Cyclotomic]]] = {}
    for (lam, h, tau, atoms), coeff in x.terms.items():
        slices.setdefault((tau, atoms), {}).setdefault(h, {})[lam] = coeff
    out: dict = {}
    valid = ring.lam_order - 1
    for (tau, atoms), layers in slices.items():
        prev: dict[int, Cyclotomic] = {}
        for h in range(ring.nilpotency):
            v = dict(layers.get(h, {}))
            for lam, coeff in prev.items():
                v[lam] = v[lam] - coeff if lam in v else -coeff
            if 0 in v and not v[0].is_zero():
                raise ExactDivisionError(
                    f"not divisible by (lam + H): remainder at H^{h}, tau^{tau}")
            w = {lam - 1: c for lam, c in v.items() if lam >= 1 and not c.is_zero()}
            for lam, coeff in w.items():
                if lam + h <= valid:
                    out[(lam, h, tau, atoms)] = coeff
            prev = w
    # truncated to total degree valid < lam_order, with h < nilpotency and
    # no zero coefficient, by construction
    return SectorValue._unchecked(ring, out), valid


# ---------------------------------------------------------------------------
# z-Laurent layer
# ---------------------------------------------------------------------------

class ZLaurentSeries:
    """Finitely supported map z-exponent -> SectorValue inside a window.

    The window is part of the value: products clamp to it, so identities
    are checked per fixed truncation.  Windows of operands must agree.
    The public constructor clamps, coerces and drops zeros; ring operations
    that do so themselves use ``_unchecked``.
    """

    __slots__ = ("ring", "z_min", "z_max", "terms")

    def __init__(self, ring: SeriesRing, z_min: int, z_max: int, terms: dict):
        if z_min > z_max:
            raise ValueError("empty z window")
        clean = {}
        for z, value in terms.items():
            if z < z_min or z > z_max:
                continue
            if not isinstance(value, SectorValue):
                value = ring.scalar(value)
            if value.is_zero():
                continue
            clean[z] = value
        self._store(ring, z_min, z_max, clean)

    @classmethod
    def _unchecked(cls, ring: SeriesRing, z_min: int, z_max: int,
                   terms: dict) -> "ZLaurentSeries":
        """A series whose terms are already inside the window and nonzero."""
        series = object.__new__(cls)
        series._store(ring, z_min, z_max, terms)
        return series

    def _store(self, ring: SeriesRing, z_min: int, z_max: int, terms: dict) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "z_min", z_min)
        object.__setattr__(self, "z_max", z_max)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("ZLaurentSeries is immutable")

    @staticmethod
    def constant(ring: SeriesRing, z_min: int, z_max: int, value) -> "ZLaurentSeries":
        return ZLaurentSeries(ring, z_min, z_max, {0: value})

    def _check(self, other: "ZLaurentSeries"):
        if (self.z_min, self.z_max) != (other.z_min, other.z_max) or \
                self.ring is not other.ring:
            raise OrderMismatchError("z-window or ring mismatch")

    def __add__(self, other):
        if not isinstance(other, ZLaurentSeries):
            other = ZLaurentSeries.constant(self.ring, self.z_min, self.z_max, other)
        self._check(other)
        terms = dict(self.terms)
        for z, v in other.terms.items():
            terms[z] = terms[z] + v if z in terms else v
        return ZLaurentSeries(self.ring, self.z_min, self.z_max, terms)

    __radd__ = __add__

    def __neg__(self):
        return ZLaurentSeries._unchecked(self.ring, self.z_min, self.z_max,
                                         {z: -v for z, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ZLaurentSeries):
            other = ZLaurentSeries.constant(self.ring, self.z_min, self.z_max, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ZLaurentSeries):
            if isinstance(other, (int, Fraction)) and other:
                # a nonzero rational keeps every term nonzero
                return ZLaurentSeries._unchecked(self.ring, self.z_min, self.z_max,
                                                 {z: v * other for z, v in self.terms.items()})
            # scalar or SectorValue multiplier
            if isinstance(other, SectorValue) or isinstance(other, (int, Fraction, Cyclotomic)):
                return ZLaurentSeries(self.ring, self.z_min, self.z_max,
                                      {z: v * other for z, v in self.terms.items()})
            return NotImplemented
        self._check(other)
        out: dict = {}
        for z1, v1 in self.terms.items():
            for z2, v2 in other.terms.items():
                z = z1 + z2
                if z < self.z_min or z > self.z_max:
                    continue
                prod = v1 * v2
                out[z] = out[z] + prod if z in out else prod
        return ZLaurentSeries._unchecked(self.ring, self.z_min, self.z_max,
                                         {z: v for z, v in out.items() if v.terms})

    __rmul__ = __mul__

    def shift(self, k: int) -> "ZLaurentSeries":
        return ZLaurentSeries(self.ring, self.z_min, self.z_max,
                              {z + k: v for z, v in self.terms.items()})

    def coefficient(self, z: int) -> SectorValue:
        return self.terms.get(z, self.ring.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, ZLaurentSeries)
                and self.ring is other.ring
                and (self.z_min, self.z_max) == (other.z_min, other.z_max)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.z_min, self.z_max,
                     tuple(sorted((z, hash(v)) for z, v in self.terms.items()))))

    def __repr__(self):
        inner = " + ".join(f"({v})*z^{z}" for z, v in sorted(self.terms.items()))
        return f"ZLaurent[{self.z_min},{self.z_max}]({inner or '0'})"


@lru_cache(maxsize=None)
def _cells(lam_order: int, nilpotency: int):
    """(keys, lam_links, h_links): the dense (lam, H) table of one ring.

    The table has one cell per (a, b) with a + b <= lam_order and b <
    nilpotency; ``keys`` holds its ``SectorValue`` key (a, b, 0, ()), shared
    by every product.  ``lam_links`` pairs the index of each cell (a, b) with
    that of (a - 1, b); ``h_links[n - 1]`` pairs it with that of (a, b - n).
    """
    cells = tuple((a, b) for a in range(lam_order + 1)
                  for b in range(min(nilpotency, lam_order - a + 1)))
    index = {cell: i for i, cell in enumerate(cells)}
    lam_links = tuple((i, index[(a - 1, b)]) for i, (a, b) in enumerate(cells) if a)
    h_links = tuple(tuple((i, index[(a, b - n)]) for i, (a, b) in enumerate(cells) if b >= n)
                    for n in range(1, min(nilpotency, lam_order + 1)))
    return tuple((a, b, 0, ()) for a, b in cells), lam_links, h_links


def _linear_product(ring: SeriesRing, z_min: int, z_max: int, linear,
                    inverse=()) -> ZLaurentSeries:
    """prod (L lam + H H + Z z)/D over ``linear`` (L, H, Z, D) times
    prod ((H H + Z z)/D)^-1 over ``inverse`` (H, Z, D): the exact product,
    clamped once, at the end, to the window.

    Every factor is homogeneous when lam, H and z have degree 1: a linear
    factor has degree 1 and an inverse factor, sum_n D (-H)^n H^n /
    (Z z)^(n+1) with H nilpotent, degree -1.  The product is therefore a
    dense table of integer numerators over one denominator, one entry per
    lam^a H^b of the ring, whose z-power is deg - a - b.  Factors multiply
    into the table without a z-dict, and the ``ZLaurentSeries`` is built
    from it once; no window clamps a partial product.
    """
    keys, lam_links, h_links = _cells(ring.lam_order, ring.nilpotency)
    table = [0] * len(keys)
    table[0] = 1
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
        if not z_c:
            raise ZeroDivisionError("inverse factor with zero z coefficient")
        if not h_c:
            # (Z z / D)^-1 = D z^-1 / Z: a scalar on the table, not a convolution
            if d_c != 1:
                table = [d_c * x for x in table]
            den *= z_c
            continue
        top = len(h_links)
        # ((H H + Z z)/D)^-1 = sum_{n <= top} D (-H)^n Z^(top-n) H^n z^(-n-1) / Z^(top+1)
        coeffs = [d_c * (-h_c) ** n * z_c ** (top - n) for n in range(top + 1)]
        new = [coeffs[0] * x for x in table]
        for n in range(1, top + 1):
            c = coeffs[n]
            for i, j in h_links[n - 1]:
                new[i] += c * table[j]
        table = new
        den *= z_c ** (top + 1)
    degree = len(linear) - len(inverse)
    pad = (0,) * (euler_phi(ring.order) - 1)
    by_z: dict = {}
    for key, num in zip(keys, table):
        z = degree - key[0] - key[1]
        if num and z_min <= z <= z_max:
            terms = by_z.get(z)
            if terms is None:
                terms = by_z[z] = {}
            terms[key] = Cyclotomic._reduced(ring.order, (num,) + pad, den)
    return ZLaurentSeries._unchecked(
        ring, z_min, z_max,
        {z: SectorValue._unchecked(ring, terms) for z, terms in by_z.items()})


def gamma_shift_product(shifts, ring: SeriesRing, z_min: int,
                        z_max: int) -> ZLaurentSeries:
    """z^(-sum steps) prod over ``shifts`` of prod_{l<steps} (x - l*z), with
    x = -(weight*lam + h_weight*H + base*z) / q for each entry of integers
    (q, weight, h_weight, base, steps), q > 0 and steps >= 0.

    This is the only rewrite connecting Gamma atoms whose offsets differ by
    integers: after undoing the z-grading conjugation, Gamma(1 - L - base) /
    Gamma(1 - L - base - steps) is one entry's z^-steps prod, so a block of
    such ratios is one call; the empty list gives 1.  Each entry's factors
    go to one ``_linear_product`` over q as they are, and z^-1 as the
    inverse factor (0 H + 1 z)^-1.  Any other entry raises.
    """
    linear = []
    for entry in shifts:
        if any(type(x) is not int for x in entry):
            raise TypeError(f"expected integers (q, weight, h_weight, base, steps), got {entry!r}")
        q, weight, h_weight, base, steps = entry
        if q <= 0:
            raise ValueError("q must be positive")
        if steps < 0:
            raise ValueError("steps must be non-negative")
        linear += [(-weight, -h_weight, -base - l * q, q) for l in range(steps)]
    return _linear_product(ring, z_min, z_max, linear, [(0, 1, 1)] * len(linear))


# ---------------------------------------------------------------------------
# Bernoulli data for the Delta^c operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (generating function z e^{zx}/(e^z - 1)).

    Recurrence sum_{k<=n} C(n+1,k) B_k = 0, exact.
    """
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum C(n,k) B_k x^{n-k}, exact.

    Not memoised: a cache keyed on ``x`` would take ``0.5`` for ``1/2`` and
    return an exact value for a float; ``transforms._log_coefficient`` is
    the cache, keyed on the integer parts of ``_rational_parts``.
    """
    x = Fraction(*_rational_parts(x))
    return sum((comb(n, k) * bernoulli_number(k) * x ** (n - k)
                for k in range(n + 1)), Fraction(0))


def _bernoulli_at(n: int, p: int, q: int) -> Fraction:
    """B_n(p/q) for integers p and q > 0.

    q^n B_n(p/q) = sum_k C(n,k) B_k p^(n-k) q^k, summed in integers over
    the lcm D of the denominators of B_0..B_n: one Fraction per call.
    """
    numbers = [bernoulli_number(k) for k in range(n + 1)]
    den = lcm(*(b.denominator for b in numbers))
    total = sum(comb(n, k) * b.numerator * (den // b.denominator) * p ** (n - k) * q ** k
                for k, b in enumerate(numbers))
    return Fraction(total, den * q ** n)
