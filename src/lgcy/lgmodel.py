"""Fermat Landau-Ginzburg pairs: weights, symmetry groups, sectors, pairings.

A pair is W = sum_j x_j^(d/c_j) together with an admissible group G of
diagonal symmetries (one always containing the grading element j with
multiplicities c_j/d).  Everything is bookkeeping on exponent vectors:
the element acting by exp(2 pi i k_j c_j / d) on the j-th coordinate is
stored as the tuple (k_1, ..., k_N) with 0 <= k_j < d/c_j.

Because m_j(g) = k_j(g) c_j / d, the moduli selection rule is integer
arithmetic: the j-th line bundle degree (c c_j/d)(2h-2+n) - sum_i m_j(g_i)
equals (c_j/d)(c(2h-2+n) - sum_i k_j(g_i)), and it is an integer exactly
when d/c_j divides c(2h-2+n) - sum_i k_j(g_i).
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from pathlib import Path

__all__ = [
    "FermatData",
    "GroupElement",
    "AdmissibleGroup",
    "LGPair",
    "SectorBasisElement",
    "PairingValue",
    "group_from_generators",
    "pair_twisted",
    "load_pair",
    "pair_to_dict",
    "PAIRING_SPECIALIZATIONS",
]


@dataclass(frozen=True)
class FermatData:
    """Weights c_1..c_N and degree d of sum_j x_j^(d/c_j)."""

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        if not self.weights or any(c < 1 for c in self.weights):
            raise ValueError("weights must be positive")
        g = 0
        for c in self.weights:
            g = gcd(g, c)
        if g != 1:
            raise ValueError("gcd of the weights must be 1")
        for c in self.weights:
            if self.degree % c != 0:
                raise ValueError(f"weight {c} does not divide degree {self.degree}")
            if self.degree // c < 2:
                raise ValueError("Fermat exponents d/c_j must be at least 2")

    @property
    def n_variables(self) -> int:
        return len(self.weights)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        return tuple(self.degree // c for c in self.weights)

    @property
    def is_calabi_yau(self) -> bool:
        return sum(self.weights) == self.degree


def _product(a: tuple[int, ...], b: tuple[int, ...],
             exponents: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent tuple of the product of the elements a and b: their sum
    reduced mod d/c_j, the one place group multiplication is written."""
    return tuple([(x + y) % m for x, y, m in zip(a, b, exponents)])


class GroupElement:
    """Diagonal symmetry by exponent vector; multiplicity m_j = k_j c_j / d.

    Since 0 <= k_j < d/c_j the fraction k_j c_j / d already lies in [0, 1),
    so no fractional-part reduction is ever needed.  The public constructor
    checks that range; products, inverses and powers are reduced mod d/c_j
    by construction, so they build their results through ``_unchecked``.
    """

    __slots__ = ("fermat", "exps", "_hash")

    def __init__(self, fermat: FermatData, exps):
        exps = tuple(int(k) for k in exps)
        if len(exps) != fermat.n_variables:
            raise ValueError("exponent vector has wrong length")
        for k, bound in zip(exps, fermat.exponents):
            if not 0 <= k < bound:
                raise ValueError(f"exponent {k} out of range [0, {bound})")
        self._store(fermat, exps)

    @classmethod
    def _unchecked(cls, fermat: FermatData, exps: tuple[int, ...]) -> "GroupElement":
        """An element whose exponent tuple is already reduced into range."""
        element = object.__new__(cls)
        element._store(fermat, exps)
        return element

    def _store(self, fermat: FermatData, exps: tuple[int, ...]) -> None:
        object.__setattr__(self, "fermat", fermat)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash(exps))

    def __setattr__(self, *_):
        raise AttributeError("GroupElement is immutable")

    def multiplicity(self, j: int) -> Fraction:
        return Fraction(self.exps[j] * self.fermat.weights[j], self.fermat.degree)

    def multiplicities(self) -> tuple[Fraction, ...]:
        return tuple(self.multiplicity(j) for j in range(self.fermat.n_variables))

    def age(self) -> Fraction:
        """sum_j m_j(g), summed in integers over d."""
        return Fraction(sum(k * c for k, c in zip(self.exps, self.fermat.weights)),
                        self.fermat.degree)

    def fixed_dim(self) -> int:
        return sum(1 for k in self.exps if k == 0)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement._unchecked(
            self.fermat, _product(self.exps, other.exps, self.fermat.exponents))

    def inverse(self) -> "GroupElement":
        return GroupElement._unchecked(
            self.fermat, tuple((-a) % m for a, m in zip(self.exps, self.fermat.exponents)))

    def __pow__(self, n: int) -> "GroupElement":
        return GroupElement._unchecked(
            self.fermat, tuple((a * n) % m for a, m in zip(self.exps, self.fermat.exponents)))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.exps == other.exps and self.fermat == other.fermat)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"g{self.exps}"


def group_from_generators(fermat: FermatData, generators) -> "AdmissibleGroup":
    """Smallest admissible group containing the generators.

    The grading element is always adjoined, so the empty generator list
    yields the minimal group <j>.
    """
    grading = GroupElement(fermat, tuple(1 for _ in fermat.weights))
    gens = [GroupElement(fermat, g) if not isinstance(g, GroupElement) else g
            for g in generators]
    seeds = gens + [grading]
    identity = GroupElement(fermat, (0,) * fermat.n_variables)
    seen = {identity}
    frontier = [identity]
    while frontier:
        element = frontier.pop()
        for g in seeds:
            nxt = element * g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    elements = tuple(sorted(seen, key=lambda e: e.exps))
    return AdmissibleGroup(fermat, elements, tuple(gens), grading)


@dataclass(frozen=True)
class AdmissibleGroup:
    fermat: FermatData
    elements: tuple[GroupElement, ...]
    generators: tuple[GroupElement, ...]
    grading: GroupElement

    def __post_init__(self):
        if self.grading not in self:
            raise ValueError("admissibility: grading element must belong to the group")

    def __contains__(self, g: GroupElement) -> bool:
        return g.fermat == self.fermat and g.exps in self.position

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        """exps -> the index of that element in ``elements``."""
        return {g.exps: i for i, g in enumerate(self.elements)}

    @cached_property
    def times(self) -> tuple[tuple[int, ...], ...]:
        """times[a][b]: the position of the product of the elements at
        positions a and b, from exponent tuples alone, with no ``GroupElement``."""
        exps = [g.exps for g in self.elements]
        position, exponents = self.position, self.fermat.exponents
        return tuple(tuple(position[_product(a, b, exponents)] for b in exps) for a in exps)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def is_sl(self) -> bool:
        return all(g.age().denominator == 1 for g in self.elements)


class LGPair:
    """Root object: Fermat data plus an admissible symmetry group."""

    def __init__(self, group: AdmissibleGroup, name: str | None = None):
        self.fermat = group.fermat
        self.group = group
        self.name = name or f"fermat(d={self.fermat.degree};c={','.join(map(str, self.fermat.weights))})"
        self.identity = GroupElement(self.fermat, (0,) * self.fermat.n_variables)
        self._narrow = tuple(g for g in group.elements
                             if (g * group.grading).fixed_dim() == 0)
        self._narrow_set = frozenset(self._narrow)

    # -- flags and summaries -------------------------------------------------
    @property
    def is_calabi_yau(self) -> bool:
        return self.fermat.is_calabi_yau

    @property
    def is_sl(self) -> bool:
        return self.group.is_sl

    @property
    def grading(self) -> GroupElement:
        return self.group.grading

    def narrow_sectors(self) -> tuple[GroupElement, ...]:
        """Elements g such that g*j fixes only the origin."""
        return self._narrow

    def is_narrow(self, g: GroupElement) -> bool:
        return g in self._narrow_set

    def positive_dim_sectors(self) -> tuple[GroupElement, ...]:
        """The set {g_s}: elements fixing at least one coordinate (N_g > 0)."""
        return tuple(g for g in self.group.elements if g.fixed_dim() > 0)

    def valid_twists(self) -> tuple[int, ...]:
        """All c >= 0 with c*c_j < d for every j."""
        top = (self.fermat.degree - 1) // max(self.fermat.weights)
        return tuple(range(top + 1))

    def element(self, exps) -> GroupElement:
        """The group's own element of ``exps``, whose values may be anything
        that converts to int; a non-member raises ValueError.  A miss of the
        position lookup retries it on the checked constructor's exponents,
        converted with int(), and only a second miss is a refusal."""
        position = self.group.position
        index = position.get(tuple(exps))
        if index is None and (index := position.get(GroupElement(self.fermat, exps).exps)) is None:
            raise ValueError(f"{GroupElement(self.fermat, exps)} is not in the group")
        return self.group.elements[index]

    def require_cy(self):
        if not self.is_calabi_yau:
            raise ValueError(f"{self.name}: Calabi-Yau condition sum(c_j) = d required")

    def require_sl(self):
        if not self.is_sl:
            raise ValueError(f"{self.name}: group must lie in SL(N)")

    def require_twist(self, c: int):
        if c not in self.valid_twists():
            raise ValueError(f"{self.name}: twist c={c} outside 0 <= c*c_j < d")

    # -- moduli numerology ------------------------------------------------------
    def line_bundle_degree(self, c: int, j: int, h: int, insertions) -> Fraction:
        """(c c_j / d)(2h - 2 + n) - sum_i m_j(g_i).

        Summed in integers as (c_j / d)(c(2h - 2 + n) - sum_i k_j(g_i)), which
        is exact since m_j(g) = k_j(g) c_j / d.
        """
        numerator = c * (2 * h - 2 + len(insertions)) - sum([g.exps[j] for g in insertions])
        return Fraction(numerator * self.fermat.weights[j], self.fermat.degree)

    def is_nonempty(self, c: int, h: int, insertions) -> bool:
        """Moduli non-emptiness: integral line bundle degrees for every j.

        By the integer form of ``line_bundle_degree`` this asks that d/c_j
        divide c(2h - 2 + n) - sum_i k_j(g_i) for every j.
        """
        if not insertions:
            raise ValueError("need at least one insertion")
        return all(self.line_bundle_degree(c, j, h, insertions).denominator == 1
                   for j in range(self.fermat.n_variables))

    def __repr__(self):
        return f"LGPair({self.name}, |G|={len(self.group)})"


@dataclass(frozen=True)
class SectorBasisElement:
    """A state-space basis vector on one of the four sides.

    side: "lg" (phi^c_g), "x" (1_g), "y" (1~_g), "fjrw" (narrow phi_g).
    A Y vector is the sector's H^0 vector; H-powers live in the entries.
    """

    side: str
    g: GroupElement

    def __post_init__(self):
        if self.side not in ("lg", "x", "y", "fjrw", "z"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.side == "y" and self.g.fixed_dim() == 0:
            raise ValueError("empty Y sector: N_g = 0")


# -- twisted pairing ---------------------------------------------------------

PAIRING_SPECIALIZATIONS = ("untwisted", "euler-inverse", "euler-inverse-signed")


@dataclass(frozen=True)
class PairingValue:
    """A rational multiple of an integer power of lam (often negative)."""

    coefficient: Fraction
    lam_exponent: int = 0

    def __str__(self):
        if self.lam_exponent == 0:
            return str(self.coefficient)
        return f"{self.coefficient}*lam^{self.lam_exponent}"


def pair_twisted(pair: LGPair, c: int, g1: GroupElement, g2: GroupElement,
                 spec: str = "untwisted") -> PairingValue:
    """Twisted pairing <phi^c_{g1}, phi^c_{g2}> under a closed specialization.

    Vanishes unless g1 g2 = j^(-2c); otherwise equals
    exp(sum_j floor(1 - m_j(g1 j^c)) s_0^j) / dbar^N with s_0^j substituted.
    The floor is 1 exactly when g1 j^c fixes coordinate j, so the euler
    specializations contribute one (+-1)/(c_j lam) factor per fixed j.
    """
    if spec not in PAIRING_SPECIALIZATIONS:
        raise ValueError(f"unknown specialization {spec!r}")
    pair.require_twist(c)
    dual = (g1 * (pair.grading ** (2 * c))).inverse()
    if g2 != dual:
        return PairingValue(Fraction(0))
    norm = Fraction(1, pair.fermat.degree ** pair.fermat.n_variables)
    if spec == "untwisted":
        return PairingValue(norm)
    shifted = g1 * (pair.grading ** c)
    fixed = [j for j in range(pair.fermat.n_variables)
             if shifted.multiplicity(j) == 0]
    coeff = norm
    for j in fixed:
        coeff /= pair.fermat.weights[j]
    if spec == "euler-inverse" and len(fixed) % 2 == 1:
        coeff = -coeff
    return PairingValue(coeff, -len(fixed))


# -- pair definition records ---------------------------------------------------

def _pair_int(value, what: str) -> int:
    """A pair-file integer: bools, floats and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"pair {what} must be an integer, got {value!r}")
    return value


def _pair_ints(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"pair {what} must be a list of integers, got {value!r}")
    return tuple(_pair_int(v, what) for v in value)


def load_pair(source) -> LGPair:
    """Build an LGPair from {"weights": [...], "degree": d, "generators": [...]}.

    ``source`` is the mapping itself, or a ``str`` or ``Path`` naming a JSON
    file; a missing file raises FileNotFoundError.  The grading element is
    implicit and always adjoined.  Anything but an object whose numbers are
    integers and whose name is a string raises ValueError.
    """
    data = source
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    if not isinstance(data, Mapping):
        raise ValueError(f"a pair must be a JSON object, got {type(data).__name__}")
    for key in ("weights", "degree"):
        if key not in data:
            raise ValueError(f"pair has no {key!r}")
    generators = data.get("generators", [])
    if not isinstance(generators, (list, tuple)):
        raise ValueError(f"pair generators must be a list, got {generators!r}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"pair name must be a string, got {name!r}")
    fermat = FermatData(_pair_ints(data["weights"], "weights"),
                        _pair_int(data["degree"], "degree"))
    group = group_from_generators(
        fermat, [_pair_ints(g, "generator") for g in generators])
    return LGPair(group, name=name)


def pair_to_dict(pair: LGPair) -> dict:
    return {
        "name": pair.name,
        "weights": list(pair.fermat.weights),
        "degree": pair.fermat.degree,
        "generators": [list(g.exps) for g in pair.group.generators],
    }
