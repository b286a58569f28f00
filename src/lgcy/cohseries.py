"""Points of the Givental symplectic space as finite truncated series.

A ``CohSeries`` is a finite map (sector, z-exponent, t-multidegree) ->
SectorValue on one of the state-space sides, together with the truncation
orders it was built at and the common prefactor tokens it carries
(t^(d*lam/tau) on the t-side, q^(H/tau) on the q-side).  Tokens are opaque:
identity checks require them to match syntactically.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exactalg import SectorValue, SeriesRing
from .lgmodel import GroupElement, LGPair

__all__ = ["Orders", "CohSeries", "TOKEN_T_LAMBDA", "TOKEN_Q_H"]

TOKEN_T_LAMBDA = "t^(d*lam/tau)"
TOKEN_Q_H = "q^(H/tau)"


@dataclass(frozen=True)
class Orders:
    """Truncation orders; they travel with every series.  A negative order
    or an empty z-window (z_min > z_max) raises ValueError."""

    t_order: int = 8
    lam_order: int = 4
    z_min: int | None = None
    z_max: int = 2

    def __post_init__(self):
        if self.t_order < 0 or self.lam_order < 0:
            raise ValueError("truncation orders must be non-negative")
        z_min, z_max = self.z_window
        if z_min > z_max:
            raise ValueError(f"empty z-window: z_min = {z_min} > z_max = {z_max}")

    @property
    def z_window(self) -> tuple[int, int]:
        z_min = -self.t_order - 2 if self.z_min is None else self.z_min
        return (z_min, self.z_max)

    def as_dict(self) -> dict:
        z_min, z_max = self.z_window
        return {"T": self.t_order, "lambda": self.lam_order,
                "zWindow": [z_min, z_max]}


def _sector_nilpotency(side: str, pair: LGPair, exps: tuple) -> int:
    if side in ("y", "z"):
        return max(1, GroupElement(pair.fermat, exps).fixed_dim())
    return 1


class CohSeries:
    """Immutable truncated element of H((z^-1)) x state space.

    Keys are (sector exps, z, degree) tuples.  The public constructor
    validates every term: it drops the keys outside the z-window or above
    the t-order and the zero values, and raises TypeError on a value that is
    not a ``SectorValue``.  Builders whose terms are clean by construction
    use ``_unchecked``.  ``terms`` promises no order: a consumer whose result
    depends on it sorts the keys itself.  Surface: ``ring_for``,
    ``filter_terms``, ``coefficient``, ``is_zero``, ``z_ddt_var``,
    ``nonequivariant_limit`` and ``compare``, None for equal series; a
    series has no arithmetic and no ``==``.
    """

    __slots__ = ("side", "pair", "c_twist", "variables", "orders", "tokens", "terms")

    def __init__(self, side: str, pair: LGPair, variables, orders: Orders,
                 terms: dict, tokens=(), c_twist: int | None = None):
        """One pass over ``terms``: window, t-degree, type and zero filters."""
        z_min, z_max = orders.z_window
        t_order = orders.t_order
        clean: dict = {}
        for key, value in terms.items():
            _, z, degs = key
            # the t-degree counts the positive entries only; the sum of
            # absolute values bounds it, and equals it when none is negative
            if not z_min <= z <= z_max or sum(map(abs, degs)) > t_order \
                    and sum(d for d in degs if d > 0) > t_order:
                continue
            if not isinstance(value, SectorValue):
                raise TypeError("series coefficients must be SectorValue")
            if not value.terms:
                continue
            clean[key] = value
        self._store(side, pair, variables, orders, clean, tokens, c_twist)

    @classmethod
    def _unchecked(cls, side: str, pair: LGPair, variables, orders: Orders,
                   terms: dict, tokens=(), c_twist: int | None = None) -> "CohSeries":
        """A series whose ``terms`` are already inside the z-window and the
        t-order, nonzero ``SectorValue``s, under tuple keys; ``terms`` is
        kept, not copied."""
        series = object.__new__(cls)
        series._store(side, pair, variables, orders, terms, tokens, c_twist)
        return series

    def _store(self, side, pair, variables, orders, terms, tokens, c_twist) -> None:
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "c_twist", c_twist)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "tokens", tuple(sorted(tokens)))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("CohSeries is immutable")

    # -- ring helpers ------------------------------------------------------
    def ring_for(self, exps: tuple) -> SeriesRing:
        return SeriesRing(self.pair.fermat.degree, self.orders.lam_order,
                          _sector_nilpotency(self.side, self.pair, exps))

    def _replace_terms(self, terms: dict) -> "CohSeries":
        return CohSeries(self.side, self.pair, self.variables, self.orders,
                         terms, self.tokens, self.c_twist)

    def filter_terms(self, pred) -> "CohSeries":
        """The terms that satisfy ``pred(key, value)``: a subset of clean
        terms is clean."""
        return CohSeries._unchecked(self.side, self.pair, self.variables, self.orders,
                                    {k: v for k, v in self.terms.items() if pred(k, v)},
                                    self.tokens, self.c_twist)

    # -- queries ---------------------------------------------------------------
    def coefficient(self, exps, z: int, degs) -> SectorValue:
        key = (tuple(exps), z, tuple(degs))
        if key in self.terms:
            return self.terms[key]
        return self.ring_for(tuple(exps)).zero()

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus -----------------------------------------------------------------
    def z_ddt_var(self, var_index: int, prefactor_lam_multiple: int = 0) -> "CohSeries":
        """z * d/d(variable): degree down, z up, times the old exponent.

        When the series carries the t^(d*lam/tau) prefactor the derivative
        picks up the extra d*lam/tau summand on the distinguished variable;
        pass d as ``prefactor_lam_multiple`` to include it (the term keeps a
        tau^-1 token power and is divisible by lam).

        Lowering one degree is injective on keys and never raises the
        t-degree, so the result is built unchecked once the keys pushed
        above z_max and the zero values are dropped.  With no prefactor a
        term of exponent 1 passes its value object through.  Terms share
        values (one per factorial in the closed J), so every other
        (value, exponent) is formed once per call, and the prefactor's
        d lam tau^-1 once per ring.
        """
        if not 0 <= var_index < len(self.variables):
            raise ValueError(f"variable index {var_index} outside [0, {len(self.variables)})")
        z_max = self.orders.z_window[1]
        out: dict = {}
        formed: dict = {}
        prefactors: dict = {}   # ring -> d lam tau^-1 in it
        for (exps, z, degs), value in self.terms.items():
            exponent = degs[var_index]
            # a term with a zero exponent and no prefactor has no derivative
            if z >= z_max or (not exponent and not prefactor_lam_multiple):
                continue
            if exponent == 1 and not prefactor_lam_multiple:
                total = value
            else:
                total = formed.get((id(value), exponent))
                if total is None:
                    if exponent:
                        total = value if exponent == 1 else value * exponent
                    if prefactor_lam_multiple:
                        ring = value.ring
                        monomial = prefactors.get(ring)
                        if monomial is None:
                            monomial = prefactors[ring] = ring.monomial(
                                lam=1, tau=-1, coeff=prefactor_lam_multiple)
                        piece = value * monomial
                        total = piece if total is None else total + piece
                    formed[id(value), exponent] = total
            if total.terms:
                lowered = list(degs)
                lowered[var_index] = exponent - 1
                out[(exps, z + 1, tuple(lowered))] = total
        return CohSeries._unchecked(self.side, self.pair, self.variables, self.orders,
                                    out, self.tokens, self.c_twist)

    def nonequivariant_limit(self) -> "CohSeries":
        """Set lam = 0; the t^(d*lam/tau) token degenerates to 1 and is dropped."""
        tokens = tuple(t for t in self.tokens if t[0] != TOKEN_T_LAMBDA)
        terms = {}
        for key, value in self.terms.items():
            limited = value.nonequivariant_limit()
            if not limited.is_zero():
                terms[key] = limited
        return CohSeries(self.side, self.pair, self.variables, self.orders,
                         terms, tokens, self.c_twist)

    # -- comparison ----------------------------------------------------------------
    def compare(self, other: "CohSeries") -> dict | None:
        """None if equal; otherwise a witness for the first difference.

        Equal term dicts are equal series, since neither keeps a zero value.
        Otherwise the witness is the least key, in sorted order, whose values
        differ, a key missing on one side read as zero there.
        """
        if self.tokens != other.tokens:
            return {"kind": "token-mismatch",
                    "left": list(self.tokens), "right": list(other.tokens)}
        if self.side != other.side or self.variables != other.variables:
            return {"kind": "signature-mismatch",
                    "left": [self.side, list(map(str, self.variables))],
                    "right": [other.side, list(map(str, other.variables))]}
        if self.terms == other.terms:
            return None
        left, right = self.terms, other.terms
        key = min(key for key in left.keys() | right.keys() if left.get(key) != right.get(key))
        zero = self.ring_for(key[0]).zero()
        return {"kind": "coefficient",
                "sector": list(key[0]), "z": key[1],
                "degree": list(key[2]),
                "left": str(left.get(key, zero)), "right": str(right.get(key, zero))}

    def __repr__(self):
        return (f"CohSeries(side={self.side!r}, pair={self.pair.name}, "
                f"{len(self.terms)} terms)")

