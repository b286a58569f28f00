"""Named end-to-end identity checks with structured pass/fail reports.

Every check is exact and deterministic: no tolerances, and a failing
report always carries the first offending coefficient key in sorted
order.  Corruption hooks (the ``_tamper`` arguments) are the self-test
surface: they inject a single-coefficient fault at a named stage and the
check must fail with that exact witness.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .cohseries import CohSeries, Orders
from .exactalg import (
    Cyclotomic,
    ExactDivisionError,
    SeriesRing,
    series_exp,
)
from .genfun import (
    IdentityError,
    fjrw_limit,
    gamma_pole_residue,
    h_continued,
    h_factorization,
    h_function_x,
    i_function_x,
    i_function_y,
    untwisted_j,
    untwisted_j_oracle,
    z_ddt_distinguished,
)
from .lgmodel import GroupElement, LGPair
from .transforms import (
    DeltaDiamond,
    PullbackToZ,
    delta_c_generic,
    delta_c_specialized,
    divide_or_none,
    i_c,
    u_bar,
    ubar_block,
)

__all__ = [
    "VerificationReport",
    "recommended_orders",
    "check_mlk_untwisted",
    "check_mlk_operator",
    "check_oracle_equivalence",
    "check_gamma_factorization",
    "check_continuation",
    "check_rctc_conditions",
    "check_fjrw_pipeline",
    "check_kernel_compatibility",
    "check_residue_lemma",
    "CHECKS",
    "ALL_CHECKS",
    "MIN_T_ORDER",
    "WORK_BOUND",
    "require_known",
    "require_bounded",
    "work_estimate",
    "run_checks",
    "self_test",
]


@dataclass
class VerificationReport:
    check: str
    pair: str
    orders: dict
    status: str = "pass"
    witness: dict | None = None
    elapsed_ms: int = 0

    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"check": self.check, "pair": self.pair, "orders": self.orders,
               "status": self.status, "elapsedMs": self.elapsed_ms}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def recommended_orders(pair: LGPair, t_order: int = 8, lam_order: int = 4) -> Orders:
    """Default orders widened so age-shifted z-powers stay in the window."""
    top = 2
    for g in pair.positive_dim_sectors():
        age = g.age()
        if age.denominator == 1 and int(age) >= 2:
            top = max(top, (int(age) - 1) * t_order + 2)
    return Orders(t_order=t_order, lam_order=lam_order, z_max=top)


# The smallest t-order at which a check sees its identity at all.  Below it
# the check returns an "orders" witness instead of a vacuous pass or a shape
# mismatch, and ``run_checks`` refuses the run up front.
MIN_T_ORDER = {"oracle-equivalence": 2, "mlk-untwisted": 1, "fjrw-pipeline": 2}


def _fjrw_missing_window(orders: Orders) -> tuple[int, int] | None:
    """The z-window fjrw-pipeline reads its identities from, when the
    window of ``orders`` lacks part of it; None when it holds it.  The
    leading term (z^1) comes from z^0, and from ``MIN_T_ORDER`` on the
    t-linear slice (z^0) from z^-1."""
    low = -1 if orders.t_order >= MIN_T_ORDER["fjrw-pipeline"] else 0
    z_min, z_max = orders.z_window
    return None if z_min <= low and z_max >= 1 else (low, 1)


def _orders_witness(check: str, orders: Orders, detail: str) -> dict:
    return {"kind": "orders", "T": orders.t_order, "minimum_T": MIN_T_ORDER[check],
            "detail": detail}


def _require_domain(pair: LGPair) -> None:
    """Raise ValueError unless the pair is Calabi-Yau with an SL group."""
    pair.require_cy()
    pair.require_sl()


def _timed(check_name: str, pair: LGPair, orders: Orders, body) -> VerificationReport:
    """The report of a check's ``body``, run once ``_require_domain`` passes."""
    _require_domain(pair)
    start = time.perf_counter()
    report = VerificationReport(check_name, pair.name, orders.as_dict())
    try:
        witness = body()
        if witness is not None:
            report.status = "fail"
            report.witness = witness
    except (IdentityError, ExactDivisionError) as err:
        report.status = "fail"
        report.witness = getattr(err, "witness", None) or {"error": str(err)}
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report


def _has_derivative(series: CohSeries) -> bool:
    """Whether some z d/dt of ``series`` keeps a term in its z-window: a
    term of positive t-degree below z_max."""
    z_max = series.orders.z_window[1]
    return any(z < z_max and any(degs) for _, z, degs in series.terms)


def _tamper_series(series: CohSeries, key) -> CohSeries:
    """Add 1 to the coefficient at ``key`` (a guaranteed change)."""
    exps = tuple(key[0])
    target = (exps, key[1], tuple(key[2]))
    value = series.coefficient(*target)
    bumped = value + series.ring_for(exps).one()
    terms = dict(series.terms)
    terms[target] = bumped
    return series._replace_terms(terms)


# ---------------------------------------------------------------------------
# MLK checks
# ---------------------------------------------------------------------------

def check_mlk_untwisted(pair: LGPair, c: int, orders: Orders,
                        _tamper=None) -> VerificationReport:
    """i_c(z d/dt^{j^c g'} J^{0,0}) = z d/dt^{g'} J^{c,0} for every g'.

    The left side is assembled from the psi-integral oracle, the right from
    the closed form, so the equality is a genuine cross-validation.  i_c
    only relabels sectors: it is applied once, to the oracle J, and its unit
    entries pass the oracle's own values through, so the relabeled series
    shares no value with the closed J.
    """
    def body():
        if orders.t_order < MIN_T_ORDER["mlk-untwisted"]:
            return _orders_witness("mlk-untwisted", orders,
                                   "every z d/dt of a T = 0 J-series is empty")
        j_oracle = untwisted_j_oracle(pair, 0, orders)
        j_closed = untwisted_j(pair, c, orders)
        if not (_has_derivative(j_oracle) or _has_derivative(j_closed)):
            return {"kind": "vacuous", "detail": "no z d/dt of J keeps a term in the z-window"}
        if _tamper is not None:
            j_oracle = _tamper_series(j_oracle, _tamper)
        relabeled = i_c(pair, c).apply(j_oracle)
        jc = pair.grading ** c
        variables = list(j_oracle.variables)
        for idx, exps in enumerate(variables):
            g_prime = GroupElement(pair.fermat, exps)
            source = jc * g_prime
            lhs = relabeled.z_ddt_var(variables.index(source.exps))
            rhs = j_closed.z_ddt_var(idx)
            witness = lhs.compare(rhs)
            if witness is not None:
                witness["direction"] = list(exps)
                return witness
        return None

    return _timed(f"mlk-untwisted(c={c})", pair, orders, body)


def check_mlk_operator(pair: LGPair, k_max: int = 4, z_order: int = 6,
                       _tamper_sector=None) -> VerificationReport:
    """i_c . Delta^0 = Delta^c . i_c entrywise, generic s and both euler specs.
    Below z-order 0 every generic entry is empty, and below k_max 0 every
    generic entry is the constant 1: both give a "vacuous" witness."""
    orders = Orders(t_order=0, lam_order=0, z_min=min(-2, z_order), z_max=z_order)

    def body():
        # the left sides, i_c . Delta^0, permute one Delta^0 for every c;
        # every right side Delta^c, c = 0 included, is built on its own
        specs = ("euler-inverse", "euler-inverse-signed")
        delta_0 = delta_c_generic(pair, 0, k_max, z_order=z_order)
        if not any(entry.nums for entry in delta_0.values()):
            return {"kind": "vacuous",
                    "detail": f"every Delta^0 entry is empty at z-order {z_order}"}
        if all(set(entry.nums) == {((), 0)} for entry in delta_0.values()):
            return {"kind": "vacuous",
                    "detail": f"every Delta^0 entry is constant at k_max {k_max}: "
                              "no log term"}
        specialized_0 = {spec: delta_c_specialized(pair, 0, spec, k_max)
                         for spec in specs}
        for c in pair.valid_twists():
            shift = pair.grading ** c
            delta_c = delta_c_generic(pair, c, k_max, z_order=z_order)
            for g in pair.group.elements:
                left = delta_0[(g * shift).exps]
                right = delta_c[g.exps]
                if _tamper_sector is not None and g.exps == _tamper_sector and c > 0:
                    right = right * Fraction(2)
                if left != right:
                    return {"kind": "generic-s", "c": c, "sector": list(g.exps)}
            for spec in specs:
                e0 = specialized_0[spec]
                ec = delta_c_specialized(pair, c, spec, k_max)
                for g in pair.group.elements:
                    if e0[(g * shift).exps] != ec[g.exps]:
                        return {"kind": spec, "c": c, "sector": list(g.exps)}
        return None

    return _timed("mlk-operator", pair, orders, body)


# ---------------------------------------------------------------------------
# oracle equivalence (closed-form J vs psi-integrals)
# ---------------------------------------------------------------------------

def check_oracle_equivalence(pair: LGPair, n_max: int = 6,
                             _tamper=None) -> VerificationReport:
    """Closed-form J coefficients equal oracle-assembled values, all valid c.

    The closed terms do not depend on c: ``untwisted_j`` builds them once
    per (pair, orders) and tags a copy with each c, while the oracle J is
    assembled afresh for every c.  A failure's witness is the first key, in
    sorted order, where the two differ.
    """
    orders = Orders(t_order=n_max, lam_order=0)

    def body():
        if n_max < MIN_T_ORDER["oracle-equivalence"]:
            return _orders_witness("oracle-equivalence", orders,
                                   "below t-degree 2 both routes write the unit and "
                                   "linear terms alike and no psi-integral is used")
        for c in pair.valid_twists():
            closed = untwisted_j(pair, c, orders)
            oracle = untwisted_j_oracle(pair, c, orders)
            if _tamper is not None:
                oracle = _tamper_series(oracle, _tamper)
            witness = closed.compare(oracle)
            if witness is not None:
                witness["c"] = c
                return witness
        return None

    return _timed("oracle-equivalence", pair, orders, body)


# ---------------------------------------------------------------------------
# Gamma factorization and Mellin-Barnes continuation
# ---------------------------------------------------------------------------

def check_gamma_factorization(pair: LGPair, orders: Orders,
                              _tamper_side: str | None = None) -> VerificationReport:
    """I = z^(1-Gr) GammaClass tau^(deg0/2) H with zero residual, both sides."""
    def body():
        for side, build in (("x", i_function_x), ("y", i_function_y)):
            series = build(pair, orders)
            if series.is_zero():
                return {"kind": "vacuous",
                        "detail": f"I^{side.upper()} has no term in the z-window"}
            if _tamper_side == side:
                series = _tamper_series(series, sorted(series.terms)[len(series.terms) // 2])
            h_factorization(pair, series, side)
        return None

    return _timed("gamma-factorization", pair, orders, body)


def check_continuation(pair: LGPair, orders: Orders,
                       _tamper=None) -> VerificationReport:
    """Ubar(H^X) = H^Y' termwise: coefficients, atoms, prefactor tokens.

    ``h_continued`` reads its Gamma atoms from the same ``_x_atoms`` that
    builds H^X, so a wrong atom there moves both sides of the comparison
    alike; the check fails through its own ``h_factorization`` call, with the
    factorization residual as witness (an atom moved by +1 on the quintic at
    ``recommended_orders(q, 5, 3)``: sector 0^5, z 1, left (1), right 0).
    """
    def body():
        ix = i_function_x(pair, orders)
        _, hx = h_factorization(pair, ix, "x")
        lhs = u_bar(pair, orders.lam_order).apply(hx)
        rhs = h_continued(pair, orders)
        if lhs.is_zero() and rhs.is_zero():
            return {"kind": "vacuous",
                    "detail": "neither Ubar(H^X) nor H^Y' has a term in the z-window"}
        if _tamper is not None:
            lhs = _tamper_series(lhs, _tamper)
        return lhs.compare(rhs)

    return _timed("continuation", pair, orders, body)


# ---------------------------------------------------------------------------
# refined crepant-transformation structure
# ---------------------------------------------------------------------------

def _cyclo_matrix_rank(rows: list[list[Cyclotomic]]) -> int:
    """Gaussian elimination over Q(xi)."""
    if not rows:
        return 0
    matrix = [list(r) for r in rows]
    n_cols = len(matrix[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, len(matrix)):
            if not matrix[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = matrix[row][col].inverse()
        matrix[row] = [v * inv for v in matrix[row]]
        for r in range(len(matrix)):
            if r != row and not matrix[r][col].is_zero():
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        row += 1
        rank += 1
        if row == len(matrix):
            break
    return rank


def _largest_nilpotency(pair: LGPair) -> int:
    """max N_g over the sectors of the group."""
    return max(g.fixed_dim() for g in pair.group.elements)


def _rctc_minimum(pair: LGPair) -> int:
    """rctc-structure's smallest lam-order: its rank columns read H^(N_g - 1)."""
    return _largest_nilpotency(pair) - 1


def check_rctc_conditions(pair: LGPair, lam_order: int = 6,
                          _tamper_block=None) -> VerificationReport:
    """Structural conditions on the continuation operator's blocks.

    (a) the xi^b = 1 block equals the geometric sum exactly;
    (b) every other block is divisible by (lam + H);
    (c) entries are lam/H-polynomial (no z, no negative powers);
    (d) the nonequivariant compact-support matrix has full rank over Q(xi).

    Each off-diagonal block is divided once, in (b).  Every block of a
    compact input (N_g = 0) is off-diagonal, so (d) reads the quotients
    that (b) kept.  Its columns reach H^(N_g - 1), which a quotient keeps
    only at lam-order N_g - 1 or more: below max N_g - 1 the check returns
    an "orders" witness, not a false rank failure.
    """
    orders = Orders(t_order=0, lam_order=lam_order)
    d = pair.fermat.degree
    minimum = _rctc_minimum(pair)

    def body():
        if lam_order < minimum:
            return {"kind": "orders", "lambda": lam_order, "minimum_lambda": minimum,
                    "detail": "the rank columns read H^(N_g - 1) of (lam+H)-quotients, "
                              "which this lam-order truncates"}
        transform = u_bar(pair, lam_order)
        nilpotencies = sorted({g.fixed_dim() for g in pair.group.elements
                               if g.fixed_dim() > 0})
        # (a) degenerate block vs the geometric-sum identity
        for n_g in nilpotencies:
            ring = SeriesRing(d, lam_order, n_g)
            x = ring.lam() + ring.hyperplane()
            geometric = ring.zero()
            for a in range(d):
                geometric = geometric + series_exp(x * a)
            lhs = series_exp(x * d) - 1
            rhs = (series_exp(x) - 1) * geometric
            if lhs != rhs:
                return {"kind": "geometric-sum", "nilpotency": n_g}
            if ubar_block(pair, 0, ring) != geometric * Fraction(1, d):
                return {"kind": "degenerate-block", "nilpotency": n_g}
        # (b) + (c): blockwise divisibility and polynomiality
        quotients: dict = {}
        for g in pair.group.elements:
            kept = quotients[g.exps] = []
            for element, entry in transform.blocks[g.exps]:
                value = entry
                if _tamper_block is not None and \
                        (g.exps, element.g.exps) == _tamper_block:
                    value = value + value.ring.one()
                for (lam, h, tau, atoms) in value.terms:
                    if tau or atoms:
                        return {"kind": "polynomiality", "input": list(g.exps),
                                "output": list(element.g.exps)}
                if element.g != g:
                    quotient = divide_or_none(value)
                    if quotient is None:
                        return {"kind": "divisibility", "input": list(g.exps),
                                "output": list(element.g.exps)}
                    kept.append((element.g.exps, quotient))
        # (d) nonequivariant rank on the compact-support span
        compact_inputs = [g for g in pair.group.elements if g.fixed_dim() == 0]
        columns = [(h.exps, k) for h in pair.positive_dim_sectors()
                   for k in range(1, h.fixed_dim())]
        rows = []
        for g in compact_inputs:
            row = {col: Cyclotomic.zero(d) for col in columns}
            for out_exps, quotient in quotients[g.exps]:
                limited = quotient.nonequivariant_limit()
                for (lam, h, tau, atoms), coeff in limited.terms.items():
                    col = (out_exps, h + 1)
                    if col in row:
                        row[col] = row[col] + coeff
            rows.append([row[col] for col in columns])
        expected = min(len(compact_inputs), len(columns))
        rank = _cyclo_matrix_rank(rows)
        if rank != expected or len(compact_inputs) != len(columns):
            return {"kind": "rank", "rank": rank, "expected": expected,
                    "rows": len(compact_inputs), "columns": len(columns)}
        return None

    return _timed("rctc-structure", pair, orders, body)


# ---------------------------------------------------------------------------
# FJRW pipeline and the kernel compatibility square
# ---------------------------------------------------------------------------

def check_fjrw_pipeline(pair: LGPair, orders: Orders, _tamper=None,
                        _tamper_stage: str = "derivative") -> VerificationReport:
    """Divisibility, narrow support, and the signed-unit leading term."""
    def body():
        needed = _fjrw_missing_window(orders)
        if needed is not None:
            low, high = needed
            return {"kind": "orders", "zWindow": list(orders.z_window),
                    "minimum_zWindow": [low, high],
                    "detail": f"the identities are read from z^{low} to z^{high}"}
        if orders.t_order < 1:
            return _orders_witness("fjrw-pipeline", orders,
                                   "the leading term comes from t-degree 1")
        derivative = z_ddt_distinguished(i_function_x(pair, orders))
        if _tamper is not None and _tamper_stage == "derivative":
            derivative = _tamper_series(derivative, _tamper)
        result = fjrw_limit(pair, derivative)
        if _tamper is not None and _tamper_stage == "result":
            result = _tamper_series(result, _tamper)
        # leading term: the z^1, t-degree-0 coefficient is the unit up to
        # the documented global sign of the Delta-circ convention
        unit_sign = _delta_circ_sign(pair.grading)
        zero_degs = tuple(0 for _ in result.variables)
        lead = result.coefficient(pair.identity.exps, 1, zero_degs)
        ring = result.ring_for(pair.identity.exps)
        if lead != ring.scalar(unit_sign):
            return {"kind": "leading-term", "expected": unit_sign,
                    "found": str(lead)}
        # change-of-variables shape: the z^0 t-linear slice is the signed
        # variable identification on narrow images, zero on broad ones; it
        # comes from t-degree 2 of I^X
        if orders.t_order < MIN_T_ORDER["fjrw-pipeline"]:
            return _orders_witness("fjrw-pipeline", orders,
                                   "the t-linear slice comes from t-degree 2")
        for idx, var in enumerate(result.variables):
            base = pair.grading ** 2 if idx == 0 else \
                GroupElement(pair.fermat, var) * pair.grading
            image = base * pair.grading.inverse()
            degs = tuple(1 if i == idx else 0 for i in range(len(result.variables)))
            if pair.is_narrow(image):
                expected = _delta_circ_sign(base)
                found = result.coefficient(image.exps, 0, degs)
                if found != result.ring_for(image.exps).scalar(expected):
                    return {"kind": "mirror-map-shape", "variable": idx,
                            "expected": expected, "found": str(found)}
            else:
                for g in pair.group.elements:
                    value = result.coefficient(g.exps, 0, degs)
                    if not value.is_zero() and not pair.is_narrow(g):
                        return {"kind": "mirror-map-broad", "variable": idx}
        return None

    return _timed("fjrw-pipeline", pair, orders, body)


def _delta_circ_sign(g: GroupElement) -> int:
    return (-1) ** int(g.age())


def check_kernel_compatibility(pair: LGPair, orders: Orders,
                               _tamper=None) -> VerificationReport:
    """Every surviving positive-dimensional term of DeltaDiamond(Ubar(z dI^X))
    is proportional to H^(N_g - 1) and dies under the ambient pullback.

    The input is the N_g > 0 part of z d/dt I^X at non-negative t-degrees
    (the t^-1 prefactor slice is lam-divisible but not (lam+H)-divisible
    after Ubar, and it is outside the cone-point data of the square).
    The working lam-order is buffered above the largest sector nilpotency
    so the (lam+H)-division keeps the lam^0 H^(N_g-1) survivors in its
    trusted range, and the check refuses to pass without any survivor.
    """
    work = Orders(t_order=orders.t_order,
                  lam_order=_UBAR_LAM_ORDERS["kernel-compatibility"](pair, orders),
                  z_min=orders.z_window[0] - 1, z_max=orders.z_window[1] + 1)

    def body():
        derivative = z_ddt_distinguished(i_function_x(pair, work))
        restricted = derivative.filter_terms(
            lambda key, value: key[2][0] >= 0
            and GroupElement(pair.fermat, key[0]).fixed_dim() > 0)
        pushed = u_bar(pair, work.lam_order).apply(restricted)
        divided = DeltaDiamond(pair).apply(pushed)
        survivors = divided.nonequivariant_limit()
        if _tamper is not None:
            survivors = _tamper_series(survivors, _tamper)
        if survivors.is_zero():
            return {"kind": "vacuous", "detail": "no surviving terms to test"}
        for (exps, z, degs), value in sorted(survivors.terms.items()):
            n_g = GroupElement(pair.fermat, exps).fixed_dim()
            for (lam, h, tau, atoms) in value.terms:
                if h != n_g - 1:
                    return {"kind": "survivor-shape", "sector": list(exps),
                            "z": z, "degree": list(degs), "h_power": h,
                            "expected_h": n_g - 1}
        residual = PullbackToZ(pair).apply(survivors)
        if not residual.is_zero():
            key = sorted(residual.terms)[0]
            return {"kind": "pullback-nonzero", "sector": list(key[0]),
                    "z": key[1], "degree": list(key[2])}
        return None

    return _timed("kernel-compatibility", pair, orders, body)


def check_residue_lemma(pair: LGPair, m_max: int = 6,
                        _tamper: bool = False) -> VerificationReport:
    """Residue of the continued Gamma factor is (-1)^m/(d m!) for all poles."""
    orders = Orders(t_order=0, lam_order=0)
    d = pair.fermat.degree

    def body():
        if m_max < 0:
            return {"kind": "vacuous", "detail": f"no pole m in 0..{m_max}"}
        for m in range(m_max + 1):
            expected = Fraction((-1) ** m, d * factorial(m))
            if _tamper:
                expected = Fraction((-1) ** m, d * max(1, m) * 2)
            for b in range(d):
                if gamma_pole_residue(m, b, d) != expected:
                    return {"kind": "residue", "m": m, "b": b, "d": d}
        return None

    return _timed("residue-lemma", pair, orders, body)


# ---------------------------------------------------------------------------
# the batch surface
# ---------------------------------------------------------------------------

# The lam-order each check that builds Ubar blocks works at, from the orders
# ``run_checks`` hands it: rctc-structure's is at least 6 and at least its
# own minimum, max N_g - 1; kernel-compatibility's is one above the larger
# of those orders and the largest sector nilpotency.
_UBAR_LAM_ORDERS = {
    "continuation": lambda pair, orders: orders.lam_order,
    "rctc-structure": lambda pair, orders: max(orders.lam_order, 6, _rctc_minimum(pair)),
    "kernel-compatibility":
        lambda pair, orders: max(orders.lam_order, _largest_nilpotency(pair)) + 1,
}

# Every check by name, in report order, at the orders ``run_checks`` runs it
# at.  Each entry looks its check up in this module when it is called, so a
# wrapper installed on ``verify.check_*`` also sees the calls made from here.
CHECKS = {
    "oracle-equivalence":
        lambda pair, orders: check_oracle_equivalence(pair, n_max=min(orders.t_order, 6)),
    "mlk-untwisted":
        lambda pair, orders: check_mlk_untwisted(pair, min(1, pair.valid_twists()[-1]),
                                                 orders),
    "mlk-operator": lambda pair, orders: check_mlk_operator(pair),
    "gamma-factorization": lambda pair, orders: check_gamma_factorization(pair, orders),
    "continuation": lambda pair, orders: check_continuation(pair, orders),
    "rctc-structure":
        lambda pair, orders: check_rctc_conditions(
            pair, _UBAR_LAM_ORDERS["rctc-structure"](pair, orders)),
    "fjrw-pipeline": lambda pair, orders: check_fjrw_pipeline(pair, orders),
    "kernel-compatibility": lambda pair, orders: check_kernel_compatibility(pair, orders),
    "residue-lemma": lambda pair, orders: check_residue_lemma(pair),
}

ALL_CHECKS = tuple(CHECKS)

# The checks that walk every multidegree of the group coordinates (J and its
# oracle) and those that walk the index table (I, H and what is built on I^X).
_J_WALK_CHECKS = ("oracle-equivalence", "mlk-untwisted")
_INDEX_WALK_CHECKS = ("gamma-factorization", "continuation", "fjrw-pipeline",
                      "kernel-compatibility")

# The largest work a run may start.  It admits every shipped pair at T = 10
# (the quartic's J walk, 43,758 multidegrees, is the largest) and refuses
# (1,1,1,1; 4) with its maximal SL group at T = 4 (814,385 multidegrees);
# it admits the quintic's Ubar blocks up to lam-order 52 and the quartic's
# kernel-compatibility at T = 10 up to lam-order 24.
WORK_BOUND = 100_000


def _work(pair: LGPair, orders: Orders, names) -> list[tuple[int, str]]:
    """(count, what would be done) of each walk the named checks start at
    ``orders``, counted before anything is built: C(|G| + T, T)
    multidegrees for a J check, C(1 + P + T, T) indices for an I/H check,
    with P the number of positive-dimensional sectors, and, for a check that
    builds Ubar blocks at lam-order L, about (d - 1) C(L + 2, 3) coefficient
    products in the d - 1 inversions of their line series, which grow as L^3
    whatever T is.  kernel-compatibility also applies Ubar to every I^X
    index: the index count times the (lam, H) cells of one block at its
    lam-order L and the largest nilpotency N, N (L + 1) - C(N, 2)."""
    t = orders.t_order
    indices = comb(1 + len(pair.positive_dim_sectors()) + t, t)
    walks = [comb(len(pair.group) + t, t)] if set(names) & set(_J_WALK_CHECKS) else []
    if set(names) & set(_INDEX_WALK_CHECKS):
        walks.append(indices)
    work = [(n, f"walk {n:,} terms at T = {t}") for n in walks]
    for lam in {_UBAR_LAM_ORDERS[name](pair, orders) for name in names if name in _UBAR_LAM_ORDERS}:
        n = (pair.fermat.degree - 1) * comb(lam + 2, 3)
        work.append((n, f"form {n:,} coefficient products at lambda-order {lam}"))
    if "kernel-compatibility" in names:
        lam = _UBAR_LAM_ORDERS["kernel-compatibility"](pair, orders)
        nil = _largest_nilpotency(pair)
        n = indices * (nil * (lam + 1) - comb(nil, 2))
        work.append((n, f"apply Ubar to {n:,} (lambda, H) cells of {indices:,} indices "
                        f"at lambda-order {lam}"))
    return work


def work_estimate(pair: LGPair, orders: Orders, names) -> int:
    """The largest count of ``_work``; 0 when the named checks make none."""
    return max(_work(pair, orders, names), default=(0,))[0]


def require_bounded(pair: LGPair, orders: Orders, names,
                    subject: str = "the checks") -> None:
    """Raise ValueError, naming ``subject`` and the count, when the largest
    work of the named checks at ``orders`` exceeds ``WORK_BOUND``."""
    count, what = max(_work(pair, orders, names), default=(0, ""))
    if count > WORK_BOUND:
        raise ValueError(f"{subject} would {what}, above the bound of {WORK_BOUND:,}")


def require_known(names) -> None:
    """Raise ValueError at the first of ``names`` that is not in ``CHECKS``."""
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(ALL_CHECKS)}")


def _admit(pair: LGPair, names, short: str, work: Orders) -> None:
    """Refuse as ``run_checks`` documents; ``short`` is the t-floor refusal or ""."""
    _require_domain(pair)
    require_known(names)
    if short:
        raise ValueError(short)
    needed = _fjrw_missing_window(work) if "fjrw-pipeline" in names else None
    if needed is not None:
        raise ValueError(f"fjrw-pipeline reads its identities from z^{needed[0]} to "
                         f"z^{needed[1]}, got the z-window {list(work.z_window)}")
    require_bounded(pair, work, names)


def run_checks(pair: LGPair, names, orders: Orders) -> list[VerificationReport]:
    """The reports of the named checks, in the given order, each at its
    ``CHECKS`` orders.  A pair that is not CY with an SL group, an unknown
    name, a t-order below a named check's ``MIN_T_ORDER``, a z-window
    without the z-powers fjrw-pipeline reads, or a ``work_estimate`` above
    ``WORK_BOUND`` raises ValueError first."""
    t = orders.t_order
    short = "; ".join(f"{name} needs T >= {MIN_T_ORDER[name]}"
                      for name in names if t < MIN_T_ORDER.get(name, 0))
    _admit(pair, names, short and f"{short} to see its identity, got T = {t}", orders)
    return [CHECKS[name](pair, orders) for name in names]


def self_test(pair: LGPair, orders: Orders) -> list[VerificationReport]:
    """Inject one fault per check, in ``ALL_CHECKS`` order; every report
    must come back failing with a witness.  A pair that is not CY with an
    SL group, a t-order below 1, or orders whose ``work_estimate`` exceeds
    ``WORK_BOUND`` raise ValueError before any check runs."""
    small = Orders(t_order=min(orders.t_order, 5),
                   lam_order=min(orders.lam_order, 3))
    # at T = 0 the mlk-untwisted and fjrw-pipeline faults meet "orders"
    # witnesses and the t-order cuts the kernel-compatibility fault's key;
    # the oracle-equivalence fault is placed at T = 4 whatever the orders
    short = "" if orders.t_order >= 1 else \
        f"the self-test needs T >= 1 to see every injected fault, got T = {orders.t_order}"
    _admit(pair, ALL_CHECKS, short, Orders(t_order=max(small.t_order, 4), lam_order=0))
    wide = recommended_orders(pair, small.t_order, small.lam_order)
    # the mlk-untwisted fault goes on the first key from the middle on that a
    # z d/dt sees (``_has_derivative``)
    keys = sorted(untwisted_j_oracle(pair, 0, small).terms)
    key_oracle = next((key for key in keys[len(keys) // 2:] if key[1] < small.z_window[1]
                       and any(key[2])), keys[len(keys) // 2])
    key_first = sorted(untwisted_j_oracle(pair, 0, Orders(t_order=4, lam_order=0)).terms)[0]
    pushed = u_bar(pair, small.lam_order).apply(h_function_x(pair, wide))
    key_cont = sorted(pushed.terms)[len(pushed.terms) // 2]
    g_in = pair.grading.exps
    g_out = pair.identity.exps
    n_vars = 1 + len(pair.positive_dim_sectors())
    return [
        check_oracle_equivalence(pair, n_max=4, _tamper=key_first),
        check_mlk_untwisted(pair, pair.valid_twists()[-1], small, _tamper=key_oracle),
        check_mlk_operator(pair, _tamper_sector=g_in),
        check_gamma_factorization(pair, small, _tamper_side="x"),
        check_continuation(pair, wide, _tamper=key_cont),
        check_rctc_conditions(pair, 4, _tamper_block=(g_in, g_out)),
        check_fjrw_pipeline(pair, small, _tamper=(g_out, 1, (0,) * n_vars),
                            _tamper_stage="result"),
        check_kernel_compatibility(pair, small,
                                   _tamper=(g_out, 0, (1,) + (0,) * (n_vars - 1))),
        check_residue_lemma(pair, _tamper=True),
    ]
