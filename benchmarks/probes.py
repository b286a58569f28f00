"""Layer probes of ``lgcy.exactalg``: microseconds per checked operation.

Operands are drawn from the benchmark's ``--seed``.  Every probe times a
fixed list of operations, repeats the timing and reports the median time
per operation; outside the timing it checks the results it timed (for
example ``(a * b) * b.inverse() == a``), so that a probe times the checked
operation and not a shortcut.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

DEGREES = (3, 4, 5, 6)
SECTOR_SHAPES = tuple((lam, n) for lam in (3, 6) for n in (1, 2, 3, 4))
SECTOR_ORDER = 5              # Q(xi_5), the quintic's coefficient field
DIVISION_RING = (6, 4)        # lam-order and nilpotency of the division probes


def metric_names() -> list[str]:
    names = [f"probe.Cyclotomic.mul.{kind}.d{d}"
             for kind in ("rational", "xi") for d in DEGREES]
    names += [f"probe.SectorValue.mul.lam{lam}.n{n}" for lam, n in SECTOR_SHAPES]
    names += ["probe.ZLaurentSeries.mul.T10",
              "probe.series_invert.lam6.n4",
              "probe.divide_by_lambda_plus_h.lam6.n4"]
    return names


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 40))


def _time_per_op(fn, operands, repeats: int):
    """Median microseconds per call of ``fn`` over ``operands``, and the results."""
    samples = []
    results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = [fn(*ops) for ops in operands]
        samples.append((time.perf_counter() - start) / len(operands) * 1e6)
    return statistics.median(samples), results


def _sector_value(rng, ring, xi_constant: bool = False):
    """Dense value of ``ring`` with a nonzero constant term."""
    from lgcy.exactalg import SectorValue

    terms = {(a, b, 0, ()): _fraction(rng)
             for b in range(ring.nilpotency)
             for a in range(ring.lam_order - b + 1)}
    if xi_constant:
        terms[(0, 0, 0, ())] = _cyclotomic(rng, ring.order)
    return SectorValue(ring, terms)


def _cyclotomic(rng, d: int):
    from lgcy.exactalg import Cyclotomic, euler_phi

    return Cyclotomic(d, [_fraction(rng) for _ in range(euler_phi(d))])


def run_probes(seed: int, scale: str = "full") -> tuple[dict, list[str]]:
    """Probe values in microseconds by metric name, and any failed self-checks."""
    from lgcy.exactalg import (Cyclotomic, SeriesRing, ZLaurentSeries,
                               divide_by_lambda_plus_h, series_invert)

    rng = random.Random(seed)
    full = scale == "full"
    repeats = 5 if full else 2
    count = 400 if full else 40      # Cyclotomic operations per repeat
    values: dict = {}
    wrong: list[str] = []

    def mul(a, b):
        return a * b

    for kind in ("rational", "xi"):
        for d in DEGREES:
            if kind == "rational":
                ops = [(Cyclotomic.from_rational(d, _fraction(rng)),
                        Cyclotomic.from_rational(d, _fraction(rng))) for _ in range(count)]
            else:
                ops = [(_cyclotomic(rng, d), _cyclotomic(rng, d)) for _ in range(count)]
            name = f"probe.Cyclotomic.mul.{kind}.d{d}"
            values[name], products = _time_per_op(mul, ops, repeats)
            if any(p * b.inverse() != a for p, (a, b) in zip(products, ops)):
                wrong.append(f"{name}: (a*b) * b^-1 != a")

    for lam, n in SECTOR_SHAPES:
        ring = SeriesRing(SECTOR_ORDER, lam, n)
        ops = [(_sector_value(rng, ring), _sector_value(rng, ring))
               for _ in range(count // 20)]
        name = f"probe.SectorValue.mul.lam{lam}.n{n}"
        values[name], products = _time_per_op(mul, ops, repeats)
        if any(p != b * a for p, (a, b) in zip(products, ops)):
            wrong.append(f"{name}: a*b != b*a")

    # the window i_function_x pads to at T=10 on the quintic, and the shape of
    # its products: a dense z-run times one linear factor (lam, z) of a Gamma shift
    from lgcy.catalog import quintic
    from lgcy.verify import recommended_orders

    t_order = 10
    z_min, z_max = recommended_orders(quintic(), t_order, 3).z_window
    window = (min(z_min, -2 * t_order - 2), z_max + t_order)
    ring = SeriesRing(SECTOR_ORDER, 3, 1)
    ops = []
    for _ in range(count // 10):
        low = rng.randint(window[0], window[1] - t_order)
        run = {z: _sector_value(rng, ring) for z in range(low, low + t_order + 1)}
        factor = {0: ring.monomial(lam=1, coeff=_fraction(rng)),
                  1: ring.scalar(_fraction(rng))}
        ops.append((ZLaurentSeries(ring, *window, run), ZLaurentSeries(ring, *window, factor)))
    name = "probe.ZLaurentSeries.mul.T10"
    values[name], products = _time_per_op(mul, ops, repeats)
    if any(p != b * a or a * (b + b) != p + p for p, (a, b) in zip(products, ops)):
        wrong.append(f"{name}: product is not commutative and distributive")

    lam, n = DIVISION_RING
    ring = SeriesRing(SECTOR_ORDER, lam, n)
    # a genuine-xi constant term, as in the continuation blocks' denominators
    units = [(_sector_value(rng, ring, xi_constant=True),) for _ in range(max(1, count // 80))]
    name = f"probe.series_invert.lam{lam}.n{n}"
    values[name], inverses = _time_per_op(series_invert, units, repeats)
    if any(x * inv != ring.one() for inv, (x,) in zip(inverses, units)):
        wrong.append(f"{name}: x * series_invert(x) != 1")

    linear = ring.lam() + ring.hyperplane()
    quotients = [_sector_value(rng, ring) for _ in range(count // 20)]
    ops = [(linear * w,) for w in quotients]
    name = f"probe.divide_by_lambda_plus_h.lam{lam}.n{n}"
    values[name], divided = _time_per_op(divide_by_lambda_plus_h, ops, repeats)
    for (quotient, valid), w in zip(divided, quotients):
        expected = w.map_monomials(lambda k, c: (k, c) if k[0] + k[1] <= valid else None)
        if quotient != expected:
            wrong.append(f"{name}: divide((lam+H) * w) != w below degree {valid}")
            break
    return values, wrong
