"""The benchmark's workloads: fixed sets of ``lgcy.verify`` calls.

Each workload is a list of ``Call``s at the orders pinned by
``tests/test_acceptance.py`` (scale ``full``) or at small orders for the
benchmark's own self-test (scale ``tiny``).  A pass runs the calls one after
another in the calling process; every call must return ``pass``.

The fault gate of a workload runs that workload's checks with one injected
fault each (the corruption hooks the checks expose).  The tampered keys are
drawn from the sorted keys of the clean series with a ``random.Random``
seeded by the benchmark's ``--seed``; the checks only receive the keys.

This module imports ``lgcy`` lazily, so that the caller can time the import.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("oracle", "series", "operators")
PAIR_NAMES = ("quintic", "cubic", "quartic", "sextic")


@dataclass
class Call:
    """One check call and the verdict it must give."""

    label: str
    run: object                    # zero-argument callable -> VerificationReport
    expect_pass: bool = True
    witness_key: tuple | None = None   # comparison-style fault: exact witness key

    def verdict_ok(self, report) -> bool:
        """True when ``report`` is the verdict this call expects."""
        if self.expect_pass:
            return report.ok()
        if report.ok() or not report.witness:
            return False
        if self.witness_key is None:
            return True
        w = report.witness
        return (tuple(w.get("sector", ())), w.get("z"), tuple(w.get("degree", ()))) \
            == self.witness_key


@dataclass
class Scale:
    """Orders of one workload scale; ``full`` is the acceptance suite's."""

    oracle_n: int = 6
    mlk_orders: tuple = (8, 4)
    gamma_orders: tuple = (10, 3)
    continuation: tuple = (("quintic", 10), ("cubic", 12))
    continuation_lam: int = 3
    mlk_k: int = 4
    mlk_z: int = 6
    rctc_lam: int = 6
    residue_m: int = 6
    fjrw_orders: tuple = (10, 4)
    kernel_orders: tuple = (8, 3)


SCALES = {
    "full": Scale(),
    "tiny": Scale(oracle_n=3, mlk_orders=(3, 1), gamma_orders=(2, 1),
                  continuation=(("quintic", 2), ("cubic", 3)), continuation_lam=1,
                  mlk_k=1, mlk_z=2, rctc_lam=4, residue_m=1,
                  fjrw_orders=(3, 2), kernel_orders=(5, 1)),
}


def build_pairs() -> dict:
    from lgcy import catalog
    return {name: getattr(catalog, name)() for name in PAIR_NAMES}


def pass_calls(workload: str, pairs: dict, scale: Scale) -> list[Call]:
    """The timed check set of ``workload``; every call must pass."""
    from lgcy import verify as v

    ro = v.recommended_orders
    calls: list[Call] = []

    def add(label, fn):
        calls.append(Call(label, fn))

    if workload == "oracle":
        for name in PAIR_NAMES:
            p = pairs[name]
            add(f"oracle-equivalence[{name}]",
                lambda p=p: v.check_oracle_equivalence(p, n_max=scale.oracle_n))
        for name in ("quintic", "cubic"):
            p = pairs[name]
            add(f"mlk-untwisted[{name}]",
                lambda p=p: v.check_mlk_untwisted(p, 1, ro(p, *scale.mlk_orders)))
    elif workload == "series":
        for name in PAIR_NAMES:
            p = pairs[name]
            add(f"gamma-factorization[{name}]",
                lambda p=p: v.check_gamma_factorization(p, ro(p, *scale.gamma_orders)))
        for name, t_order in scale.continuation:
            p = pairs[name]
            add(f"continuation[{name}]",
                lambda p=p, t=t_order: v.check_continuation(
                    p, ro(p, t, scale.continuation_lam)))
    elif workload == "operators":
        for name in PAIR_NAMES:
            p = pairs[name]
            add(f"mlk-operator[{name}]",
                lambda p=p: v.check_mlk_operator(p, k_max=scale.mlk_k, z_order=scale.mlk_z))
            add(f"rctc-structure[{name}]",
                lambda p=p: v.check_rctc_conditions(p, lam_order=scale.rctc_lam))
            add(f"residue-lemma[{name}]",
                lambda p=p: v.check_residue_lemma(p, m_max=scale.residue_m))
        for name in ("quintic", "cubic"):
            p = pairs[name]
            add(f"fjrw-pipeline[{name}]",
                lambda p=p: v.check_fjrw_pipeline(p, ro(p, *scale.fjrw_orders)))
            add(f"kernel-compatibility[{name}]",
                lambda p=p: v.check_kernel_compatibility(p, ro(p, *scale.kernel_orders)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def _series_key(key) -> tuple:
    return (tuple(key[0]), key[1], tuple(key[2]))


def gate_calls(workload: str, pairs: dict, seed: int) -> list[Call]:
    """The fault-injection set of ``workload`` (AC9's injections, split by check).

    Runs on the quintic at the small orders AC9 uses, so its cost stays a
    small share of a run.  Every call must fail; comparison-style checks
    must name exactly the tampered key.
    """
    from lgcy import verify as v
    from lgcy.cohseries import Orders
    from lgcy.genfun import (h_factorization, i_function_x, untwisted_j_oracle,
                             z_ddt_distinguished)
    from lgcy.transforms import u_bar

    rng = random.Random(seed)
    q = pairs["quintic"]
    calls: list[Call] = []

    def structural(label, fn):
        calls.append(Call(label, fn, expect_pass=False))

    if workload == "oracle":
        oracle_keys = sorted(untwisted_j_oracle(q, 0, Orders(t_order=4, lam_order=0)).terms)
        for key in rng.sample(oracle_keys, 2):
            calls.append(Call("oracle-equivalence[tampered]",
                              lambda k=key: v.check_oracle_equivalence(q, n_max=4, _tamper=k),
                              expect_pass=False, witness_key=_series_key(key)))
        # the check compares t-derivatives, which do not see the t-constant term
        key = rng.choice([k for k in oracle_keys if sum(k[2]) > 0])
        structural("mlk-untwisted[tampered]",
                   lambda: v.check_mlk_untwisted(q, 1, Orders(t_order=4, lam_order=0),
                                                 _tamper=key))
    elif workload == "series":
        small = Orders(t_order=4, lam_order=2)
        for side in ("x", "y"):
            structural(f"gamma-factorization[{side},tampered]",
                       lambda s=side: v.check_gamma_factorization(q, small, _tamper_side=s))
        orders = v.recommended_orders(q, 4, 2)
        _, hx = h_factorization(q, i_function_x(q, orders), "x")
        pushed_keys = sorted(u_bar(q, orders.lam_order).apply(hx).terms)
        for key in rng.sample(pushed_keys, 2):
            calls.append(Call("continuation[tampered]",
                              lambda k=key: v.check_continuation(q, orders, _tamper=k),
                              expect_pass=False, witness_key=_series_key(key)))
    elif workload == "operators":
        sector = rng.choice([g.exps for g in q.group.elements])
        structural("mlk-operator[tampered]",
                   lambda: v.check_mlk_operator(q, _tamper_sector=sector))
        blocks = sorted((g_in, element.g.exps)
                        for g_in, entries in u_bar(q, 4).blocks.items()
                        for element, _ in entries if element.g.exps != g_in)
        block = rng.choice(blocks)
        structural("rctc-structure[tampered]",
                   lambda: v.check_rctc_conditions(q, 4, _tamper_block=block))
        # lam-divisibility is required on positive-dimensional sectors only
        fjrw = Orders(t_order=5, lam_order=4)
        fjrw_key = rng.choice(sorted(
            k for k in z_ddt_distinguished(i_function_x(q, fjrw)).terms
            if q.element(k[0]).fixed_dim() > 0))
        structural("fjrw-pipeline[tampered]",
                   lambda: v.check_fjrw_pipeline(q, fjrw, _tamper=fjrw_key,
                                                 _tamper_stage="derivative"))
        # any key of a sector with N_g != 1 breaks the survivor shape H^(N_g-1)
        kernel = Orders(t_order=4, lam_order=3)
        kernel_keys = sorted(
            k for k in z_ddt_distinguished(i_function_x(q, kernel)).terms
            if q.element(k[0]).fixed_dim() != 1)
        kernel_key = rng.choice(kernel_keys)
        structural("kernel-compatibility[tampered]",
                   lambda: v.check_kernel_compatibility(q, kernel, _tamper=kernel_key))
        structural("residue-lemma[tampered]",
                   lambda: v.check_residue_lemma(q, _tamper=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def run_calls(calls: list[Call]) -> list[str]:
    """Run every call; return the labels whose verdict was not the expected one.

    A call that raises counts as a wrong verdict.
    """
    wrong = []
    for call in calls:
        try:
            report = call.run()
        except Exception as err:  # a raising check is a failed call, not a crash
            wrong.append(f"{call.label}: raised {type(err).__name__}: {err}")
            continue
        if not call.verdict_ok(report):
            wrong.append(f"{call.label}: status={report.status} witness={report.witness}")
    return wrong
