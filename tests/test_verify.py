"""The verification surface: reports, determinism, monotonicity, self-tests."""
from __future__ import annotations

import dataclasses
import json
import math
import random
import time

import pytest

from lgcy import verify
from lgcy.catalog import cubic, quartic, quintic, sextic
from lgcy.cohseries import CohSeries, Orders
from lgcy.genfun import (
    h_factorization,
    i_function_x,
    untwisted_j_oracle,
    z_ddt_distinguished,
)
from lgcy.lgmodel import LGPair, load_pair
from lgcy.transforms import Transform, u_bar
from lgcy.verify import (
    ALL_CHECKS,
    check_continuation,
    check_fjrw_pipeline,
    check_gamma_factorization,
    check_kernel_compatibility,
    check_mlk_operator,
    check_mlk_untwisted,
    check_oracle_equivalence,
    check_rctc_conditions,
    check_residue_lemma,
    recommended_orders,
    run_checks,
    self_test,
)

SMALL = Orders(t_order=4, lam_order=3)


@pytest.mark.parametrize("pair", [quintic(), sextic()], ids=lambda p: p.name)
def test_all_checks_pass_at_small_orders(pair):
    # T = 5 is the smallest order at which the quintic's kernel check has a
    # survivor to test (sector e is first reached at k0 = d)
    orders = recommended_orders(pair, 5, 3)
    reports = run_checks(pair, ALL_CHECKS, orders)
    assert [r.check for r in reports]
    for report in reports:
        assert report.ok(), (report.check, report.witness)
        assert report.pair == pair.name


def test_kernel_check_reports_vacuous_truncation():
    # below the first productive order the check refuses to pass
    report = check_kernel_compatibility(quintic(), Orders(t_order=4, lam_order=3))
    assert not report.ok() and report.witness["kind"] == "vacuous"


@pytest.mark.parametrize("check", [check_mlk_untwisted, check_gamma_factorization,
                                   check_continuation], ids=lambda f: f.__name__)
def test_checks_refuse_a_window_above_the_support(check):
    """z^3 lies above every J, I and H term of the cubic at T = 4: each check
    that compares series fails vacuous instead of passing over no term."""
    pair, orders = cubic(), Orders(t_order=4, lam_order=2, z_min=3, z_max=3)
    args = (pair, 1, orders) if check is check_mlk_untwisted else (pair, orders)
    report = check(*args)
    assert not report.ok() and report.witness["kind"] == "vacuous"
    assert set(report.witness) == {"kind", "detail"}


def test_mlk_untwisted_is_vacuous_when_only_the_unit_is_in_the_window():
    """At z^1 alone J holds its unit term, but no z d/dt of it does."""
    report = check_mlk_untwisted(cubic(), 1, Orders(t_order=4, lam_order=2, z_min=1, z_max=1))
    assert report.witness["kind"] == "vacuous"


def test_vacuous_window_is_decided_before_the_tamper_hook():
    """A tamper key whose derivative would land in an otherwise empty
    window still gives the vacuous witness, not a coefficient mismatch."""
    pair, orders = cubic(), Orders(t_order=1, lam_order=0, z_min=-3, z_max=-2)
    degs = (1,) + (0,) * (len(pair.group) - 1)
    report = check_mlk_untwisted(pair, 1, orders, _tamper=(pair.identity.exps, -3, degs))
    assert report.witness["kind"] == "vacuous"


def test_empty_z_window_is_refused():
    with pytest.raises(ValueError, match="empty z-window"):
        Orders(t_order=4, lam_order=2, z_min=5, z_max=0)
    with pytest.raises(ValueError, match="empty z-window"):
        Orders(t_order=6, lam_order=2, z_max=-9)


def test_mlk_untwisted_relabels_the_oracle_once(monkeypatch):
    calls = []
    apply = Transform.apply

    def counted(self, series):
        calls.append(self.name)
        return apply(self, series)

    monkeypatch.setattr(Transform, "apply", counted)
    assert check_mlk_untwisted(quintic(), 1, Orders(t_order=4, lam_order=0)).ok()
    assert calls == ["i_1"]


def test_report_schema():
    q = quintic()
    report = check_residue_lemma(q)
    data = report.to_dict()
    assert set(data) == {"check", "pair", "orders", "status", "elapsedMs"}
    assert set(data["orders"]) == {"T", "lambda", "zWindow"}
    json.dumps(data)
    failing = check_residue_lemma(q, _tamper=True)
    assert "witness" in failing.to_dict()


def test_run_checks_reads_the_table_and_refuses_unknown_names_first(monkeypatch):
    """Every check runs through the module's name, so a wrapper installed on
    ``verify.check_*`` sees it; an unknown name is refused before any runs."""
    ran = []
    monkeypatch.setattr(verify, "check_residue_lemma", lambda pair: ran.append(pair.name))
    q = quintic()
    run_checks(q, ["residue-lemma"], SMALL)
    assert ran == ["quintic"]
    with pytest.raises(ValueError, match="unknown check 'no-such-check'"):
        run_checks(q, ["residue-lemma", "no-such-check"], SMALL)
    assert ran == ["quintic"]
    assert ALL_CHECKS == tuple(verify.CHECKS)


def test_reports_are_deterministic():
    q = quintic()
    orders = recommended_orders(q, 4, 2)
    first = check_continuation(q, orders)
    second = check_continuation(q, orders)
    a, b = first.to_dict(), second.to_dict()
    a.pop("elapsedMs"), b.pop("elapsedMs")
    assert a == b


def test_failing_reports_reproducible_bit_for_bit():
    q = quintic()
    orders = recommended_orders(q, 4, 2)
    _, hx = h_factorization(q, i_function_x(q, orders), "x")
    pushed = u_bar(q, orders.lam_order).apply(hx)
    key = sorted(pushed.terms)[0]
    runs = []
    for _ in range(2):
        report = check_continuation(q, orders, _tamper=key).to_dict()
        report.pop("elapsedMs")
        runs.append(json.dumps(report, sort_keys=True))
    assert runs[0] == runs[1]


def test_monotonicity_in_truncation_order():
    """A pass at (T, L) restricts to a pass at any smaller orders."""
    q = quintic()
    big = recommended_orders(q, 6, 3)
    small = Orders(t_order=4, lam_order=2, z_max=big.z_window[1])
    _, hx_big = h_factorization(q, i_function_x(q, big), "x")
    lhs_big = u_bar(q, big.lam_order).apply(hx_big)
    _, hx_small = h_factorization(q, i_function_x(q, small), "x")
    lhs_small = u_bar(q, small.lam_order).apply(hx_small)
    assert lhs_big.restricted(small).compare(lhs_small) is None


def test_witness_carries_failing_key():
    q = quintic()
    orders = recommended_orders(q, 4, 2)
    _, hx = h_factorization(q, i_function_x(q, orders), "x")
    pushed = u_bar(q, orders.lam_order).apply(hx)
    key = sorted(pushed.terms)[2]
    report = check_continuation(q, orders, _tamper=key)
    assert not report.ok()
    witness = report.witness
    assert tuple(witness["sector"]) == key[0]
    assert witness["z"] == key[1]
    assert tuple(witness["degree"]) == key[2]
    assert witness["left"] != witness["right"]


def test_mlk_untwisted_string_equation_direction():
    # g' = e reduces to the string equation and must pass like the rest
    q = quintic()
    report = check_mlk_untwisted(q, 1, Orders(t_order=4, lam_order=0))
    assert report.ok()


@pytest.mark.parametrize("pair", [quintic(), cubic(), quartic(), sextic()],
                         ids=lambda p: p.name)
def test_rctc_square_block(pair):
    report = check_rctc_conditions(pair, 5)
    assert report.ok(), report.witness
    compact = [g for g in pair.group.elements if g.fixed_dim() == 0]
    columns = sum(h.fixed_dim() - 1 for h in pair.positive_dim_sectors())
    assert len(compact) == columns


def test_rctc_rank_value_quintic():
    q = quintic()
    compact = [g for g in q.group.elements if g.fixed_dim() == 0]
    assert len(compact) == 4  # the rank of the compact-support block


def test_degenerate_pair_rejected():
    from lgcy.lgmodel import load_pair
    with pytest.raises(ValueError):
        load_pair({"weights": [1], "degree": 1})


# -- corruption detection (harness integrity) -----------------------------------

def test_every_injected_fault_is_detected():
    q = quintic()
    rng = random.Random(2024)
    oracle = untwisted_j_oracle(q, 0, Orders(t_order=4, lam_order=0))
    keys = sorted(oracle.terms)
    detections = []
    for _ in range(3):
        key = rng.choice(keys)
        report = check_oracle_equivalence(q, n_max=4, _tamper=key)
        detections.append(not report.ok()
                          and tuple(report.witness["sector"]) == key[0])
    orders = recommended_orders(q, 4, 2)
    _, hx = h_factorization(q, i_function_x(q, orders), "x")
    pushed = u_bar(q, orders.lam_order).apply(hx)
    for _ in range(3):
        key = rng.choice(sorted(pushed.terms))
        report = check_continuation(q, orders, _tamper=key)
        detections.append(not report.ok())
    assert all(detections)


def test_oracle_dual_choice_goes_through_is_nonempty(monkeypatch):
    # refusing one g0 j^c as the first insertion must drop exactly the terms
    # on its dual sector, so the oracle cannot pick its duals another way
    q = quintic()
    refused = q.grading
    is_nonempty = LGPair.is_nonempty
    calls = []

    def refusing(self, c, h, insertions):
        calls.append(c)
        return insertions[0] != refused and is_nonempty(self, c, h, insertions)

    monkeypatch.setattr(LGPair, "is_nonempty", refusing)
    report = check_oracle_equivalence(q, n_max=3)
    assert calls
    assert not report.ok()
    # at c = 0, g0 j^c = g0 and its dual sector is g0^-1
    assert report.witness["kind"] == "coefficient" and report.witness["c"] == 0
    assert report.witness["sector"] == list(refused.inverse().exps)
    assert report.witness["right"] == "0"


def test_structural_check_self_tests():
    q = quintic()
    assert not check_gamma_factorization(q, SMALL, _tamper_side="x").ok()
    assert not check_gamma_factorization(q, SMALL, _tamper_side="y").ok()
    assert not check_mlk_operator(q, _tamper_sector=q.grading.exps).ok()
    assert not check_rctc_conditions(
        q, 4, _tamper_block=(q.grading.exps, q.identity.exps)).ok()
    assert not check_residue_lemma(q, _tamper=True).ok()


def test_fjrw_self_test():
    q = quintic()
    orders = Orders(t_order=5, lam_order=4)
    # corrupted coefficient in the derivative breaks (a) or (c)
    bad = check_fjrw_pipeline(
        q, orders, _tamper=((2, 2, 2, 2, 2), 0, (1, 0)), _tamper_stage="derivative")
    assert not bad.ok()
    assert check_fjrw_pipeline(q, orders).ok()


def test_kernel_self_test():
    q = quintic()
    report = check_kernel_compatibility(
        q, SMALL, _tamper=((0, 0, 0, 0, 0), 0, (1, 0)))
    assert not report.ok()
    assert report.witness["kind"] in ("survivor-shape", "pullback-nonzero")


def test_mlk_untwisted_self_test():
    q = quintic()
    orders = Orders(t_order=4, lam_order=0)
    oracle = untwisted_j_oracle(q, 0, orders)
    key = sorted(oracle.terms)[3]
    report = check_mlk_untwisted(q, 1, orders, _tamper=key)
    assert not report.ok() and report.witness["kind"] == "coefficient"


def test_self_test_detects_every_fault_on_the_non_cyclic_group():
    pair = quartic()
    reports = self_test(pair, Orders(t_order=4, lam_order=3))
    assert [r.check.split("(")[0] for r in reports] == list(ALL_CHECKS)
    for report in reports:
        assert not report.ok(), report.check
        assert report.witness, report.check


# -- orders too small to see an identity --------------------------------------

ALL_PAIRS = [quintic(), cubic(), quartic(), sextic()]


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_mlk_untwisted_names_orders_below_t1(pair):
    # every z d/dt of a T = 0 J-series is empty: no vacuous pass
    report = check_mlk_untwisted(pair, pair.valid_twists()[-1],
                                 Orders(t_order=0, lam_order=3))
    assert not report.ok()
    assert report.witness["kind"] == "orders"
    assert (report.witness["T"], report.witness["minimum_T"]) == (0, 1)
    assert check_mlk_untwisted(pair, pair.valid_twists()[-1],
                               Orders(t_order=1, lam_order=3)).ok()


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_oracle_equivalence_names_orders_below_t2(pair):
    # below t-degree 2 neither route calls the psi-integral oracle or the
    # selection rule: no vacuous pass
    for n_max in (0, 1):
        report = check_oracle_equivalence(pair, n_max=n_max)
        assert not report.ok()
        assert report.witness["kind"] == "orders", report.witness
        assert (report.witness["T"], report.witness["minimum_T"]) == (n_max, 2)
    assert check_oracle_equivalence(pair, n_max=2).ok()


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_fjrw_pipeline_names_orders_below_t2(pair):
    # the t-linear slice comes from t-degree 2: no shape mismatch at T = 1
    for t_order in (0, 1):
        report = check_fjrw_pipeline(pair, recommended_orders(pair, t_order, 3))
        assert not report.ok()
        assert report.witness["kind"] == "orders", report.witness
        assert (report.witness["T"], report.witness["minimum_T"]) == (t_order, 2)
    assert check_fjrw_pipeline(pair, recommended_orders(pair, 2, 3)).ok()


@pytest.mark.parametrize("t_order, z_window", [(3, (-10, 0)), (3, (-1, 0)), (3, (0, 1)),
                                               (1, (1, 4))])
def test_fjrw_pipeline_names_a_narrow_z_window(monkeypatch, t_order, z_window):
    """The leading term is read at z^1 from z^0, the t-linear slice (from
    T = 2 on) at z^0 from z^-1: a window without them gets an "orders"
    witness, decided before any series is built.  ``run_checks`` reads the
    same rule: from T = 2 on it refuses a run of the check at that window,
    naming the window needed, before any check runs, and admits the other
    checks there."""
    def no_series(*_):
        raise AssertionError("built a series for a window the check cannot read")

    monkeypatch.setattr(verify, "i_function_x", no_series)
    orders = Orders(t_order=t_order, lam_order=4, z_min=z_window[0], z_max=z_window[1])
    witness = check_fjrw_pipeline(cubic(), orders).witness
    assert witness["kind"] == "orders", witness
    assert witness["zWindow"] == list(z_window)
    assert witness["minimum_zWindow"] == [-1 if t_order >= 2 else 0, 1]
    if t_order < 2:
        return
    _refuse_every_check(monkeypatch)
    message = ("^fjrw-pipeline reads its identities from z\\^-1 to z\\^1, "
               f"got the z-window \\[{z_window[0]}, {z_window[1]}\\]$")
    with pytest.raises(ValueError, match=message):
        run_checks(cubic(), ["residue-lemma", "fjrw-pipeline"], orders)
    others = [name for name in ALL_CHECKS if name != "fjrw-pipeline"]
    with pytest.raises(AssertionError, match="a check ran"):
        run_checks(cubic(), others, orders)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_fjrw_pipeline_refuses_t0_before_building_a_series(monkeypatch, pair):
    """At T = 0 the leading term has no t-degree 1 to come from: the
    "orders" witness is decided next to the z-window test, before any
    series is built."""
    def no_series(*_):
        raise AssertionError("built a series at a t-order the check cannot read")

    monkeypatch.setattr(verify, "i_function_x", no_series)
    witness = check_fjrw_pipeline(pair, recommended_orders(pair, 0, 3)).witness
    assert witness == {"kind": "orders", "T": 0, "minimum_T": 2,
                       "detail": "the leading term comes from t-degree 1"}


def test_fjrw_pipeline_reads_the_smallest_z_window(monkeypatch):
    pair = cubic()
    assert check_fjrw_pipeline(pair, Orders(t_order=3, lam_order=4, z_min=-1, z_max=1)).ok()
    # below T = 2 the leading term alone is read, from z^0 and z^1
    report = check_fjrw_pipeline(pair, Orders(t_order=1, lam_order=4, z_min=0, z_max=1))
    assert (report.witness["kind"], report.witness["minimum_T"]) == ("orders", 2)
    # a fault that empties the result still fails at a window that holds it
    limit = verify.fjrw_limit

    def emptied(pair, derivative):
        result = limit(pair, derivative)
        return CohSeries(result.side, pair, result.variables, result.orders, {}, result.tokens)

    monkeypatch.setattr(verify, "fjrw_limit", emptied)
    report = check_fjrw_pipeline(pair, Orders(t_order=3, lam_order=4, z_min=-1, z_max=1))
    assert report.witness["kind"] == "leading-term", report.witness


@pytest.mark.parametrize("call, kind", [
    (lambda pair: check_mlk_operator(pair, z_order=-3), "vacuous"),
    (lambda pair: check_mlk_operator(pair, z_order=-2), "vacuous"),
    (lambda pair: check_mlk_operator(pair, z_order=-1), "vacuous"),
    (lambda pair: check_rctc_conditions(pair, -1), "orders"),
    (lambda pair: check_residue_lemma(pair, m_max=-1), "vacuous"),
], ids=["mlk-operator-z-3", "mlk-operator-z-2", "mlk-operator-z-1", "rctc-lambda-1",
        "residue-m-1"])
def test_out_of_range_arguments_fail_with_a_witness(call, kind):
    # no raise and no pass that checked nothing
    report = call(quintic())
    assert report.status == "fail"
    assert report.witness["kind"] == kind, report.witness


@pytest.mark.parametrize("pair, minimum", [
    (quintic(), 4), (cubic(), 2), (quartic(), 3), (sextic(), 3)], ids=lambda p: getattr(p, "name", p))
def test_rctc_names_orders_below_its_minimum_lambda_order(pair, minimum):
    # the rank columns reach H^(N_g - 1): below max N_g - 1 an "orders"
    # witness, not a false rank failure
    assert minimum == max(g.fixed_dim() for g in pair.group.elements) - 1
    assert check_rctc_conditions(pair, minimum).ok()
    for lam_order in (minimum - 1, 0):
        report = check_rctc_conditions(pair, lam_order)
        assert not report.ok()
        assert report.witness["kind"] == "orders", report.witness
        assert set(report.witness) == {"kind", "lambda", "minimum_lambda", "detail"}
        assert (report.witness["lambda"], report.witness["minimum_lambda"]) \
            == (lam_order, minimum)


@pytest.mark.parametrize("k_max", [-1, -2])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_mlk_operator_without_a_log_term_is_vacuous(pair, k_max):
    # no log term: every generic Delta^c entry is the constant 1
    report = check_mlk_operator(pair, k_max=k_max)
    assert not report.ok()
    assert report.witness["kind"] == "vacuous", report.witness
    assert check_mlk_operator(pair, k_max=0).ok()


@pytest.mark.parametrize("t_order", [1, 2, 3])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.name)
def test_self_test_detects_every_fault_at_small_orders(pair, t_order):
    reports = self_test(pair, Orders(t_order=t_order, lam_order=3))
    assert len(reports) == len(ALL_CHECKS)
    for report in reports:
        assert not report.ok(), (t_order, report.check)
        # a real detection, not a refusal of the orders
        assert report.witness.get("kind") != "orders", (t_order, report.check)


@pytest.mark.parametrize("lam_order", [1, 2])
@pytest.mark.parametrize("t_order", [2, 3, 4, 5])
def test_self_test_puts_the_mlk_fault_where_a_derivative_sees_it(t_order, lam_order):
    """On (1,1; 2) the middle key of the oracle J at T 2 and 3 is the
    t-constant unit, which no z d/dt reads; the self-test moves its
    mlk-untwisted fault to the next key a derivative sees, so every fault
    is detected."""
    pair = load_pair({"weights": [1, 1], "degree": 2})
    orders = Orders(t_order=t_order, lam_order=lam_order)
    if t_order <= 3:
        keys = sorted(untwisted_j_oracle(pair, 0, orders).terms)
        assert not any(keys[len(keys) // 2][2])
    reports = self_test(pair, orders)
    assert len(reports) == len(ALL_CHECKS)
    for report in reports:
        assert not report.ok(), (t_order, report.check)
        assert report.witness.get("kind") != "orders", (t_order, report.check)


# -- witness kinds reached by an injected fault ------------------------------------

SHIPPED = [quintic(), cubic(), quartic(), sextic()]


@pytest.mark.parametrize("pair", SHIPPED, ids=lambda p: p.name)
def test_rctc_degenerate_block_witness(monkeypatch, pair):
    block = verify.ubar_block
    monkeypatch.setattr(verify, "ubar_block", lambda p, b, ring: block(p, b, ring) * 2)
    report = check_rctc_conditions(pair, 4)
    assert report.witness["kind"] == "degenerate-block"


@pytest.mark.parametrize("pair", SHIPPED, ids=lambda p: p.name)
def test_rctc_geometric_sum_witness(monkeypatch, pair):
    exp = verify.series_exp
    monkeypatch.setattr(verify, "series_exp", lambda x: exp(x) + x.ring.one())
    report = check_rctc_conditions(pair, 4)
    first = min(g.fixed_dim() for g in pair.group.elements if g.fixed_dim() > 0)
    assert report.witness == {"kind": "geometric-sum", "nilpotency": first}


@pytest.mark.parametrize("pair", SHIPPED, ids=lambda p: p.name)
def test_rctc_polynomiality_witness(monkeypatch, pair):
    build = verify.u_bar
    g_in = pair.group.elements[-1].exps
    g_out = build(pair, 4).blocks[g_in][0][0].g.exps

    def with_a_tau_term(p, lam_order):
        transform = build(p, lam_order)
        (element, entry), *rest = transform.blocks[g_in]
        transform.blocks[g_in] = ((element, entry + entry.ring.monomial(tau=1)), *rest)
        return transform

    monkeypatch.setattr(verify, "u_bar", with_a_tau_term)
    report = check_rctc_conditions(pair, 4)
    assert report.witness == {"kind": "polynomiality", "input": list(g_in),
                              "output": list(g_out)}


@pytest.mark.parametrize("pair", SHIPPED, ids=lambda p: p.name)
def test_rctc_rank_witness(monkeypatch, pair):
    rank = verify._cyclo_matrix_rank
    monkeypatch.setattr(verify, "_cyclo_matrix_rank", lambda rows: rank(rows) - 1)
    report = check_rctc_conditions(pair, 4)
    assert report.witness["kind"] == "rank"


# only the sextic has a variable whose Delta-circ image is broad (its first, t)
def test_fjrw_mirror_map_broad_witness():
    pair = sextic()
    broad = next(g for g in pair.group.elements if not pair.is_narrow(g))
    report = check_fjrw_pipeline(pair, recommended_orders(pair, 4, 3),
                                 _tamper=(broad.exps, 0, (1, 0, 0, 0)),
                                 _tamper_stage="result")
    assert report.witness == {"kind": "mirror-map-broad", "variable": 0}


def test_fjrw_lambda_divisibility_witness():
    pair, orders = quintic(), Orders(t_order=5, lam_order=4)
    derivative = z_ddt_distinguished(i_function_x(pair, orders))
    key = next(k for k in sorted(derivative.terms) if pair.element(k[0]).fixed_dim() > 0)
    n_g = pair.element(key[0]).fixed_dim()
    report = check_fjrw_pipeline(pair, orders, _tamper=key, _tamper_stage="derivative")
    assert report.witness == {"kind": "lambda-divisibility",
                              "sector": list(key[0]), "z": key[1], "degree": list(key[2]),
                              "required": 1 if key[2][0] < 0 else n_g, "found": 0}


def test_fjrw_lambda_divisibility_witness_off_the_prefactor_slice():
    """A key of non-negative t-degree on a sector with N_g > 1 must carry
    lam^(N_g), not the lam^1 of the prefactor slice."""
    pair, orders = cubic(), Orders(t_order=5, lam_order=4)
    derivative = z_ddt_distinguished(i_function_x(pair, orders))
    key = next(k for k in sorted(derivative.terms)
               if k[2][0] >= 0 and pair.element(k[0]).fixed_dim() > 1)
    n_g = pair.element(key[0]).fixed_dim()
    report = check_fjrw_pipeline(pair, orders, _tamper=key, _tamper_stage="derivative")
    assert report.witness == {"kind": "lambda-divisibility",
                              "sector": list(key[0]), "z": key[1], "degree": list(key[2]),
                              "required": n_g, "found": 0}


@pytest.mark.parametrize("spec", ["euler-inverse", "euler-inverse-signed"])
@pytest.mark.parametrize("pair", SHIPPED, ids=lambda p: p.name)
def test_mlk_operator_specialized_witness(monkeypatch, pair, spec):
    build = verify.delta_c_specialized
    c = max(pair.valid_twists())
    g = pair.group.elements[len(pair.group.elements) // 2]

    def perturbed(p, c_, spec_, k_max):
        entries = build(p, c_, spec_, k_max)
        if (c_, spec_) == (c, spec):
            entry = entries[g.exps]
            series_nums = entry.series_nums[:-1] + (entry.series_nums[-1] + 1,)
            entries[g.exps] = dataclasses.replace(entry, series_nums=series_nums)
        return entries

    assert c > 0
    monkeypatch.setattr(verify, "delta_c_specialized", perturbed)
    report = check_mlk_operator(pair)
    assert report.witness == {"kind": spec, "c": c, "sector": list(g.exps)}


# the quintic has no survivor at T = 4 and reads "vacuous" there
@pytest.mark.parametrize("pair", [cubic(), quartic(), sextic()], ids=lambda p: p.name)
def test_kernel_pullback_nonzero_witness(monkeypatch, pair):
    class NoPullback:
        def __init__(self, _pair):
            pass

        def apply(self, series):
            return series

    monkeypatch.setattr(verify, "PullbackToZ", NoPullback)
    report = check_kernel_compatibility(pair, recommended_orders(pair, 4, 3))
    assert report.witness["kind"] == "pullback-nonzero"


# -- the up-front size guard ---------------------------------------------------------

MAXIMAL_QUARTIC = {"weights": [1, 1, 1, 1], "degree": 4,
                   "generators": [[1, 3, 0, 0], [0, 1, 3, 0], [0, 0, 1, 3]]}


@pytest.mark.parametrize("pair", SHIPPED, ids=lambda p: p.name)
def test_work_bound_admits_every_shipped_pair(pair):
    for t_order in (8, 10):
        orders = recommended_orders(pair, t_order, 4)
        assert verify.work_estimate(pair, orders, ALL_CHECKS) <= verify.WORK_BOUND
    orders = recommended_orders(pair, 12, 3)
    assert verify.work_estimate(pair, orders, ["continuation"]) <= verify.WORK_BOUND


def test_work_estimate_counts_the_walks():
    q = quartic()   # |G| = 8, three positive-dimensional sectors
    orders = recommended_orders(q, 4, 2)
    assert verify.work_estimate(q, orders, ["mlk-untwisted"]) == 495
    assert verify.work_estimate(q, orders, ["gamma-factorization"]) == 70
    assert verify.work_estimate(q, orders, ["residue-lemma"]) == 0
    assert verify.work_estimate(q, orders, ["kernel-compatibility"]) == 70 * 18
    assert verify.work_estimate(q, orders, ALL_CHECKS) == 1_260


def test_work_estimate_counts_the_ubar_line_products():
    """A check that builds Ubar blocks at lam-order L counts (d - 1)
    C(L + 2, 3) coefficient products, at the lam-order it works at: the
    quintic's rctc-structure is admitted up to lam-order 52."""
    q = quintic()   # d = 5, largest nilpotency 5
    assert verify.work_estimate(q, Orders(t_order=0, lam_order=4), ["continuation"]) == \
        4 * math.comb(6, 3)
    assert verify.work_estimate(q, Orders(t_order=0, lam_order=4), ["rctc-structure"]) == \
        4 * math.comb(8, 3)
    assert verify.work_estimate(q, Orders(t_order=0, lam_order=4),
                                ["kernel-compatibility"]) == 4 * math.comb(8, 3)
    assert verify.work_estimate(q, Orders(t_order=0, lam_order=52),
                                ["rctc-structure"]) == 99_216 <= verify.WORK_BOUND
    with pytest.raises(ValueError, match="104,940 coefficient products at lambda-order 53"):
        verify.require_bounded(q, Orders(t_order=0, lam_order=53), ["rctc-structure"])


def test_work_estimate_counts_the_kernel_ubar_application():
    """kernel-compatibility applies Ubar to every I^X index: the index count
    C(1 + P + T, T) times the N (L + 1) - C(N, 2) (lam, H) cells of one
    block at its lam-order L and largest nilpotency N.  On the quartic
    (P = 3, N = 4) at T = 10 that grows with lambda, past the bound at 48."""
    q = quartic()
    for lam_order, cells in ((4, 24 - 6), (12, 56 - 6), (24, 104 - 6), (48, 200 - 6)):
        orders = recommended_orders(q, 10, lam_order)
        assert verify.work_estimate(q, orders, ["kernel-compatibility"]) == 1001 * cells
    with pytest.raises(ValueError, match="194,194 .* cells of 1,001 indices at lambda-order 49"):
        verify.require_bounded(q, recommended_orders(q, 10, 48), ["kernel-compatibility"])
    verify.require_bounded(q, recommended_orders(q, 10, 24), ["kernel-compatibility"])


def test_run_checks_refuses_the_maximal_sl_quartic_up_front(monkeypatch):
    from lgcy.lgmodel import load_pair

    def no_check(*_):
        raise AssertionError("a check ran above the work bound")

    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    monkeypatch.setattr(verify, "untwisted_j_oracle", no_check)
    start = time.perf_counter()
    pair = load_pair(MAXIMAL_QUARTIC)
    assert len(pair.group) == 64
    orders = recommended_orders(pair, 4, 2)
    assert verify.work_estimate(pair, orders, ["oracle-equivalence"]) == 814_385
    # the largest work is kernel-compatibility's Ubar on 194,580 indices
    assert verify.work_estimate(pair, orders, ALL_CHECKS) == 3_502_440
    with pytest.raises(ValueError, match="3,502,440 .* bound of 100,000"):
        run_checks(pair, ALL_CHECKS, orders)
    with pytest.raises(ValueError, match="3,502,440 .* cells"):
        self_test(pair, orders)
    assert time.perf_counter() - start < 1.0


def _refuse_every_check(monkeypatch):
    """Make every check, and every series ``self_test`` builds its keys
    from, raise: a refusal must come before any of them."""
    def no_check(*_, **__):
        raise AssertionError("a check ran on a run that should be refused")

    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    for name in [name for name in dir(verify) if name.startswith("check_")] + \
            ["untwisted_j_oracle", "h_function_x", "u_bar"]:
        monkeypatch.setattr(verify, name, no_check)


NON_CY = load_pair({"weights": [1, 1, 2, 3], "degree": 6})
NON_SL = load_pair({"weights": [1, 1, 1, 1, 1], "degree": 5, "generators": [[1, 0, 0, 0, 0]]})


@pytest.mark.parametrize("run, pair, orders, message", [
    (lambda p, o: run_checks(p, ALL_CHECKS, o), NON_CY, (2, 1), "Calabi-Yau"),
    (lambda p, o: self_test(p, o), NON_CY, (2, 1), "Calabi-Yau"),
    (lambda p, o: run_checks(p, ALL_CHECKS, o), NON_SL, (2, 1), "SL"),
    (lambda p, o: self_test(p, o), NON_SL, (2, 1), "SL"),
    (lambda p, o: run_checks(p, ["residue-lemma", "no-such-check"], o), cubic(), (2, 1),
     "unknown check 'no-such-check'; known: oracle-equivalence, "),
    (lambda p, o: run_checks(p, ["residue-lemma", "mlk-untwisted"], o), cubic(), (0, 1),
     r"^mlk-untwisted needs T >= 1 to see its identity, got T = 0$"),
    (lambda p, o: run_checks(p, ALL_CHECKS, o), cubic(), (1, 1),
     r"^oracle-equivalence needs T >= 2; fjrw-pipeline needs T >= 2 to see its identity, "
     r"got T = 1$"),
    (lambda p, o: self_test(p, o), cubic(), (0, 3),
     r"^the self-test needs T >= 1 to see every injected fault, got T = 0$"),
    (lambda p, o: run_checks(p, ["rctc-structure"], o), quintic(), (2, 160),
     "2,782,080 coefficient products at lambda-order 160, above the bound of 100,000"),
], ids=["run-non-cy", "self-test-non-cy", "run-non-sl", "self-test-non-sl", "run-unknown",
        "run-mlk-T0", "run-all-T1", "self-test-T0", "run-work-bound"])
def test_run_checks_and_self_test_refuse_before_any_check_runs(monkeypatch, run, pair,
                                                               orders, message):
    """``run_checks`` and ``self_test`` own the admission of a run: a pair
    that is not CY with an SL group, an unknown check, a t-order below a
    check's floor (T = 1 for every self-test fault) and work above
    ``WORK_BOUND`` raise ValueError before anything is built."""
    _refuse_every_check(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run(pair, Orders(t_order=orders[0], lam_order=orders[1]))


# every series builder and operator a check body calls
CHECK_BUILDERS = ("untwisted_j", "untwisted_j_oracle", "i_function_x", "i_function_y",
                  "h_function_x", "h_factorization", "h_continued", "z_ddt_distinguished",
                  "fjrw_limit", "gamma_pole_residue", "i_c", "u_bar", "ubar_block",
                  "divide_or_none", "delta_c_generic", "delta_c_specialized", "DeltaDiamond",
                  "PullbackToZ", "series_exp", "SeriesRing")


@pytest.mark.parametrize("pair, message", [(NON_CY, "Calabi-Yau"), (NON_SL, "SL")],
                         ids=["non-cy", "non-sl"])
@pytest.mark.parametrize("name", ALL_CHECKS)
def test_every_check_refuses_an_unsupported_pair_before_its_body(monkeypatch, name, pair,
                                                                 message):
    """A direct call of a check (``CHECKS`` calls each ``check_*`` without
    the admission of ``run_checks``) on a pair that is not CY with an SL
    group raises ValueError before it builds anything, so a failing report
    always means a failed identity."""
    def no_build(*_, **__):
        raise AssertionError("a check built a series for an unsupported pair")

    for builder in CHECK_BUILDERS:
        monkeypatch.setattr(verify, builder, no_build)
    with pytest.raises(ValueError, match=message):
        verify.CHECKS[name](pair, Orders(t_order=4, lam_order=2))


def test_self_test_builds_no_i_function_and_no_factorization(monkeypatch):
    """The self-test reads its continuation key from Ubar(H^X) and its
    variable count from the positive-dimensional sectors: the checks it
    calls build I^X and verify the factorization, it does not."""
    def no_build(*_):
        raise AssertionError("the self-test built what only a check needs")

    calls = []
    monkeypatch.setattr(verify, "i_function_x", no_build)
    monkeypatch.setattr(verify, "h_factorization", no_build)
    for name in [name for name in dir(verify) if name.startswith("check_")]:
        monkeypatch.setattr(verify, name,
                            lambda *_, name=name, **tamper: calls.append((name, tamper)))
    assert self_test(quartic(), Orders(t_order=4, lam_order=3)) == [None] * len(ALL_CHECKS)
    assert len(calls) == len(ALL_CHECKS) and all(tamper for _, tamper in calls)


def test_batch_rctc_structure_runs_at_its_own_minimum_lambda_order():
    """``run_checks`` runs rctc-structure at max(lambda, 6, max N_g - 1):
    on (1^8; 8) with <j>, whose identity sector has N_g = 8, that is 7, so
    the batch run passes where lambda-order 6 returns an "orders" witness,
    and the work estimate counts lambda-order 7.  Pairs of degree at most
    6 keep max(lambda, 6)."""
    pair = load_pair({"weights": [1] * 8, "degree": 8, "generators": [[1] * 8]})
    assert max(g.fixed_dim() for g in pair.group.elements) - 1 == 7
    assert check_rctc_conditions(pair, 6).witness["kind"] == "orders"
    orders = recommended_orders(pair, 2, 3)
    [report] = run_checks(pair, ["rctc-structure"], orders)
    assert report.ok(), report.witness
    assert report.orders["lambda"] == 7
    assert verify.work_estimate(pair, orders, ["rctc-structure"]) == 7 * math.comb(9, 3)
    for shipped in (quintic(), cubic(), quartic(), sextic()):
        assert verify._UBAR_LAM_ORDERS["rctc-structure"](shipped, orders) == 6
