"""The batch front-end: subcommands, exit codes and dumps."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lgcy.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MAXIMAL_QUARTIC = {"weights": [1, 1, 1, 1], "degree": 4,
                   "generators": [[1, 3, 0, 0], [0, 1, 3, 0], [0, 0, 1, 3]]}

# Runs the CLI refuses with exit 2, one per reason: (id, pair, the command
# line after ``--pair``, a part of the one error line).  The pair is a
# shipped pair's name, a pair file's JSON content, its raw text (a str that
# starts with "{"), or None for a file that does not exist.  The
# program-traffic census runs each of them.
REFUSED_RUNS = [
    ("pair-not-an-object", [{"weights": [1, 1, 1], "degree": 3}], ("describe",),
     "a pair must be a JSON object"),
    ("pair-not-json", "{weights: [1, 1, 1]", ("describe",), "Expecting property name"),
    ("pair-without-degree", {"weights": [1, 1, 1]}, ("describe",), "pair has no 'degree'"),
    ("generators-not-a-list", {"weights": [1, 1, 1], "degree": 3, "generators": 3},
     ("describe",), "pair generators must be a list"),
    ("name-not-a-string", {"weights": [1, 1, 1], "degree": 3, "name": 3}, ("describe",),
     "pair name must be a string"),
    ("degree-not-an-integer", {"weights": [1, 1, 1], "degree": 3.5}, ("describe",),
     "pair degree must be an integer"),
    ("weights-not-a-list", {"weights": "111", "degree": 3}, ("describe",),
     "pair weights must be a list of integers"),
    ("degree-below-2", {"weights": [1], "degree": 1}, ("describe",),
     "degree must be at least 2"),
    ("weight-not-positive", {"weights": [1, 0], "degree": 2}, ("describe",),
     "weights must be positive"),
    ("weights-share-a-factor", {"weights": [2, 2], "degree": 4}, ("describe",),
     "gcd of the weights must be 1"),
    ("weight-not-dividing-the-degree", {"weights": [1, 3], "degree": 4}, ("describe",),
     "weight 3 does not divide degree 4"),
    ("fermat-exponent-below-2", {"weights": [1, 2], "degree": 2}, ("describe",),
     "Fermat exponents d/c_j must be at least 2"),
    ("generator-of-wrong-length", {"weights": [1, 1, 1], "degree": 3, "generators": [[1, 1]]},
     ("describe",), "exponent vector has wrong length"),
    ("generator-out-of-range", {"weights": [1, 1, 1], "degree": 3, "generators": [[3, 0, 0]]},
     ("describe",), "exponent 3 out of range [0, 3)"),
    ("missing-pair-file", None, ("describe",), "pair file not found"),
    ("not-calabi-yau", {"weights": [1, 1, 2, 3], "degree": 6}, ("verify", "--T", "2"),
     "Calabi-Yau condition"),
    ("not-sl", {"weights": [1] * 5, "degree": 5, "generators": [[1, 0, 0, 0, 0]]},
     ("verify", "--T", "2"), "group must lie in SL(N)"),
    ("unknown-check", "cubic", ("verify", "--checks", "nonsense"), "unknown check 'nonsense'"),
    ("self-test-with-checks", "cubic", ("verify", "--self-test", "--checks", "residue-lemma"),
     "takes no --checks list"),
    ("self-test-with-unknown-checks", "cubic", ("verify", "--self-test", "--checks", "nonsense"),
     "takes no --checks list"),
    ("self-test-with-z-min", "cubic", ("verify", "--self-test", "--z-min", "0"),
     "takes no --z-min or --z-max"),
    ("t-below-a-floor", "cubic", ("verify", "--checks", "oracle-equivalence", "--T", "1"),
     "oracle-equivalence needs T >= 2"),
    ("self-test-t-below-a-floor", "cubic", ("verify", "--self-test", "--T", "0"),
     "mlk-untwisted needs T >= 1"),
    ("fjrw-window", "cubic", ("verify", "--checks", "fjrw-pipeline", "--T", "3",
                              "--z-min", "0", "--z-max", "1"),
     "fjrw-pipeline reads its identities from z^-1 to z^1"),
    # eight variables: rctc-structure's lambda floor 7 is above the batch's 6,
    # so its lambda-order is searched for before the oracle's T floor refuses
    ("rctc-floor-above-the-batch", {"weights": [1] * 8, "degree": 8},
     ("verify", "--checks", "rctc-structure,oracle-equivalence", "--T", "1"),
     "oracle-equivalence needs T >= 2"),
    ("above-the-work-bound", MAXIMAL_QUARTIC, ("verify", "--T", "4", "--lambda-order", "2"),
     "above the bound of 100,000"),
    ("empty-z-window", "cubic", ("ifun", "--side", "lg", "--T", "2",
                                 "--z-min", "5", "--z-max", "0"), "empty z-window"),
    ("negative-order", "cubic", ("verify", "--T", "-1"),
     "truncation orders must be non-negative"),
]


def refused_argv(directory: Path, pair, argv) -> list[str]:
    """The command line of one ``REFUSED_RUNS`` entry, its pair file, if
    any, written into ``directory``."""
    if pair is None:
        pair_arg = str(directory / "no-such-pair.json")
    elif isinstance(pair, str) and not pair.startswith("{"):
        pair_arg = pair
    else:
        path = directory / "pair.json"
        path.write_text(pair if isinstance(pair, str) else json.dumps(pair))
        pair_arg = str(path)
    return [argv[0], "--pair", pair_arg, *argv[1:]]


@pytest.mark.parametrize("pair, argv, reason", [entry[1:] for entry in REFUSED_RUNS],
                         ids=[entry[0] for entry in REFUSED_RUNS])
def test_a_refused_run_exits_2_with_one_error_line(tmp_path, capsys, pair, argv, reason):
    """Each refusal exits 2, prints nothing to stdout and exactly one
    ``error:`` line, naming its reason, to stderr, and no traceback."""
    code, out, err = run_cli(capsys, *refused_argv(tmp_path, pair, argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason in err and "Traceback" not in err


def test_describe_quintic(capsys):
    code, out, _ = run_cli(capsys, "describe", "--pair", "quintic")
    assert code == 0
    assert "groupOrder: 5" in out
    assert "narrowCount: 4" in out
    assert "calabiYau: True" in out
    assert "sl: True" in out


def test_describe_structured_json(capsys):
    code, out, _ = run_cli(capsys, "describe", "--pair", "cubic",
                           "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["groupOrder"] == 3
    assert payload["period"] == 3
    assert len(payload["sectors"]) == 3


@pytest.mark.parametrize("option", ["--T", "--lambda-order", "--z-min", "--z-max"])
def test_describe_refuses_the_order_options(capsys, option):
    """``describe`` reads no truncation order, so argparse refuses each."""
    with pytest.raises(SystemExit) as exit_info:
        main(["describe", "--pair", "cubic", option, "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_pair_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "describe", "--pair", "/no/such/file.json")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("argv", [["describe"], ["ifun", "--side", "lg"], ["verify"]],
                         ids=["describe", "ifun", "verify"])
def test_directory_as_pair_file_exit_2(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--pair", str(tmp_path))
    assert code == 2
    assert err.startswith("error:") and "not a file" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("payload,reason", [
    ({"weights": [1, 1, 1], "degree": 3.5}, "degree must be an integer"),
    ({"weights": [1, 1, 1], "degree": 3, "generators": [[0.5, 0, 0]]},
     "generator must be an integer"),
    ({"weights": "111", "degree": 3}, "weights must be a list"),
    ({"weights": [1, 1, 1], "degree": "3"}, "degree must be an integer"),
    ({"weights": [1, 1, True], "degree": 3}, "weights must be an integer"),
    ([{"weights": [1, 1, 1], "degree": 3}], "must be a JSON object"),
    ({"weights": [1, 1, 1], "degree": 3, "name": {"a": 1}}, "name must be a string"),
], ids=["float-degree", "float-generator", "string-weights", "string-degree",
        "bool-weight", "top-level-list", "object-name"])
def test_malformed_pair_file_exit_2(tmp_path, capsys, payload, reason):
    pair_file = tmp_path / "bad.json"
    pair_file.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "describe", "--pair", str(pair_file))
    assert code == 2
    assert reason in err
    assert out == ""


def _no_checks(monkeypatch):
    """Make every check run by ``run_checks``, and the first series that
    ``self_test`` builds, raise: a refusal must come before either."""
    from lgcy import verify

    def no_check(*_):
        raise AssertionError("a check ran on a run that should be refused")

    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    monkeypatch.setattr(verify, "untwisted_j_oracle", no_check)


def test_non_cy_pair_refuses_geometry_subcommands(tmp_path, capsys, monkeypatch):
    _no_checks(monkeypatch)
    pair_file = tmp_path / "noncy.json"
    pair_file.write_text(json.dumps({"weights": [1, 1, 2, 3], "degree": 6}))
    code, out, _ = run_cli(capsys, "describe", "--pair", str(pair_file))
    assert code == 0 and "calabiYau: False" in out
    for argv in (("ifun", "--side", "cy"), ("verify",), ("verify", "--self-test")):
        code, _, err = run_cli(capsys, *argv, "--pair", str(pair_file), "--T", "2")
        assert code == 2
        assert "Calabi-Yau" in err


def test_verify_refuses_non_sl_pair_up_front(tmp_path, capsys, monkeypatch):
    _no_checks(monkeypatch)
    pair_file = tmp_path / "nonsl.json"
    pair_file.write_text(json.dumps({"weights": [1, 1, 1, 1, 1], "degree": 5,
                                     "generators": [[1, 0, 0, 0, 0]]}))
    for extra in ((), ("--self-test",)):
        code, out, err = run_cli(capsys, "verify", "--pair", str(pair_file),
                                 "--T", "2", "--lambda-order", "1", *extra)
        assert code == 2
        assert "SL" in err
        assert out == ""


def test_ifun_lg_modification_factor_visible(capsys):
    code, out, _ = run_cli(capsys, "ifun", "--pair", "quintic", "--side", "lg",
                           "--T", "7", "--lambda-order", "5",
                           "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    # the t^7 term carries the expansion of (-lam - (2/5)z)^5: its top lam
    # power is -lam^5 / 7! at z-exponent 1 - 7
    [term] = [term for term in payload["terms"]
              if (term["sector"], term["z"], term["degree"]) == ([2] * 5, -6, [7, 0])]
    [top] = [mono for mono in term["value"]["monomials"] if mono["lam"] == 5]
    assert (top["h"], top["tau"], top["atoms"]) == (0, 0, [])
    assert top["coeff"] == ["-1/5040", "0", "0", "0"]


def test_ifun_t0_leading_term_only(capsys):
    code, out, _ = run_cli(capsys, "ifun", "--pair", "quintic", "--side", "lg",
                           "--T", "0", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 1
    term = payload["terms"][0]
    assert term["z"] == 1 and term["degree"] == [0, 0]


def test_ifun_fjrw_narrow_support(capsys):
    code, out, _ = run_cli(capsys, "ifun", "--pair", "cubic", "--side", "fjrw",
                           "--T", "4", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    narrow = [[0, 0, 0], [1, 1, 1]]
    assert all(term["sector"] in narrow for term in payload["terms"])


def test_verify_checks_selection_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic",
                           "--checks", "residue-lemma,rctc-structure",
                           "--T", "3", "--lambda-order", "2")
    assert code == 0
    assert "PASS" in out
    code, _, err = run_cli(capsys, "verify", "--pair", "cubic", "--checks", "nonsense")
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("argv, reason", [
    (("--T", "-1"), "truncation orders must be non-negative"),
    (("--lambda-order", "-1"), "truncation orders must be non-negative"),
    (("--self-test", "--checks", "residue-lemma"), "takes no --checks list"),
    (("--self-test", "--z-min", "0"), "takes no --z-min or --z-max"),
    (("--self-test", "--z-max", "1"), "takes no --z-min or --z-max"),
    (("--self-test", "--T", "2", "--lambda-order", "2", "--z-min", "0", "--z-max", "1"),
     "takes no --z-min or --z-max"),
], ids=["T-1", "lambda-1", "self-test-checks", "self-test-z-min", "self-test-z-max",
        "self-test-z-window"])
def test_verify_refuses_bad_orders_and_a_self_test_check_list(capsys, argv, reason):
    code, out, err = run_cli(capsys, "verify", "--pair", "cubic", *argv)
    assert code == 2 and reason in err and out == ""


def test_verify_continuation_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic",
                           "--checks", "continuation", "--T", "6",
                           "--lambda-order", "3")
    assert code == 0
    assert "continuation" in out


def test_verify_self_test(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic", "--T", "4",
                           "--lambda-order", "3", "--self-test")
    assert code == 0
    assert "9/9 injected faults detected" in out


def test_verify_self_test_structured_is_one_json_document(tmp_path, capsys):
    """The printed document is also the self-test's dump file."""
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic", "--T", "2",
                           "--self-test", "--format", "structured", "--dump", str(tmp_path))
    payload = json.loads(out)
    assert code == 0
    assert payload["injected"] == payload["detected"] == 9
    assert json.loads((tmp_path / "cubic-self-test.json").read_text()) == payload


@pytest.mark.parametrize("checks,t_order,name", [
    ("mlk-untwisted", "0", "mlk-untwisted"),
    ("fjrw-pipeline", "1", "fjrw-pipeline"),
    ("all", "1", "fjrw-pipeline"),
    ("oracle-equivalence", "0", "oracle-equivalence"),
    ("oracle-equivalence", "1", "oracle-equivalence"),
    ("all", "1", "oracle-equivalence"),
    ("all", "0", "mlk-untwisted"),
], ids=["mlk-T0", "fjrw-T1", "all-T1", "oracle-T0", "oracle-T1", "all-T1-oracle", "all-T0"])
def test_verify_refuses_orders_too_small_up_front(capsys, monkeypatch, checks,
                                                  t_order, name):
    """A T below a selected check's floor is refused with exit 2 before any
    check runs.  The self-test's oracle-equivalence fault sits at T = 4 and
    its fjrw-pipeline fault at T >= 2 whatever the run's T, so
    ``--self-test`` is refused at T = 0 only, by its mlk-untwisted fault."""
    from lgcy import verify

    def no_check(*_):
        raise AssertionError("a check ran at orders that should be refused")

    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    code, out, err = run_cli(capsys, "verify", "--pair", "cubic",
                             "--checks", checks, "--T", t_order)
    assert code == 2
    assert f"{name} needs T >= " in err
    assert out == ""
    if checks == "all":
        code, out, err = run_cli(capsys, "verify", "--pair", "cubic",
                                 "--T", t_order, "--self-test")
        if t_order == "0":
            assert code == 2 and "mlk-untwisted needs T >= 1" in err and out == ""
        else:
            assert code == 0 and "9/9 injected faults detected" in out


def test_empty_z_window_exits_2(capsys):
    for command in (("verify", "--checks", "mlk-untwisted"), ("ifun", "--side", "lg")):
        code, out, err = run_cli(capsys, *command, "--pair", "cubic", "--T", "4",
                                 "--lambda-order", "2", "--z-min", "5", "--z-max", "0")
        assert code == 2
        assert "empty z-window" in err and out == ""


def test_python_m_lgcy_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "lgcy", "verify", "--pair", "cubic",
         "--checks", "residue-lemma", "--T", "2", "--format", "structured"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert [r["check"] for r in payload["reports"]] == ["residue-lemma"]
    proc = subprocess.run([sys.executable, "-m", "lgcy", "verify", "--pair", "cubic",
                           "--checks", "mlk-untwisted", "--T", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "mlk-untwisted" in proc.stderr


@pytest.mark.parametrize("argv, name", [
    (("ifun", "--side", "lg", "--T", "3"), "quintic-ifun-lg.json"),
    (("verify", "--checks", "residue-lemma", "--T", "2"), "quintic-verify.json")],
    ids=["ifun", "verify"])
def test_dump_file_is_the_structured_output(tmp_path, capsys, argv, name):
    """``--dump`` writes the document that ``--format structured`` prints,
    into a directory it makes."""
    dump = tmp_path / "dumps"
    code, out, _ = run_cli(capsys, *argv, "--pair", "quintic", "--dump", str(dump),
                           "--format", "structured")
    assert code == 0
    assert json.loads((dump / name).read_text()) == json.loads(out)


def test_verify_table_line_names_the_failure(capsys, monkeypatch):
    from lgcy import cli
    from lgcy.verify import VerificationReport

    witnesses = [{"kind": "vacuous", "detail": "no surviving terms to test"},
                 {"kind": "coefficient", "sector": [0, 0, 0], "z": 1, "degree": [0, 1],
                  "left": "1", "right": "2"},
                 {"kind": "rank", "rank": 2, "expected": 3},
                 {"error": "block did not cancel"}]

    def fake_run_checks(pair, names, orders):
        return [VerificationReport("residue-lemma", pair.name, orders.as_dict())] + [
            VerificationReport("continuation", pair.name, orders.as_dict(),
                               status="fail", witness=witness) for witness in witnesses]

    monkeypatch.setattr(cli, "run_checks", fake_run_checks)
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic", "--checks", "continuation")
    assert code == 1
    lines = out.splitlines()[-5:]
    assert lines[0].startswith("PASS  residue-lemma  [") and lines[0].endswith(" ms]")
    reasons = [line.split(" ms]  ", 1)[1] for line in lines[1:]]
    assert reasons == ["vacuous: no surviving terms to test",
                       "coefficient: sector [0, 0, 0]  z 1  degree [0, 1]",
                       "rank",
                       "error: block did not cancel"]


def test_verify_table_names_a_real_failure(capsys):
    """The quintic has no kernel-compatibility survivor below T 5, which the
    run does not refuse: its table line names the vacuous witness."""
    code, out, _ = run_cli(capsys, "verify", "--pair", "quintic", "--checks",
                           "kernel-compatibility", "--T", "4", "--lambda-order", "2")
    assert code == 1
    assert out.splitlines()[-1].endswith("ms]  vacuous: no surviving terms to test")


@pytest.mark.parametrize("window", [("0", "1"), ("-1", "0"), ("0", "2")],
                         ids=["no-z-1", "no-z1", "no-z-1-wide"])
def test_verify_refuses_a_narrow_fjrw_window_up_front(capsys, monkeypatch, window):
    """fjrw-pipeline reads z^-1 to z^1 from T 2 on: a z-window without them
    is refused with exit 2, naming the window it needs, before any check
    runs; a check that does not read the window runs there."""
    from lgcy import verify

    def no_check(*_):
        raise AssertionError("a check ran at a z-window that should be refused")

    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    z_min, z_max = window
    for checks in ("fjrw-pipeline", "all"):
        code, out, err = run_cli(capsys, "verify", "--pair", "cubic", "--checks", checks,
                                 "--T", "3", "--z-min", z_min, "--z-max", z_max)
        assert code == 2 and out == ""
        assert ("fjrw-pipeline reads its identities from z^-1 to z^1, "
                f"got the z-window [{z_min}, {z_max}]") in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic", "--checks", "residue-lemma",
                           "--T", "3", "--z-min", z_min, "--z-max", z_max)
    assert code == 0 and "PASS  residue-lemma" in out


def test_failing_check_exits_1(capsys, monkeypatch):
    from lgcy import cli
    from lgcy.verify import VerificationReport

    def fake_run_checks(pair, names, orders):
        return [VerificationReport("continuation", pair.name, orders.as_dict(),
                                   status="fail", witness={"kind": "coefficient"})]

    monkeypatch.setattr(cli, "run_checks", fake_run_checks)
    code, out, _ = run_cli(capsys, "verify", "--pair", "cubic",
                           "--checks", "continuation")
    assert code == 1
    assert "FAIL" in out


def test_verify_refuses_a_run_above_the_work_bound(tmp_path, capsys):
    """(1,1,1,1; 4) with its maximal SL group walks 814,385 multidegrees at
    T = 4, and kernel-compatibility applies Ubar to 3,502,440 (lambda, H)
    cells: refused with exit 2, naming the bound and the larger count, or
    for the self-test the count of its first fault above the bound."""
    pair_file = tmp_path / "maximal.json"
    pair_file.write_text(json.dumps({"weights": [1, 1, 1, 1], "degree": 4,
                                     "generators": [[1, 3, 0, 0], [0, 1, 3, 0],
                                                    [0, 0, 1, 3]]}))
    for extra, count in (((), "3,502,440"), (("--self-test",), "814,385")):
        code, out, err = run_cli(capsys, "verify", "--pair", str(pair_file),
                                 "--T", "4", "--lambda-order", "2", *extra)
        assert code == 2
        assert count in err and "100,000" in err
        assert out == ""


@pytest.mark.parametrize("check, t_order, count, lam_order", [
    ("rctc-structure", 2, "2,782,080", 160),
    ("continuation", 4, "2,782,080", 160),
    ("kernel-compatibility", 2, "2,834,244", 161)])
def test_verify_refuses_a_lambda_order_above_the_work_bound(capsys, monkeypatch, check,
                                                            t_order, count, lam_order):
    """The checks that build Ubar blocks make about (d - 1) C(L + 2, 3)
    coefficient products at the lam-order L they work at (kernel-compatibility
    one above the run's): on the quintic at --lambda-order 160 that is
    refused with exit 2 and the count before any check runs, while the
    I-function at the same orders is still built."""
    from lgcy import verify

    def no_check(*_):
        raise AssertionError("a check ran above the work bound")

    orders = ("--T", str(t_order), "--lambda-order", "160")
    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    code, out, err = run_cli(capsys, "verify", "--pair", "quintic", "--checks", check, *orders)
    assert code == 2
    assert f"{count} coefficient products at lambda-order {lam_order}" in err
    assert "100,000" in err and out == ""
    code, out, _ = run_cli(capsys, "ifun", "--pair", "quintic", "--side", "lg", *orders)
    assert code == 0 and out


def test_verify_refuses_the_kernel_ubar_application_above_the_work_bound(capsys,
                                                                         monkeypatch):
    """kernel-compatibility applies Ubar to each of the quartic's 1,001 I^X
    indices at T = 10; at --lambda-order 48 the blocks have 194 (lambda, H)
    cells each, refused with exit 2 and the count before the check runs."""
    from lgcy import verify

    def no_check(*_):
        raise AssertionError("a check ran above the work bound")

    monkeypatch.setattr(verify, "CHECKS", {name: no_check for name in verify.CHECKS})
    code, out, err = run_cli(capsys, "verify", "--pair", "quartic", "--checks",
                             "kernel-compatibility", "--T", "10", "--lambda-order", "48")
    assert code == 2
    assert "194,194 (lambda, H) cells of 1,001 indices at lambda-order 49" in err
    assert "100,000" in err and out == ""


@pytest.mark.parametrize("side", ["lg", "cy", "fjrw"])
def test_ifun_refuses_a_walk_above_the_work_bound(capsys, monkeypatch, side):
    """The quartic's index table at T = 40 has C(44, 4) = 135,751 entries:
    refused with exit 2 before any I-function is built."""
    from lgcy import cli

    def no_build(*_):
        raise AssertionError("an I-function was built above the work bound")

    for builder in ("i_function_x", "i_function_y", "fjrw_i_function"):
        monkeypatch.setattr(cli, builder, no_build)
    code, out, err = run_cli(capsys, "ifun", "--pair", "quartic", "--side", side,
                             "--T", "40", "--lambda-order", "1")
    assert code == 2
    assert f"the {side} I-function" in err
    assert "135,751" in err and "100,000" in err
    assert out == ""
