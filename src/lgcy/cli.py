"""Batch front-end: pair ingestion, series dumps, verification runs.

Exit codes: 0 success, 1 check failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import shipped_pairs
from .cohseries import Orders
from .genfun import (
    IdentityError,
    fjrw_i_function,
    i_function_x,
    i_function_y,
    serialize_series,
)
from .lgmodel import LGPair, load_pair
from .verify import (
    ALL_CHECKS,
    recommended_orders,
    require_bounded,
    require_known,
    run_checks,
    self_test,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcy",
        description="Exact genus-zero series engine for Fermat LG pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pair", required=True,
                       help="path to a pair file, or a shipped pair name")
        p.add_argument("--T", type=int, default=8, help="t-total-degree order")
        p.add_argument("--lambda-order", type=int, default=4, dest="lam_order")
        p.add_argument("--z-min", type=int, default=None)
        p.add_argument("--z-max", type=int, default=None)
        p.add_argument("--format", choices=("table", "structured"),
                       default="table")
        p.add_argument("--dump", default=None,
                       help="directory to write structured series files")

    describe = sub.add_parser("describe", help="sector census and flags")
    add_common(describe)

    ifun = sub.add_parser("ifun", help="emit a truncated I-function")
    add_common(ifun)
    ifun.add_argument("--side", choices=("lg", "cy", "fjrw"), required=True)

    verify = sub.add_parser("verify", help="run named identity checks")
    add_common(verify)
    verify.add_argument("--checks", default="all",
                        help="comma list of checks, or 'all'")
    verify.add_argument("--self-test", action="store_true",
                        help="inject one fault per check and require detection")
    return parser


def _load(pair_arg: str) -> LGPair:
    catalog = shipped_pairs()
    if pair_arg in catalog:
        return catalog[pair_arg]
    path = Path(pair_arg)
    if not path.is_file():
        raise FileNotFoundError(f"pair file not found: {pair_arg} is not a file")
    return load_pair(path)


def _orders(args, pair: LGPair) -> Orders:
    if args.T < 0 or args.lam_order < 0:
        raise ValueError("truncation orders must be non-negative")
    base = recommended_orders(pair, args.T, args.lam_order)
    z_min = args.z_min if args.z_min is not None else base.z_window[0]
    z_max = args.z_max if args.z_max is not None else base.z_window[1]
    return Orders(t_order=args.T, lam_order=args.lam_order,
                  z_min=z_min, z_max=z_max)


def _emit(payload: dict, args) -> None:
    if args.format == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for line in _tabulate(payload):
        print(line)


def _tabulate(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_tabulate(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def cmd_describe(args) -> int:
    pair = _load(args.pair)
    sectors = []
    for g in pair.group.elements:
        sectors.append({
            "exps": list(g.exps),
            "age": str(g.age()),
            "fixedDim": g.fixed_dim(),
            "narrow": pair.is_narrow(g),
        })
    samples = []
    j2 = pair.grading ** 2
    for c in pair.valid_twists()[:2]:
        for insertions in ([pair.grading] * 3, [j2, j2, j2]):
            samples.append({
                "c": c,
                "insertions": [list(g.exps) for g in insertions],
                "nonempty": pair.is_nonempty(c, 0, insertions),
                "degrees": [str(pair.line_bundle_degree(c, j, 0, insertions))
                            for j in range(pair.fermat.n_variables)],
            })
    payload = {
        "pair": pair.name,
        "weights": list(pair.fermat.weights),
        "degree": pair.fermat.degree,
        "groupOrder": len(pair.group),
        "period": pair.fermat.degree,
        "calabiYau": pair.is_calabi_yau,
        "sl": pair.is_sl,
        "narrowCount": len(pair.narrow_sectors()),
        "grading": list(pair.grading.exps),
        "sectors": sectors,
        "moduliSamples": samples,
    }
    _emit(payload, args)
    if args.dump:
        _write_dump(args.dump, f"{pair.name}-describe.json", payload)
    return 0


def cmd_ifun(args) -> int:
    pair = _load(args.pair)
    orders = _orders(args, pair)
    # every side walks the index table of the I/H checks (the FJRW side
    # through I^X): refuse an unbounded walk before building anything
    require_bounded(pair, orders, ("gamma-factorization",),
                    f"the {args.side} I-function")
    if args.side == "lg":
        series = i_function_x(pair, orders)
    elif args.side == "cy":
        series = i_function_y(pair, orders)
    else:
        series = fjrw_i_function(pair, orders)
    payload = serialize_series(series)
    if args.format == "structured":
        _emit(payload, args)
    else:
        tokens = " ".join(f"{name}^{exp}" for name, exp in series.tokens) or "-"
        print(f"side={args.side} pair={pair.name} terms={len(series.terms)} "
              f"tokens={tokens}")
        for term in payload["terms"]:
            print(f"  sector {tuple(term['sector'])}  z^{term['z']}  "
                  f"deg {tuple(term['degree'])}:  {term['value']['display']}")
    if args.dump:
        _write_dump(args.dump, f"{pair.name}-ifun-{args.side}.json", payload)
    return 0


def cmd_verify(args) -> int:
    pair = _load(args.pair)
    orders = _orders(args, pair)
    names = ALL_CHECKS if args.checks == "all" else \
        tuple(name.strip() for name in args.checks.split(","))
    if args.self_test:
        require_known(names)
        attempts = self_test(pair, orders)
        detected = sum(1 for r in attempts if not r.ok())
        _emit({"pair": pair.name, "injected": len(attempts), "detected": detected,
               "reports": [r.to_dict() for r in attempts]}, args)
        print(f"self-test: {detected}/{len(attempts)} injected faults detected")
        return 0 if detected == len(attempts) else 1
    reports = run_checks(pair, names, orders)
    payload = {"pair": pair.name, "reports": [r.to_dict() for r in reports]}
    _emit(payload, args)
    if args.format == "table":
        for r in reports:
            reason = "" if r.ok() else f"  {_witness_summary(r.witness)}"
            print(f"{r.status.upper():4}  {r.check}  [{r.elapsed_ms} ms]{reason}")
    if args.dump:
        _write_dump(args.dump, f"{pair.name}-verify.json", payload)
    return 0 if all(r.ok() for r in reports) else 1


def _witness_summary(witness: dict) -> str:
    """A failure's witness kind, then its detail or where it was found."""
    where = "  ".join(f"{key} {witness[key]}" for key in ("sector", "z", "degree") if key in witness)
    detail = witness.get("detail", witness.get("error", where))
    return witness.get("kind", "error") + (f": {detail}" if detail else "")


def _write_dump(directory: str, filename: str, payload: dict) -> None:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / filename).write_text(json.dumps(payload, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            return cmd_describe(args)
        if args.command == "ifun":
            return cmd_ifun(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except IdentityError as err:
        print(f"identity failure: {err} {err.witness}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
