"""Module layering of ``lgcy``: no function-local imports, no import cycles,
every name that the benchmark tracer wraps exists, and the two routes of
the J identities stay apart.

A line census keeps only the code the program's traffic runs: with every
line event recorded by ``sys.settrace``, on a fresh import, it runs the
benchmark's tiny passes, fault gates and probes, the demos and the CLI,
its refused runs included, and requires every statement inside a ``def``
under ``src/lgcy`` to run or to sit in ``NOT_RUN_BY_DESIGN`` under one of
a closed set of kinds, each with a place it may sit."""
from __future__ import annotations

import ast
import contextlib
import fractions
import importlib
import importlib.util
import io
import json
import runpy
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from lgcy import catalog, genfun, lgmodel, transforms, verify
from lgcy.exactalg import SectorValue, ZLaurentSeries
from lgcy.lgmodel import GroupElement, LGPair
from lgcy.transforms import Transform

import test_cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lgcy"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _relative_targets(node: ast.ImportFrom) -> set[str]:
    """Sibling modules named by ``from .x import ...`` or ``from . import x``."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def test_no_import_inside_a_function():
    offenders = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders.append(f"{name}.{fn.name}:{node.lineno}")
    assert not offenders, offenders


def test_module_import_graph_is_acyclic():
    graph = {
        name: {target for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level
               for target in _relative_targets(node)} & set(MODULES)
        for name, tree in MODULES.items()
    }
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, " -> ".join(path + (name,))
        if name in done:
            return
        for target in sorted(graph[name]):
            visit(target, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_every_exported_name_resolves():
    """Every name in a module's ``__all__`` exists on that module."""
    missing = []
    for name in sorted(MODULES):
        module = importlib.import_module("lgcy" if name == "__init__" else f"lgcy.{name}")
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert not missing, missing


def _names_used(tree: ast.AST, count_imports: bool) -> set[str]:
    """The names and attributes that ``tree`` reads, each outside any def or
    class of that name; with ``count_imports``, the names it imports too.
    Strings, so docstrings and ``__all__``, do not count."""
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and count_imports:
            name = node.name.split(".")[-1]
        else:
            name = None
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_every_public_class_is_used_outside_the_tests():
    """Every public class of ``lgcy`` is used by the package itself, a demo
    or the benchmark.  A re-export in ``__init__`` is not a use.  The census
    below holds every def to the program's traffic; a class with no method
    of its own, such as the two Delta^c entry records, would slip past it."""
    public = {node.name for tree in MODULES.values() for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}
    used = set().union(*(_names_used(tree, count_imports=False) for tree in MODULES.values()))
    for path in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("benchmarks/*.py")):
        used |= _names_used(ast.parse(path.read_text(), filename=str(path)),
                            count_imports=True)
    assert sorted(public - used) == []


def test_only_verify_takes_a_fault_hook():
    """The self-test's fault hooks stay on the checks: no def outside
    ``verify`` takes an ``expected`` or ``_tamper*`` parameter."""
    offenders = []
    for name, tree in MODULES.items():
        if name == "verify":
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args
                params = args.posonlyargs + args.args + args.kwonlyargs + \
                    [arg for arg in (args.vararg, args.kwarg) if arg]
                offenders += [f"{name}.{fn.name}({arg.arg})" for arg in params
                              if arg.arg == "expected" or arg.arg.startswith("_tamper")]
    assert not offenders, offenders


def _benchmark_module(stem: str):
    """``benchmarks/<stem>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{stem}",
                                                  ROOT / "benchmarks" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_site_resolves():
    """Every callable the benchmark tracer wraps is an attribute of its
    ``lgcy`` module (a method in its class's own namespace, where the tracer
    looks it up), so a rename that breaks a traced benchmark run fails here."""
    missing = []
    for site in _benchmark_module("tracer").SITES:
        home = importlib.import_module(f"lgcy.{site.module}")
        if "." in site.attr:
            cls_name, method = site.attr.split(".")
            found = method in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, site.attr, None))
        if not found:
            missing.append(site.name)
    assert not missing, missing


@contextmanager
def _fresh_lgcy():
    """``lgcy`` imported anew, with empty caches, as in the fresh process of
    a benchmark pass; the modules imported before are put back after."""
    def ours():
        return [name for name in sys.modules if name == "lgcy" or name.startswith("lgcy.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        yield
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_workload_meets_the_benchmark_site_predictions():
    """The benchmark tracer predicts which sites each workload calls and
    which stay idle.  One tiny pass of each workload under the installed
    tracer, each on a fresh import, gives every verdict it expects and meets
    those predictions, so a change that starves a predicted site fails here
    too."""
    tracer, workloads = _benchmark_module("tracer"), _benchmark_module("workloads")
    for workload in workloads.WORKLOADS:
        with _fresh_lgcy():
            traced = tracer.Tracer()
            traced.install()
            try:
                wrong = workloads.run_calls(workloads.pass_calls(
                    workload, workloads.build_pairs(), workloads.SCALES["tiny"]))
            finally:
                traced.uninstall()
            errors = tracer.coverage_errors(workload, traced.layer_metrics())
        assert wrong == [], (workload, wrong)
        assert errors == [], (workload, errors)


def _program_traffic(tmp_path: Path) -> None:
    """The benchmark's tiny passes, fault gates and probes, the demos, and
    the CLI: on a pair file of the cubic, describe and, at T 2, ifun on each
    side and format, verify and verify --self-test, each with its dump;
    describe of a shipped pair by name; I^Y at T 3, whose ray factors invert
    (c_j H + l z) at nilpotency 3; the H-series checks on z-windows that cut
    off terms; fjrw-pipeline on a pair whose variables have broad images;
    and every run of ``test_cli.REFUSED_RUNS``, each refused with exit 2."""
    workloads, probes = _benchmark_module("workloads"), _benchmark_module("probes")
    pairs = workloads.build_pairs()
    for workload in workloads.WORKLOADS:
        for calls in (workloads.pass_calls(workload, pairs, workloads.SCALES["tiny"]),
                      workloads.gate_calls(workload, pairs, 1)):
            assert workloads.run_calls(calls) == [], workload
    assert probes.run_probes(1, "tiny")[1] == []
    cli = importlib.import_module("lgcy.cli")
    lgmodel = importlib.import_module("lgcy.lgmodel")
    cubic_file, broad_file = tmp_path / "cubic.json", tmp_path / "broad.json"
    cubic_file.write_text(json.dumps(lgmodel.pair_to_dict(pairs["cubic"])))
    broad_file.write_text(json.dumps({"weights": [1] * 5, "degree": 5,
                                      "generators": [[0, 1, 2, 3, 4]]}))
    common = ("--pair", str(cubic_file), "--T", "2", "--dump", str(tmp_path / "dumps"))
    h_checks = ("--checks", "gamma-factorization,continuation,kernel-compatibility")
    runs = [(["describe", "--pair", str(cubic_file), "--dump", str(tmp_path)], 0),
            (["describe", "--pair", "quintic"], 0)]
    runs += [(["ifun", *common, "--side", side, "--format", form], 0)
             for side in ("lg", "cy", "fjrw") for form in ("table", "structured")]
    # at T 2 kernel-compatibility has no surviving term and fails vacuous
    runs += [(["verify", *common], 1), (["verify", *common, "--self-test"], 0),
             (["ifun", "--pair", str(cubic_file), "--side", "cy", "--T", "3"], 0),
             (["verify", "--pair", "cubic", "--T", "3", "--lambda-order", "2",
               "--z-min", "-1", "--z-max", "2", *h_checks], 0),
             (["verify", "--pair", "cubic", "--T", "3", "--lambda-order", "2",
               "--z-min", "-4", "--z-max", "0", *h_checks], 0),
             (["verify", "--pair", str(broad_file), "--T", "2", "--lambda-order", "1",
               "--checks", "fjrw-pipeline"], 0)]
    for name, pair, argv, _ in test_cli.REFUSED_RUNS:
        (tmp_path / name).mkdir()
        runs.append((test_cli.refused_argv(tmp_path / name, pair, argv), 2))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for demo in sorted(ROOT.glob("demos/*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        codes = [cli.main(argv) for argv, _ in runs]
    assert codes == [code for _, code in runs], [
        (argv, got) for (argv, code), got in zip(runs, codes) if got != code]


def _body(node) -> list:
    """A def's statements, its docstring left out."""
    body = node.body
    first = body[0] if body else None
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
            and isinstance(first.value.value, str):
        return body[1:]
    return body


class _Statement(NamedTuple):
    """One statement of a def of ``src/lgcy``: where it is, the dotted name
    of its innermost def, its first source line stripped, the lines whose
    line events mean it ran (a compound statement's header only), the AST
    node, the block of statements it sits in directly and the node that
    holds that block, and the class around the def, if any."""

    path: Path
    line: int
    owner: str
    text: str
    span: range
    node: ast.stmt
    block: list
    parent: ast.AST
    cls: ast.ClassDef | None


def _statements() -> list[_Statement]:
    """Every statement inside a def of ``src/lgcy``, nested defs included
    (a nested def is one statement of its parent, and its own body that of
    a def named ``parent.child``)."""
    found = []

    def add(parent, block, owner, path, lines, cls):
        for node in block:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = range(first, node.lineno + 1)
            elif isinstance(node, ast.ClassDef):
                continue
            else:
                heads = [child.lineno for field in ("body", "handlers")
                         for child in getattr(node, field, ())]
                span = range(first, min(heads, default=node.end_lineno + 1))
            found.append(_Statement(path, first, owner, lines[first - 1].strip(), span,
                                    node, block, parent, cls))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node, _body(node), f"{owner}.{node.name}", path, lines, cls)
                continue
            for field in ("body", "orelse", "finalbody"):
                add(node, getattr(node, field, ()), owner, path, lines, cls)
            for handler in getattr(node, "handlers", ()):
                add(handler, handler.body, owner, path, lines, cls)

    def visit(node, prefix, path, lines, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(child, _body(child), f"{prefix}{child.name}", path, lines, cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, lines, child)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(MODULES[path.stem], f"{path.stem}.", path.resolve(),
              path.read_text().splitlines(), None)
    return found


def _run_lines(tmp_path: Path) -> set:
    """(file, line) of every line event in ``src/lgcy`` during the program's
    traffic, on a fresh import (a warm cache would hide lines)."""
    package = str(PACKAGE.resolve())
    hit: set = set()

    def local(frame, event, _):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, _):
        return local if frame.f_code.co_filename.startswith(package) else None

    with _fresh_lgcy():
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            _program_traffic(tmp_path)
        finally:
            sys.settrace(previous)
    return hit


def _is_failure_exit(node: ast.stmt) -> bool:
    """``raise IdentityError(...)``, ``return False`` or the return of a
    witness, a dict display."""
    if isinstance(node, ast.Raise):
        exc = node.exc
        return isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) \
            and exc.func.id == "IdentityError"
    return isinstance(node, ast.Return) and (
        isinstance(node.value, ast.Dict)
        or isinstance(node.value, ast.Constant) and node.value.value is False)


def _handles_identity_error(statement: _Statement) -> bool:
    """Whether ``statement`` sits directly in an ``except IdentityError`` handler."""
    handler = statement.parent
    return isinstance(handler, ast.ExceptHandler) and isinstance(handler.type, ast.Name) \
        and handler.type.id == "IdentityError"


def _roadmap_item(number: int) -> str:
    """The text of ROADMAP.md's open item ``number``."""
    text = (ROOT / "ROADMAP.md").read_text()
    start = text.index(f"\n{number}. **")
    ends = [text.find(mark, start + 1) for mark in (f"\n{number + 1}. **", "\n## ")]
    return text[start:min((end for end in ends if end > 0), default=len(text))]


def _placed(kind: str, statement: _Statement) -> bool:
    """Whether ``statement`` sits where its allowlist ``kind`` may:
    repr, immutable and hash in ``__repr__``/``__str__``, ``__setattr__`` and
    ``__hash__``; guard a ``raise`` of anything but ``IdentityError``, or a
    line of the checked ``__init__`` or ``__new__`` of a class that also
    builds through ``_unchecked``; failure a failure exit
    (``_is_failure_exit``), or a line directly in a block that ends in one
    or that handles ``IdentityError``; ``item N`` a def that ROADMAP.md's
    open item N names in backquotes."""
    name = statement.owner.rsplit(".", 1)[-1]
    node = statement.node
    if kind in _DUNDER_KINDS:
        return name in _DUNDER_KINDS[kind]
    if kind == "guard":
        unchecked = statement.cls is not None and any(
            isinstance(member, ast.FunctionDef) and member.name == "_unchecked"
            for member in statement.cls.body)
        return isinstance(node, ast.Raise) and not _is_failure_exit(node) \
            or name in ("__init__", "__new__") and unchecked
    if kind == "failure":
        return _is_failure_exit(node) or _is_failure_exit(statement.block[-1]) \
            or _handles_identity_error(statement)
    if kind.startswith("item "):
        item = _roadmap_item(int(kind.split()[1]))
        return any(f"`{part}" in item for part in statement.owner.split(".")[1:])
    return False


_DUNDER_KINDS = {"repr": ("__repr__", "__str__"), "immutable": ("__setattr__",),
                 "hash": ("__hash__",)}
ALLOWLIST_KINDS = (*_DUNDER_KINDS, "guard", "failure", "item 14", "item 19")

# (dotted def, stripped first line of the statement) -> why the program's
# traffic never runs it, one of ALLOWLIST_KINDS
NOT_RUN_BY_DESIGN = {key: kind for kind, keys in {
    "repr": [
        ("cohseries.CohSeries.__repr__",
         'return (f"CohSeries(side={self.side!r}, pair={self.pair.name}, "'),
        ("exactalg.Cyclotomic.__repr__", 'return f"Cyclotomic({self.order}, {self})"'),
        ("exactalg.GammaAtom.__str__", 'parts.append(f"- {self.h_weight}*H/tau")'),
        ("exactalg.SectorValue.__repr__", 'return f"SectorValue({self})"'),
        ("exactalg.SectorValue.__str__", 'bits.append(f"tau^{tau}")'),
        ("exactalg.ZLaurentSeries.__repr__",
         'inner = " + ".join(f"({v})*z^{z}" for z, v in sorted(self.terms.items()))'),
        ("exactalg.ZLaurentSeries.__repr__",
         'return f"ZLaurent[{self.z_min},{self.z_max}]({inner or \'0\'})"'),
        ("lgmodel.GroupElement.__repr__", 'return f"g{self.exps}"'),
        ("lgmodel.LGPair.__repr__", 'return f"LGPair({self.name}, |G|={len(self.group)})"'),
        ("lgmodel.PairingValue.__str__", 'return f"{self.coefficient}*lam^{self.lam_exponent}"'),
        ("transforms.Transform.__repr__",
         'return f"Transform({self.name}, {self.side_in}->{self.side_out})"'),
    ],
    "immutable": [
        ("cohseries.CohSeries.__setattr__", 'raise AttributeError("CohSeries is immutable")'),
        ("lgmodel.GroupElement.__setattr__", 'raise AttributeError("GroupElement is immutable")'),
    ],
    "hash": [
        ("exactalg.SectorValue.__hash__",
         "return hash((self.ring, tuple(sorted(self.terms.items(),"),
        ("exactalg.ZLaurentSeries.__hash__", "return hash((self.ring, self.z_min, self.z_max,"),
    ],
    "guard": [
        ("cohseries.CohSeries.__init__",
         'raise TypeError("series coefficients must be SectorValue")'),
        ("cohseries.CohSeries.z_ddt_var",
         'raise ValueError(f"variable index {var_index} outside [0, {len(self.variables)})")'),
        ("exactalg._poly_divide_exact",
         'raise ExactDivisionError("non-exact polynomial division")'),
        ("exactalg.cyclotomic_polynomial", 'raise ValueError("order must be positive")'),
        ("exactalg._rational_parts",
         'raise TypeError(f"expected a rational scalar, got {type(value).__name__}")'),
        ("exactalg.Cyclotomic.__new__",
         'raise ValueError("coefficient vector has wrong length")'),
        ("exactalg.Cyclotomic._coerce", "raise OrderMismatchError("),
        ("exactalg.Cyclotomic.inverse", 'raise ZeroDivisionError("inverse of zero cyclotomic")'),
        ("exactalg._merge_atoms", 'raise ValueError("a product of two atom-carrying factors")'),
        ("exactalg.SeriesRing.__new__", 'raise ValueError("invalid ring parameters")'),
        ("exactalg.SeriesRing.scalar",
         'raise OrderMismatchError("scalar has wrong cyclotomic order")'),
        ("exactalg.SectorValue.__new__",
         'raise ValueError(f"lam exponent must be a non-negative integer, got {lam!r}")'),
        ("exactalg.SectorValue.__new__",
         'raise ValueError(f"H exponent must be a non-negative integer, got {h!r}")'),
        ("exactalg.SectorValue._check", "raise OrderMismatchError("),
        ("exactalg.SectorValue.with_ring",
         'raise OrderMismatchError("cannot change cyclotomic order")'),
        ("exactalg.series_exp", 'raise NonUnitError("cannot exponentiate Gamma atoms")'),
        ("exactalg.series_exp", 'raise NonUnitError("series_exp needs a zero constant term")'),
        ("exactalg.series_invert", 'raise NonUnitError("series_invert: zero constant term")'),
        ("exactalg.series_invert", 'raise NonUnitError("cannot invert Gamma atoms")'),
        ("exactalg.series_invert", 'raise NonUnitError("non-nilpotent correction term")'),
        ("exactalg.ZLaurentSeries.__new__", 'raise ValueError("empty z window")'),
        ("exactalg.ZLaurentSeries.__new__", "continue"),
        ("exactalg.ZLaurentSeries._check",
         'raise OrderMismatchError("z-window or ring mismatch")'),
        ("exactalg._linear_product",
         'raise ZeroDivisionError("inverse factor with zero z coefficient")'),
        ("exactalg.gamma_shift_product",
         'raise TypeError(f"expected integers (q, weight, h_weight, base, steps), got'
         ' {entry!r}")'),
        ("exactalg.gamma_shift_product", 'raise ValueError("q must be positive")'),
        ("exactalg.gamma_shift_product", 'raise ValueError("steps must be non-negative")'),
        ("genfun.psi_integral_oracle",
         'raise ValueError("need n >= 3 marked points and exponents summing to n - 3")'),
        ("genfun.gamma_pole_residue", 'raise ValueError("need m >= 0 and 0 <= b < d")'),
        ("lgmodel.AdmissibleGroup.__post_init__",
         'raise ValueError("admissibility: grading element must belong to the group")'),
        ("lgmodel.LGPair.element",
         'raise ValueError(f"{GroupElement(self.fermat, exps)} is not in the group")'),
        ("lgmodel.LGPair.require_twist",
         'raise ValueError(f"{self.name}: twist c={c} outside 0 <= c*c_j < d")'),
        ("lgmodel.LGPair.is_nonempty", 'raise ValueError("need at least one insertion")'),
        ("lgmodel.SectorBasisElement.__post_init__",
         'raise ValueError(f"unknown side {self.side!r}")'),
        ("lgmodel.SectorBasisElement.__post_init__",
         'raise ValueError("empty Y sector: N_g = 0")'),
        ("lgmodel.pair_twisted", 'raise ValueError(f"unknown specialization {spec!r}")'),
        ("transforms.Transform.apply",
         'raise ValueError(f"{self.name}: expected side {self.side_in!r}, "'),
        ("transforms.Transform.apply", 'raise ValueError(f"{self.name}: twist mismatch")'),
        ("transforms.gamma_class_op", 'raise ValueError("side must be \'x\' or \'y\'")'),
        ("transforms.delta_c_specialized",
         'raise ValueError("spec must be one of the euler specializations")'),
    ],
    "failure": [
        ("cli.main", 'print(f"identity failure: {err} {err.witness}", file=sys.stderr)'),
        ("cli.main", "return 1"),
        ("cohseries.CohSeries.compare", 'return {"kind": "token-mismatch",'),
        ("cohseries.CohSeries.compare", 'return {"kind": "signature-mismatch",'),
        ("genfun._assert_h_term",
         'raise IdentityError(_H_TERM_MESSAGE, {"sector": list(sector), "degree": list(degs)})'),
        ("genfun._least_unread", "sector, _, degs = min(key for key in terms if key not in read)"),
        ("genfun._least_unread", 'return {"sector": list(sector), "degree": list(degs)}'),
        ("genfun._assert_no_residual",
         "bad += [z for z in terms if z - delta not in block.terms]"),
        ("genfun._assert_no_residual", "z_bad, zero = min(bad), lhs.ring.zero()"),
        ("genfun._assert_no_residual", "raise IdentityError("),
        ("genfun._gamma_ratio_blocks",
         'raise IdentityError("Gamma atom left unpaired by the integer-gap rewrite",'),
        ("genfun._verify_factorization",
         "read = {(term.sector, z + term.offset, term.degs) for term in table"),
        ("genfun._verify_factorization", "raise IdentityError(clamp, _least_unread(i_terms, read))"),
        ("genfun._verify_factorization", "raise IdentityError(_H_TERM_MESSAGE, _least_unread("),
        ("genfun.fjrw_limit", 'raise IdentityError("FJRW output not narrow-supported",'),
        ("verify.check_mlk_untwisted.body",
         'return {"kind": "vacuous", "detail": "no z d/dt of J keeps a term in the z-window"}'),
        ("verify.check_mlk_operator.body", 'return {"kind": "vacuous",'),
        ("verify.check_mlk_operator.body",
         'return {"kind": spec, "c": c, "sector": list(g.exps)}'),
        ("verify.check_gamma_factorization.body", 'return {"kind": "vacuous",'),
        ("verify.check_continuation.body", 'return {"kind": "vacuous",'),
        ("verify.check_rctc_conditions.body",
         'return {"kind": "geometric-sum", "nilpotency": n_g}'),
        ("verify.check_rctc_conditions.body",
         'return {"kind": "degenerate-block", "nilpotency": n_g}'),
        ("verify.check_rctc_conditions.body",
         'return {"kind": "polynomiality", "input": list(g.exps),'),
        ("verify.check_rctc_conditions.body",
         'return {"kind": "rank", "rank": rank, "expected": expected,'),
        ("verify.check_fjrw_pipeline.body",
         'return {"kind": "mirror-map-shape", "variable": idx,'),
        ("verify.check_fjrw_pipeline.body",
         'return {"kind": "mirror-map-broad", "variable": idx}'),
        ("verify.check_kernel_compatibility.body", "key = sorted(residual.terms)[0]"),
        ("verify.check_kernel_compatibility.body",
         'return {"kind": "pullback-nonzero", "sector": list(key[0]),'),
        ("verify.check_residue_lemma.body",
         'return {"kind": "vacuous", "detail": f"no pole m in 0..{m_max}"}'),
    ],
    "item 14": [
        ("exactalg.ZLaurentSeries.__mul__", "continue"),
    ],
    "item 19": [
        ("lgmodel.pair_twisted", "return PairingValue(Fraction(0))"),
        ("lgmodel.pair_twisted", "shifted = g1 * (pair.grading ** c)"),
        ("lgmodel.pair_twisted", "fixed = [j for j in range(pair.fermat.n_variables)"),
        ("lgmodel.pair_twisted", "coeff = norm"),
        ("lgmodel.pair_twisted", "for j in fixed:"),
        ("lgmodel.pair_twisted", "coeff /= pair.fermat.weights[j]"),
        ("lgmodel.pair_twisted", 'if spec == "euler-inverse" and len(fixed) % 2 == 1:'),
        ("lgmodel.pair_twisted", "coeff = -coeff"),
        ("lgmodel.pair_twisted", "return PairingValue(coeff, -len(fixed))"),
    ],
}.items() for key in keys}


def test_every_line_is_run_outside_the_tests(tmp_path):
    """Every statement inside a def of ``lgcy`` runs in the program's own
    traffic (``_program_traffic``), on a fresh import, or is allowlisted in
    ``NOT_RUN_BY_DESIGN`` with a kind from ``ALLOWLIST_KINDS``; every
    allowlisted line exists, never runs, and sits where its kind may
    (``_placed``).  A branch or def that only tests reach fails here."""
    hit = _run_lines(tmp_path)
    statements = _statements()
    unrun = [st for st in statements if not any((str(st.path), line) in hit for line in st.span)]
    allowed = {(st.owner, st.text) for st in statements} & NOT_RUN_BY_DESIGN.keys()
    unrun_at = {(st.path, st.line) for st in unrun}

    def fail_on(wrong, why: str) -> None:
        """Fail listing each statement of ``wrong`` as file:line, by def."""
        lines, owner = [why], None
        for st in wrong:
            if st.owner != owner:
                lines.append(f"{st.owner}:")
                owner = st.owner
            lines.append(f"  {st.path.name}:{st.line}  {st.text}")
        if wrong:
            pytest.fail("\n".join(lines), pytrace=False)

    fail_on([st for st in unrun if (st.owner, st.text) not in NOT_RUN_BY_DESIGN],
            "run by no program traffic:")
    assert allowed == NOT_RUN_BY_DESIGN.keys(), sorted(NOT_RUN_BY_DESIGN.keys() - allowed)
    fail_on([st for st in statements if (st.owner, st.text) in allowed
             and (st.path, st.line) not in unrun_at], "allowlisted but run:")
    fail_on([st for st in statements if (st.owner, st.text) in allowed
             and not _placed(NOT_RUN_BY_DESIGN[st.owner, st.text], st)],
            "allowlisted under a kind that may not sit there:")
    assert set(NOT_RUN_BY_DESIGN.values()) <= set(ALLOWLIST_KINDS)


def test_gamma_atoms_are_built_through_the_shared_constructor():
    """Outside ``exactalg`` no module calls ``GammaAtom(...)``: every atom the
    program builds is the one instance ``GammaAtom.over`` hands out."""
    offenders = []
    for name, tree in MODULES.items():
        if name == "exactalg":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if called == "GammaAtom":
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def test_the_exact_values_are_tuple_records():
    """``Cyclotomic``, ``SectorValue`` and ``ZLaurentSeries`` define no
    ``__init__``, ``__eq__`` or ``__setattr__``, by def or by assignment:
    each is built by one ``tuple.__new__`` and compares as its tuple, in C.
    ``exactalg`` reads no ``object.__setattr__``, so no value is stored
    field by field."""
    tree = MODULES["exactalg"]
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("Cyclotomic", "SectorValue", "ZLaurentSeries"):
        defined = {member.name for member in classes[name].body
                   if isinstance(member, ast.FunctionDef)}
        defined |= {target.id for member in classes[name].body
                    if isinstance(member, ast.Assign) for target in member.targets
                    if isinstance(target, ast.Name)}
        assert not defined & {"__init__", "__eq__", "__setattr__"}, (name, sorted(defined))
    setattrs = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert setattrs == [], setattrs


def _functions_calling(tree: ast.AST, matches) -> set[str]:
    """Names of the functions of ``tree`` holding a call that ``matches``."""
    return {fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Call) and matches(node.func)
                    for node in ast.walk(fn))}


def _method_called(name: str):
    return lambda func: isinstance(func, ast.Attribute) and func.attr == name


def test_no_genfun_function_reads_an_age():
    """No ``genfun`` function calls ``.age()``: ``_index_tables`` computes
    each index's shift and age in integers, the walks read them from the
    table, and ``LGPair.require_sl`` refuses a pair on which they do not exist."""
    assert _functions_calling(MODULES["genfun"], _method_called("age")) == set()


def test_only_the_index_table_derives_gamma_atoms():
    """``_index_tables`` is the one ``genfun`` def that calls ``_x_atoms`` and
    ``_y_atoms``: every walk reads an index's atoms from its table term.  No
    ``genfun`` def calls ``id(...)``, so no value is keyed on an object's
    identity."""
    def calls(name):
        return lambda func: isinstance(func, ast.Name) and func.id == name

    for name in ("_x_atoms", "_y_atoms"):
        assert _functions_calling(MODULES["genfun"], calls(name)) == {"_index_tables"}, name
    assert _functions_calling(MODULES["genfun"], calls("id")) == set()


def test_only_require_domain_tests_the_pair_domain_in_verify():
    """In ``verify`` only ``_require_domain`` calls ``require_cy`` and
    ``require_sl``; ``_timed``, ``run_checks`` and ``self_test`` call it."""
    for name in ("require_cy", "require_sl"):
        assert _functions_calling(MODULES["verify"], _method_called(name)) == \
            {"_require_domain"}, name
    assert {"_timed", "run_checks", "self_test"} <= \
        _functions_calling(MODULES["verify"], lambda func: isinstance(func, ast.Name)
                           and func.id == "_require_domain")


def _read_in(tree: ast.Module, name: str) -> set[str]:
    """The top-level def or class around each read of ``name`` in ``tree``,
    or "<module>" for a read in a module-level statement (a table's lambda)."""
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)}


def test_only_the_refusal_rule_knows_the_floors_in_verify():
    """In ``verify`` only ``_refusal`` reads ``MIN_T_ORDER`` and calls
    ``_rctc_minimum``, anywhere in the module; ``_timed``, ``run_checks`` and
    ``self_test`` ask it through ``_refuse``, which raises the refusals of a
    batch, and ``_rctc_lam_order`` asks it directly.  No module of ``lgcy``
    writes an "orders" witness: orders a check cannot see are refused, not
    reported."""
    tree = MODULES["verify"]
    assert _read_in(tree, "MIN_T_ORDER") == {"_refusal"}
    assert _read_in(tree, "_rctc_minimum") == {"_refusal"}
    assert _read_in(tree, "_refusal") == {"_refuse", "_rctc_lam_order"}
    assert {"_timed", "run_checks", "self_test"} <= \
        _functions_calling(tree, lambda func: isinstance(func, ast.Name) and func.id == "_refuse")
    witnesses = [f"{name}:{node.lineno}" for name, module in MODULES.items()
                 for node in ast.walk(module) if isinstance(node, ast.Dict)
                 and any(isinstance(key, ast.Constant) and key.value == "kind"
                         and isinstance(value, ast.Constant) and value.value == "orders"
                         for key, value in zip(node.keys, node.values))]
    assert witnesses == []


def test_only_clean_builders_skip_the_series_constructor():
    """``CohSeries._unchecked`` is called only inside ``cohseries``, by the
    closed J ``genfun.untwisted_j``, by the oracle J
    ``genfun.untwisted_j_oracle``, and by the I and H builders
    ``genfun._i_function`` and ``genfun._h_function``, which write only
    inside the orders; the cleanliness tests rebuild their series through
    the constructor.  The continued series keeps the validating
    constructor."""
    def unchecked(func):
        return isinstance(func, ast.Attribute) and func.attr == "_unchecked" \
            and isinstance(func.value, ast.Name) and func.value.id == "CohSeries"

    callers = {f"{name}.{fn}" for name, tree in MODULES.items() if name != "cohseries"
               for fn in _functions_calling(tree, unchecked)}
    assert callers == {"genfun.untwisted_j", "genfun.untwisted_j_oracle",
                       "genfun._i_function", "genfun._h_function"}, callers
    assert _functions_calling(MODULES["cohseries"], unchecked)
    public = _functions_calling(MODULES["genfun"], lambda func: isinstance(func, ast.Name)
                                and func.id == "CohSeries")
    assert "h_continued" in public, public


def _reach_counter(monkeypatch):
    """(wrap, reached): ``wrap(owners, attr, name=attr)`` replaces ``attr``
    on every owner by a counter, and ``reached[outer, name]`` counts the
    wrapped calls to it made while the wrapped ``outer`` runs; a name tells
    apart two owners' methods of one attr."""
    running: Counter = Counter()
    reached: Counter = Counter()

    def wrap(owners, attr, name=None):
        original = getattr(owners[0], attr)
        name = name or attr

        def counted(*args, **kwargs):
            for outer, depth in list(running.items()):
                if depth:
                    reached[outer, name] += 1
            running[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                running[name] -= 1

        for owner in owners:
            monkeypatch.setattr(owner, attr, counted)

    return wrap, reached


def test_the_two_j_routes_never_reach_each_other(monkeypatch):
    """Oracle equivalence and the untwisted MLK check compare two routes to J:
    the oracle route never reaches the closed form or its kept terms, and the
    closed route never reaches the selection rule or the psi-integrals.
    Each function is wrapped by a counter of the wrapped calls made while it
    runs."""
    wrap, reached = _reach_counter(monkeypatch)

    genfun._closed_j_terms.cache_clear()
    wrap([genfun, verify], "untwisted_j")
    wrap([genfun, verify], "untwisted_j_oracle")
    wrap([genfun], "_closed_j_terms")
    wrap([genfun], "psi_integral_oracle")
    wrap([LGPair], "is_nonempty")
    pairs = [getattr(catalog, name)() for name in ("quintic", "cubic", "quartic", "sextic")]
    reports = [verify.check_oracle_equivalence(pair, n_max=4) for pair in pairs]
    quintic = pairs[0]
    reports.append(verify.check_mlk_untwisted(quintic, 1,
                                              verify.recommended_orders(quintic, 4, 1)))
    assert all(report.ok() for report in reports)
    for closed in ("untwisted_j", "_closed_j_terms"):
        assert reached["untwisted_j_oracle", closed] == 0, closed
        for oracle in ("is_nonempty", "psi_integral_oracle"):
            assert reached[closed, oracle] == 0, (closed, oracle)
    # the counters see each route's own calls
    assert reached["untwisted_j", "_closed_j_terms"] > 0
    assert reached["untwisted_j_oracle", "is_nonempty"] > 0
    assert reached["untwisted_j_oracle", "psi_integral_oracle"] > 0


def test_the_traced_layers_stay_on_the_factorization_routes(monkeypatch):
    """The benchmark tracer predicts ``ZLaurentSeries.__mul__`` calls on the
    ``series`` and ``operators`` workloads and ``gamma_shift_product`` calls
    on ``series``: the I builder still reaches the first (each distinct
    product over its fact) and the Gamma factorization the second (one call
    per distinct block).  A product over fact scales every z's cells in one
    pass, so the I builder makes no ``SectorValue.__mul__`` call, while the
    check around it still makes some."""
    wrap, reached = _reach_counter(monkeypatch)
    wrap([verify], "check_gamma_factorization")
    wrap([genfun, verify], "i_function_x")
    wrap([genfun, verify], "h_factorization")
    wrap([genfun], "gamma_shift_product")
    wrap([ZLaurentSeries], "__mul__")
    wrap([SectorValue], "__mul__", "SectorValue.__mul__")
    pair = catalog.quartic()
    assert verify.check_gamma_factorization(pair, verify.recommended_orders(pair, 3, 2)).ok()
    assert reached["i_function_x", "__mul__"] > 0
    assert reached["i_function_x", "SectorValue.__mul__"] == 0
    assert reached["check_gamma_factorization", "SectorValue.__mul__"] > 0
    assert reached["h_factorization", "gamma_shift_product"] > 0


def test_i_c_relabels_the_oracle_j_without_a_product(monkeypatch):
    """``i_c`` has unit entries only, so the untwisted MLK check's one
    ``Transform.apply`` passes the oracle's values through and makes no
    ``SectorValue`` product, while the check's derivatives still make some."""
    wrap, reached = _reach_counter(monkeypatch)
    wrap([verify], "check_mlk_untwisted")
    wrap([Transform], "apply")
    wrap([SectorValue], "__mul__")
    quintic = catalog.quintic()
    assert verify.check_mlk_untwisted(quintic, 1,
                                      verify.recommended_orders(quintic, 8, 4)).ok()
    assert reached["check_mlk_untwisted", "apply"] == 1
    assert reached["apply", "__mul__"] == 0
    assert reached["check_mlk_untwisted", "__mul__"] > 0


def test_rings_are_never_compared_by_value():
    """Each ``SeriesRing`` is the one shared instance of its parameters, so
    no module compares a ring with ``==`` or ``!=``: rings compare by
    ``is``."""
    def is_ring(node):
        return isinstance(node, ast.Attribute) and node.attr == "ring" or \
            isinstance(node, ast.Name) and node.id == "ring"

    offenders = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (is_ring(left) or is_ring(right)):
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def test_continuation_reaches_the_group_element_constructor(monkeypatch):
    """The benchmark tracer predicts ``GroupElement.__init__`` calls on every
    workload; on ``series`` they come from the continuation check, whose
    ``u_bar`` application reads each output sector's nilpotency once."""
    wrap, reached = _reach_counter(monkeypatch)
    wrap([verify], "check_continuation")
    wrap([GroupElement], "__init__")
    pair = catalog.quartic()
    assert verify.check_continuation(pair, verify.recommended_orders(pair, 3, 2)).ok()
    assert reached["check_continuation", "__init__"] > 0


def test_the_index_table_and_the_continued_series_build_no_group_element(monkeypatch):
    """The group's product table and positions are built from exponent
    tuples: on a fresh pair, building them makes no ``GroupElement`` (both
    constructors store through ``_store``).  ``_index_tables``,
    ``_j_classes`` and ``h_continued`` read that table and make no
    ``GroupElement`` and no group product (``_product``) of their own,
    though the checks around them make some.  The caches are emptied first,
    so each builds here."""
    wrap, reached = _reach_counter(monkeypatch)
    for cache in (genfun._index_tables, genfun._j_classes):
        cache.cache_clear()
    tables = SimpleNamespace(build=lambda group: (group.times, group.position))
    wrap([tables], "build")
    wrap([verify], "check_continuation")
    wrap([verify], "check_oracle_equivalence")
    wrap([genfun], "_index_tables")
    wrap([genfun], "_j_classes")
    wrap([genfun, verify], "h_continued")
    wrap([lgmodel], "_product")
    wrap([GroupElement], "_store")
    pair = catalog.quartic()
    tables.build(pair.group)
    assert reached["build", "_product"] == len(pair.group) ** 2
    assert reached["build", "_store"] == 0
    assert verify.check_continuation(pair, verify.recommended_orders(pair, 3, 2)).ok()
    assert verify.check_oracle_equivalence(pair, n_max=3).ok()
    assert reached["check_continuation", "_index_tables"] > 0
    assert reached["check_continuation", "h_continued"] > 0
    assert reached["check_continuation", "_store"] > 0
    assert reached["check_oracle_equivalence", "_j_classes"] > 0
    assert reached["check_oracle_equivalence", "_store"] > 0
    for builder in ("_index_tables", "_j_classes", "h_continued"):
        assert reached[builder, "_store"] == 0, builder
        assert reached[builder, "_product"] == 0, builder


def test_only_two_sites_rebuild_a_group_element():
    """In ``cohseries``, ``genfun``, ``transforms`` and ``verify`` a sector
    key becomes an element through ``LGPair.element``, which hands out the
    group's own instance.  Only ``cohseries._sector_nilpotency`` and
    ``verify.check_mlk_untwisted`` still call ``GroupElement(...)``: the
    benchmark tracer (``benchmarks/tracer.py:89``) predicts
    ``GroupElement.__init__`` calls on every workload, and these two sites
    are what make them."""
    def calls_constructor(func):
        return isinstance(func, ast.Name) and func.id == "GroupElement"

    sites = {f"{name}.{getattr(node, 'name', node.lineno)}"
             for name in ("cohseries", "genfun", "transforms", "verify")
             for node in MODULES[name].body
             if any(isinstance(call, ast.Call) and calls_constructor(call.func)
                    for call in ast.walk(node))}
    assert sites == {"cohseries._sector_nilpotency", "verify.check_mlk_untwisted"}


def test_oracle_equivalence_reaches_the_selection_rule(monkeypatch):
    """The benchmark tracer predicts ``LGPair.is_nonempty`` and
    ``LGPair.line_bundle_degree`` calls on ``oracle``; the oracle's dual
    scan, once per residue class, still reaches both."""
    wrap, reached = _reach_counter(monkeypatch)
    wrap([verify], "check_oracle_equivalence")
    wrap([LGPair], "is_nonempty")
    wrap([LGPair], "line_bundle_degree")
    assert verify.check_oracle_equivalence(catalog.quintic(), n_max=3).ok()
    assert reached["check_oracle_equivalence", "is_nonempty"] > 0
    assert reached["check_oracle_equivalence", "line_bundle_degree"] > 0


def test_the_delta_c_entries_build_no_fraction(monkeypatch):
    """``delta_c_generic``, ``delta_c_specialized`` and the helpers of the
    latter call no ``Fraction(...)``; neither entry class defines a method,
    so each dataclass ``==`` compares integer fields; with ``Fraction``
    construction made to raise, entries of both kinds still compare and,
    their log terms cached, still build."""
    def calls_fraction(func):
        return isinstance(func, ast.Name) and func.id == "Fraction"

    defs = {node.name: node for node in MODULES["transforms"].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ("delta_c_generic", "delta_c_specialized", "_specialized_log_row",
                 "_lowest_terms"):
        assert not _functions_calling(defs[name], calls_fraction), name
    for name in ("GenericEntry", "SpecializedEntry"):
        assert not [node for node in defs[name].body if isinstance(node, ast.FunctionDef)]

    pair = catalog.quartic()
    c = pair.valid_twists()[-1]
    shift = pair.grading ** c
    builds = {"generic": lambda twist: transforms.delta_c_generic(pair, twist),
              "specialized": lambda twist: transforms.delta_c_specialized(
                  pair, twist, "euler-inverse")}
    built = {kind: (build(0), build(c)) for kind, build in builds.items()}

    def no_fraction(*_, **__):
        raise AssertionError("built a Fraction")

    with monkeypatch.context() as patch:
        patch.setattr(fractions.Fraction, "__new__", staticmethod(no_fraction))
        for kind, build in builds.items():
            left, right = built[kind]
            again = build(c)
            assert all(left[(g * shift).exps] == right[g.exps] == again[g.exps]
                       for g in pair.group.elements), kind


def test_the_gamma_ratio_blocks_build_no_fraction():
    """``genfun._gamma_ratio_blocks`` pairs the atoms in their integer
    numerators and hands ``gamma_shift_product`` integer ratios: neither it
    nor its inner helpers call ``Fraction(...)``."""
    [blocks] = [node for node in ast.walk(MODULES["genfun"])
                if isinstance(node, ast.FunctionDef) and node.name == "_gamma_ratio_blocks"]
    assert not _functions_calling(blocks, lambda func: isinstance(func, ast.Name)
                                  and func.id == "Fraction")
    assert "block" in {fn.name for fn in ast.walk(blocks) if isinstance(fn, ast.FunctionDef)}
