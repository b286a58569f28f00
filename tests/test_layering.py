"""Module layering of ``lgcy``: no function-local imports, no import cycles,
every name that the benchmark tracer wraps exists, and the two routes of
the J identities stay apart."""
from __future__ import annotations

import ast
import fractions
import importlib
import importlib.util
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from lgcy import catalog, genfun, transforms, verify
from lgcy.exactalg import SectorValue, ZLaurentSeries
from lgcy.lgmodel import GroupElement, LGPair
from lgcy.transforms import Transform

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


# public names that only tests call, each kept for a reason of its own
UNCALLED_BY_DESIGN = {
    "bernoulli_poly": "the reference that tests hold _bernoulli_at to",
    "deserialize_series": "the serializer's inverse, the round-trip tests' oracle",
    "work_estimate": "the public query for the work bound that require_bounded enforces",
}


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


def test_every_public_name_has_a_caller_outside_the_tests():
    """Every public def or class of ``lgcy`` is used by the package itself,
    a demo or the benchmark.  A re-export in ``__init__`` is not a use."""
    public = {node.name for tree in MODULES.values() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    used = set().union(*(_names_used(tree, count_imports=False) for tree in MODULES.values()))
    for path in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("benchmarks/*.py")):
        used |= _names_used(ast.parse(path.read_text(), filename=str(path)),
                            count_imports=True)
    assert UNCALLED_BY_DESIGN.keys() <= public
    assert sorted(public - used - UNCALLED_BY_DESIGN.keys()) == []


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


def test_only_require_domain_tests_the_pair_domain_in_verify():
    """In ``verify`` only ``_require_domain`` calls ``require_cy`` and
    ``require_sl``; ``_timed`` and the run admission call it."""
    for name in ("require_cy", "require_sl"):
        assert _functions_calling(MODULES["verify"], _method_called(name)) == \
            {"_require_domain"}, name
    assert {"_timed", "_admit"} <= \
        _functions_calling(MODULES["verify"], lambda func: isinstance(func, ast.Name)
                           and func.id == "_require_domain")


def test_only_clean_builders_skip_the_series_constructor():
    """``CohSeries._unchecked`` is called only inside ``cohseries``, by the
    closed J ``genfun.untwisted_j``, by the oracle J
    ``genfun.untwisted_j_oracle``, and by the I and H builders
    ``genfun._i_function`` and ``genfun._h_function``, which write only
    inside the orders; the cleanliness tests rebuild their series through
    the constructor.  The continued series and the deserializer keep the
    validating constructor."""
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
    assert {"h_continued", "deserialize_series"} <= public, public


def _reach_counter(monkeypatch):
    """(wrap, reached): ``wrap(owners, attr)`` replaces ``attr`` on every
    owner by a counter, and ``reached[outer, attr]`` counts the wrapped calls
    to ``attr`` made while the wrapped ``outer`` runs."""
    running: Counter = Counter()
    reached: Counter = Counter()

    def wrap(owners, attr):
        original = getattr(owners[0], attr)

        def counted(*args, **kwargs):
            for outer, depth in list(running.items()):
                if depth:
                    reached[outer, attr] += 1
            running[attr] += 1
            try:
                return original(*args, **kwargs)
            finally:
                running[attr] -= 1

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
    on ``series``: the I builder still reaches the first (comb times each
    distinct product) and the Gamma factorization the second (one call per
    distinct block)."""
    wrap, reached = _reach_counter(monkeypatch)
    wrap([genfun, verify], "i_function_x")
    wrap([genfun, verify], "h_factorization")
    wrap([genfun], "gamma_shift_product")
    wrap([ZLaurentSeries], "__mul__")
    pair = catalog.quartic()
    assert verify.check_gamma_factorization(pair, verify.recommended_orders(pair, 3, 2)).ok()
    assert reached["i_function_x", "__mul__"] > 0
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
    """``_index_tables`` and ``h_continued`` read sectors as exponent tuples:
    while either runs no ``GroupElement`` is made (both constructors store
    through ``_store``), though the continuation check around them makes
    some."""
    wrap, reached = _reach_counter(monkeypatch)
    genfun._index_tables.cache_clear()
    wrap([verify], "check_continuation")
    wrap([genfun], "_index_tables")
    wrap([genfun, verify], "h_continued")
    wrap([GroupElement], "_store")
    pair = catalog.quartic()
    assert verify.check_continuation(pair, verify.recommended_orders(pair, 3, 2)).ok()
    assert reached["check_continuation", "_index_tables"] > 0
    assert reached["check_continuation", "h_continued"] > 0
    assert reached["check_continuation", "_store"] > 0
    assert reached["_index_tables", "_store"] == 0
    assert reached["h_continued", "_store"] == 0


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


def test_spoly_arithmetic_builds_no_fraction():
    """``SPoly`` keeps integer numerators over one denominator: of its
    methods only the public constructor's input parsing and the ``terms``
    view may call ``Fraction(...)``, so ``exp``, ``==`` and the scalar ``*``
    work in integers."""
    [spoly] = [node for node in ast.walk(MODULES["transforms"])
               if isinstance(node, ast.ClassDef) and node.name == "SPoly"]
    callers = _functions_calling(spoly, lambda func: isinstance(func, ast.Name)
                                 and func.id == "Fraction")
    assert "terms" in callers
    assert callers <= {"__init__", "terms"}, callers


def _is_plan_value(value) -> bool:
    """An int, None, a monomial key ((((j, k), e), ...), z), or a tuple of those."""
    if value is None or type(value) is int:
        return True
    if (isinstance(value, tuple) and len(value) == 2 and type(value[1]) is int
            and isinstance(value[0], tuple)
            and all(isinstance(var, tuple) and len(var) == 2 and type(e) is int
                    and all(type(x) is int for x in var) for var, e in value[0])):
        return True
    return isinstance(value, tuple) and all(_is_plan_value(part) for part in value)


def test_the_delta_c_entries_build_no_fraction(monkeypatch):
    """``delta_c_specialized`` and its helpers call no ``Fraction(...)``;
    ``SpecializedEntry`` defines no ``==`` of its own, so the dataclass
    compares its integer fields, and only its views call ``Fraction``; with
    ``Fraction`` construction made to raise, specialized entries still
    compare and, their log terms cached, still build; and the plans
    ``SPoly.exp`` reads hold only ints and monomial keys."""
    def calls_fraction(func):
        return isinstance(func, ast.Name) and func.id == "Fraction"

    defs = {node.name: node for node in MODULES["transforms"].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ("delta_c_specialized", "_specialized_log_row", "_lowest_terms", "_exp_plan"):
        assert not _functions_calling(defs[name], calls_fraction), name
    entry = defs["SpecializedEntry"]
    assert _functions_calling(entry, calls_fraction) == {"half_turns", "mu", "series"}
    assert "__eq__" not in {node.name for node in entry.body
                            if isinstance(node, ast.FunctionDef)}

    pair = catalog.quartic()
    c = pair.valid_twists()[-1]
    shift = pair.grading ** c
    left = transforms.delta_c_specialized(pair, 0, "euler-inverse")
    right = transforms.delta_c_specialized(pair, c, "euler-inverse")

    def no_fraction(*_, **__):
        raise AssertionError("built a Fraction")

    with monkeypatch.context() as patch:
        patch.setattr(fractions.Fraction, "__new__", staticmethod(no_fraction))
        again = transforms.delta_c_specialized(pair, c, "euler-inverse")
        assert all(left[(g * shift).exps] == right[g.exps] == again[g.exps]
                   for g in pair.group.elements)

    forms = []
    exp = transforms.SPoly.exp
    monkeypatch.setattr(transforms.SPoly, "exp", lambda form: forms.append(form) or exp(form))
    for pair in catalog.shipped_pairs().values():
        transforms.delta_c_generic(pair, pair.valid_twists()[-1], 4, 3, 6)
    assert forms
    for form in forms:
        shape = tuple((mono[0][0], z) for mono, z in sorted(form.nums))
        plan = transforms._exp_plan(shape, form.s_degree, form.z_order)
        assert plan and _is_plan_value(plan)


def test_the_gamma_ratio_blocks_build_no_fraction():
    """``genfun._gamma_ratio_blocks`` pairs the atoms in their integer
    numerators and hands ``gamma_shift_product`` integer ratios: neither it
    nor its inner helpers call ``Fraction(...)``."""
    [blocks] = [node for node in ast.walk(MODULES["genfun"])
                if isinstance(node, ast.FunctionDef) and node.name == "_gamma_ratio_blocks"]
    assert not _functions_calling(blocks, lambda func: isinstance(func, ast.Name)
                                  and func.id == "Fraction")
    assert "block" in {fn.name for fn in ast.walk(blocks) if isinstance(fn, ast.FunctionDef)}
