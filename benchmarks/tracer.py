"""Spans and counters around the public callables of ``lgcy``, from outside.

``Tracer.install()`` replaces every traced callable with a wrapper, in every
``lgcy`` namespace that holds it: ``verify`` and ``cli`` import with
``from .genfun import i_function_x``, so patching only ``lgcy.genfun`` would
miss their calls.  ``uninstall()`` puts the originals back.

A span records its name, start, end and parent span; the spans of one run
share the tracer's run id.  Spans live in flat ``array`` columns while the
run goes on and are written out once at the end.  A span's self time is its
duration minus the durations of its direct child spans.

Callables called hundreds of thousands of times per pass and whose self time
is not reported (``GroupElement.__init__``, ``Cyclotomic.__mul__``) are
counted without a span, which keeps the trace small and the overhead low;
their time stays in the enclosing span's self time.
"""
from __future__ import annotations

import json
import os
import sys
import time
from array import array
from dataclasses import dataclass

ALL = ("oracle", "series", "operators")


def _terms_of_result(result) -> int:
    return len(result.terms)


def _terms_of_series_arg(args) -> int:
    return len(args[1].terms)


def _terms_of_both(args) -> int:
    return len(args[0].terms) + len(args[1].terms)


def _rational_operands(args) -> int:
    a, b = args[0], args[1]
    if not a.is_rational():
        return 0
    return 1 if not hasattr(b, "is_rational") or b.is_rational() else 0


def _is_none(result) -> int:
    return 1 if result is None else 0


@dataclass(frozen=True)
class Site:
    """One traced callable and the per-layer metrics it reports.

    ``stats`` are reported as ``<name>.<stat>``; ``used_on`` names the
    workloads that must call it (coverage check) and ``idle_on`` those on
    which its call count must read zero, either a workload or
    ``workload:check`` for the calls made inside one check function.
    """

    name: str
    module: str
    attr: str                          # "fn" or "Class.method"
    stats: tuple
    used_on: tuple
    span: bool = True
    idle_on: tuple = ()
    terms_in: object = None            # args -> int
    terms_out: object = None           # result -> int
    hits_in: object = None             # args -> 0/1, share reported as ratio
    hits_out: object = None            # result -> 0/1


CHECKS = (
    ("check_oracle_equivalence", ("oracle",)),
    ("check_mlk_untwisted", ("oracle",)),
    ("check_gamma_factorization", ("series",)),
    ("check_continuation", ("series",)),
    ("check_mlk_operator", ("operators",)),
    ("check_rctc_conditions", ("operators",)),
    ("check_residue_lemma", ("operators",)),
    ("check_fjrw_pipeline", ("operators",)),
    ("check_kernel_compatibility", ("operators",)),
)

SITES = (
    Site("lgmodel.GroupElement.init", "lgmodel", "GroupElement.__init__",
         ("calls",), ALL, span=False),
    Site("lgmodel.LGPair.is_nonempty", "lgmodel", "LGPair.is_nonempty",
         ("calls", "self_s"), ("oracle",)),
    Site("lgmodel.LGPair.line_bundle_degree", "lgmodel", "LGPair.line_bundle_degree",
         ("calls",), ("oracle",), span=False),
    Site("genfun.untwisted_j_oracle", "genfun", "untwisted_j_oracle",
         ("self_s", "terms_out"), ("oracle",), idle_on=("series", "operators"),
         terms_out=_terms_of_result),
    Site("genfun.untwisted_j", "genfun", "untwisted_j",
         ("self_s", "terms_out"), ("oracle",), terms_out=_terms_of_result),
    Site("exactalg.Cyclotomic.mul", "exactalg", "Cyclotomic.__mul__",
         ("calls", "rational_share"), ("series", "operators"), span=False,
         idle_on=("oracle:check_oracle_equivalence",), hits_in=_rational_operands),
    Site("exactalg.Cyclotomic.inverse", "exactalg", "Cyclotomic.inverse",
         ("calls",), ("series", "operators"), span=False),
    Site("exactalg.SectorValue.mul", "exactalg", "SectorValue.__mul__",
         ("calls", "self_s"), ("series", "operators")),
    Site("exactalg.ZLaurentSeries.mul", "exactalg", "ZLaurentSeries.__mul__",
         ("calls", "self_s"), ("series", "operators")),
    Site("exactalg.gamma_shift_product", "exactalg", "gamma_shift_product",
         ("calls", "self_s"), ("series",)),
    Site("genfun.i_function_x", "genfun", "i_function_x",
         ("self_s", "terms_out"), ("series", "operators"), terms_out=_terms_of_result),
    Site("genfun.i_function_y", "genfun", "i_function_y",
         ("self_s", "terms_out"), ("series",), terms_out=_terms_of_result),
    Site("genfun.modification_factor", "genfun", "modification_factor",
         ("calls", "self_s"), ("series", "operators")),
    Site("genfun.h_function_x", "genfun", "h_function_x", ("self_s",), ("series",)),
    Site("genfun.h_function_y", "genfun", "h_function_y", ("self_s",), ("series",)),
    Site("genfun.h_factorization", "genfun", "h_factorization", ("self_s",), ("series",)),
    Site("genfun.h_continued", "genfun", "h_continued",
         ("self_s", "terms_out"), ("series",), terms_out=_terms_of_result),
    Site("transforms.u_bar", "transforms", "u_bar", ("self_s",), ("series", "operators")),
    Site("transforms.Transform.apply", "transforms", "Transform.apply",
         ("calls", "self_s", "terms_in", "terms_out"), ALL,
         terms_in=_terms_of_series_arg, terms_out=_terms_of_result),
    Site("transforms.delta_c_generic", "transforms", "delta_c_generic",
         ("self_s",), ("operators",)),
    Site("transforms.delta_c_specialized", "transforms", "delta_c_specialized",
         ("self_s",), ("operators",)),
    Site("transforms.DeltaDiamond.apply", "transforms", "DeltaDiamond.apply",
         ("self_s",), ("operators",)),
    Site("transforms.PullbackToZ.apply", "transforms", "PullbackToZ.apply",
         ("self_s",), ("operators",)),
    Site("transforms.divide_or_none", "transforms", "divide_or_none",
         ("calls", "none_ratio"), ("operators",), span=False, hits_out=_is_none),
    Site("exactalg.series_exp", "exactalg", "series_exp",
         ("calls", "self_s"), ("series", "operators")),
    Site("exactalg.series_invert", "exactalg", "series_invert",
         ("calls", "self_s"), ("series", "operators")),
    Site("exactalg.divide_by_lambda_plus_h", "exactalg", "divide_by_lambda_plus_h",
         ("calls", "self_s"), ("operators",)),
    Site("cohseries.CohSeries.compare", "cohseries", "CohSeries.compare",
         ("calls", "self_s", "terms_in"), ("oracle", "series"), terms_in=_terms_of_both),
    Site("cohseries.CohSeries.z_ddt_var", "cohseries", "CohSeries.z_ddt_var",
         ("self_s",), ("oracle", "operators")),
) + tuple(Site(f"verify.{fn}", "verify", fn, ("total_s", "self_s"), used)
          for fn, used in CHECKS)

# the psi-integral cache ratio is read from cache_info(), not from a wrapper
PSI_HIT_RATIO = "genfun.psi_integral_oracle.hit_ratio"

UNITS = {"calls": "count", "terms_in": "count", "terms_out": "count",
         "self_s": "s", "total_s": "s", "rational_share": "ratio",
         "none_ratio": "ratio", "hit_ratio": "ratio"}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{site.name}.{stat}" for site in SITES for stat in site.stats]
    names.insert(names.index("genfun.untwisted_j.self_s"), PSI_HIT_RATIO)
    return names


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Installs the wrappers, keeps the spans, and reduces them to metrics.

    Call counts are kept per enclosing check function (one row per entry of
    ``CHECKS``, plus a last row for calls outside any check), so that an
    idle prediction can name the check it holds for.
    """

    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.calls = [[0] * len(SITES) for _ in range(len(CHECKS) + 1)]
        self.terms_in = [0] * len(SITES)
        self.terms_out = [0] * len(SITES)
        self.hits = [0] * len(SITES)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._row = [self.calls[-1]]     # call-count row of the running check
        self._patched = []               # (namespace, attribute, original)

    # -- wrappers --------------------------------------------------------------
    def _wrapper(self, index: int, site: Site, fn):
        row, t_in, t_out, hits = self._row, self.terms_in, self.terms_out, self.hits
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        terms_in, terms_out = site.terms_in, site.terms_out
        hits_in, hits_out = site.hits_in, site.hits_out
        check_names = [name for name, _ in CHECKS]
        own_row = (self.calls[check_names.index(site.attr)]
                   if site.module == "verify" else None)

        if not site.span:
            def counted(*args, **kwargs):
                row[0][index] += 1
                if hits_in is not None:
                    hits[index] += hits_in(args)
                result = fn(*args, **kwargs)
                if hits_out is not None:
                    hits[index] += hits_out(result)
                return result
            return counted

        def spanned(*args, **kwargs):
            outer_row = row[0]
            if own_row is not None:
                row[0] = own_row
            row[0][index] += 1
            if terms_in is not None:
                t_in[index] += terms_in(args)
            sid = len(names)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                row[0] = outer_row
            if terms_out is not None:
                t_out[index] += terms_out(result)
            return result
        return spanned

    def install(self) -> None:
        """Wrap every site in every ``lgcy`` namespace that holds it."""
        import lgcy  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "lgcy" or name.startswith("lgcy.")) and m is not None]
        for index, site in enumerate(SITES):
            home = sys.modules[f"lgcy.{site.module}"]
            if "." in site.attr:
                cls_name, method = site.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                wrapped = self._wrapper(index, site, original)
                # r-operators are aliases of the same function object
                for attr, value in list(cls.__dict__.items()):
                    if value is original:
                        self._patched.append((cls, attr, original))
                        setattr(cls, attr, wrapped)
            else:
                original = getattr(home, site.attr)
                wrapped = self._wrapper(index, site, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # -- reduction -------------------------------------------------------------
    def _times(self):
        """(total, self) seconds per site, from the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for sid in range(n):
            parent = parents[sid]
            if parent >= 0:
                child[parent] += ends[sid] - starts[sid]
        total = [0.0] * len(SITES)
        own = [0.0] * len(SITES)
        for sid, index in enumerate(self.span_name):
            duration = ends[sid] - starts[sid]
            total[index] += duration
            own[index] += duration - child[sid]
        return total, own

    def layer_metrics(self) -> dict:
        """Per-layer metric values by name, and call counts by site and check."""
        from lgcy.genfun import psi_integral_oracle

        total, own = self._times()
        calls = [sum(column) for column in zip(*self.calls)]
        values = {}
        for index, site in enumerate(SITES):
            stat_value = {
                "calls": calls[index],
                "terms_in": self.terms_in[index],
                "terms_out": self.terms_out[index],
                "self_s": own[index],
                "total_s": total[index],
                "rational_share": _ratio(self.hits[index], calls[index]),
                "none_ratio": _ratio(self.hits[index], calls[index]),
            }
            for stat in site.stats:
                values[f"{site.name}.{stat}"] = stat_value[stat]
        info = psi_integral_oracle.cache_info()
        values[PSI_HIT_RATIO] = _ratio(info.hits, info.hits + info.misses)
        by_check = {}
        for (check, _), row in zip(CHECKS + (("outside", ()),), self.calls):
            by_check[check] = {site.name: n for site, n in zip(SITES, row) if n}
        return {"values": values, "calls_by_check": by_check,
                "psi_calls": info.hits + info.misses, "spans": len(self.span_name)}

    def write_spans(self, path: str) -> None:
        """One JSON header line, then the raw span columns."""
        header = {"run_id": self.run_id, "count": len(self.span_name),
                  "names": [site.name for site in SITES],
                  "columns": [["name", "H"], ["parent", "l"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(out)


def read_spans(path: str) -> tuple[dict, list[tuple]]:
    """Header and (name, parent, start, end) rows of a written span file."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = []
        for _, code in header["columns"]:
            column = array(code)
            column.fromfile(src, header["count"])
            columns.append(column)
    names = header["names"]
    rows = [(names[n], p, s, e) for n, p, s, e in zip(*columns)]
    return header, rows


def coverage_errors(workload: str, layers: dict) -> list[str]:
    """Sites predicted to run on ``workload`` that did not, and idle ones that ran."""
    by_check = layers["calls_by_check"]
    errors = []
    for site in SITES:
        count = sum(row.get(site.name, 0) for row in by_check.values())
        if workload in site.used_on and count == 0:
            errors.append(f"{site.name}: predicted to run on {workload}, never called")
        for idle in site.idle_on:
            where, _, check = idle.partition(":")
            if where != workload:
                continue
            n = by_check[check].get(site.name, 0) if check else count
            if n:
                errors.append(f"{site.name}: predicted idle on {idle}, called {n} times")
    if workload == "oracle" and layers["psi_calls"] == 0:
        errors.append(f"{PSI_HIT_RATIO}: psi_integral_oracle never called on oracle")
    return errors
