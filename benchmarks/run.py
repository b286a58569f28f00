"""The lgcy benchmark: end-to-end verdict times, or a traced per-layer run.

    python3 benchmarks/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``.  One closed-loop caller: this process starts one child process at a
time (``child.py``), each in a fresh interpreter, so every pass starts with
cold caches, and ``setup_s`` and ``peak_rss_mib`` belong to their own process.

``--trace 0`` times passes until ``--seconds`` are used up (at least
``MIN_PASSES``) and reports medians of ``pass_s``, ``setup_s`` and
``peak_rss_mib``.  ``--trace 1`` runs one untraced and one traced pass and the
exactalg layer probes, and reports the per-layer metrics.  Both run the
workload's fault-injection gate once, outside the timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its quartiles, sample count and unit.  The exit code
is 0 only when every check call gave its expected verdict and every
self-check of the run held.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import probes  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9          # setup-only processes per run, besides the passes
HARD_LIMIT_S = 170.0       # a run must end well within 180 s

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class ChildError(RuntimeError):
    pass


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _source_id() -> dict:
    """The git SHA when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def _environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **_source_id()}


class Runner:
    """Starts the child processes one after another, within the run's limit."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, job: str, *extra: str) -> tuple[dict, float]:
        """Run one child job; its parsed JSON line and its wall seconds."""
        remaining = HARD_LIMIT_S - self.elapsed()
        if remaining <= 1.0:
            raise ChildError(f"no time left for the {job} job")
        cmd = [sys.executable, str(HERE / "child.py"), "--job", job,
               "--workload", self.workload, "--seed", str(self.seed),
               "--scale", self.scale, *extra]
        began = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise ChildError(f"{job} job did not finish within {remaining:.0f} s") from err
        wall = time.perf_counter() - began
        if proc.returncode != 0:
            raise ChildError(f"{job} job exited {proc.returncode}:\n{proc.stderr}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), wall
        except (IndexError, json.JSONDecodeError) as err:
            raise ChildError(f"{job} job printed no result:\n{proc.stdout}{proc.stderr}") from err


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_untraced(runner: Runner, seconds: float, record: dict) -> dict:
    samples = {name: [] for name in END_TO_END}
    for _ in range(SETUP_SAMPLES):
        out, _ = runner.child("setup")
        samples["setup_s"].append(out["setup_s"])
    walls: list[float] = []
    began = time.perf_counter()
    while True:
        out, wall = runner.child("pass")
        walls.append(wall)
        for name in END_TO_END:
            samples[name].append(out[name])
        record["attempted"] += out["attempted"]
        record["wrong"] += out["wrong"]
        spent = time.perf_counter() - began
        projected = spent + statistics.median(walls)
        if len(walls) >= MIN_PASSES and (projected > seconds or
                                         runner.elapsed() + 2 * max(walls) > HARD_LIMIT_S):
            break
    record["samples"] = samples
    return {name: (_summary(samples[name]), unit) for name, unit in END_TO_END.items()}


def _per_layer_unit(name: str) -> str:
    if name.startswith("probe."):
        return "us"
    return tracer.UNITS[name.rsplit(".", 1)[1]]


def run_traced(runner: Runner, record: dict) -> dict:
    plain, _ = runner.child("pass")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.workload}-seed{runner.seed}.bin"
    traced, _ = runner.child("trace", "--spans", str(spans))
    probed, _ = runner.child("probes")
    for out in (plain, traced):
        record["attempted"] += out["attempted"]
        record["wrong"] += out["wrong"]
    layers = traced["layers"]
    record["errors"] += tracer.coverage_errors(runner.workload, layers)
    record["errors"] += probed["wrong"]
    record["calls_by_check"] = layers["calls_by_check"]
    record["spans"] = {"file": str(spans.relative_to(ROOT)), "count": layers["spans"]}
    values = dict(layers["values"])
    values.update(probed["probes"])
    metrics = {name: (values[name], _per_layer_unit(name))
               for name in tracer.metric_names() + probes.metric_names()}
    metrics["trace.pass_s.traced"] = (traced["pass_s"], "s")
    metrics["trace.pass_s.untraced"] = (plain["pass_s"], "s")
    metrics["trace.overhead"] = (traced["pass_s"] / plain["pass_s"], "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small orders, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    if not (SRC / "lgcy" / "__init__.py").is_file():
        print(f"error: {SRC / 'lgcy'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.scale)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "seconds": args.seconds, **_environment(),
              "loadavg_start": _loadavg(), "attempted": 0, "wrong": [], "errors": []}
    try:
        runner.child("setup")            # warm-up: byte-compile, fill the file cache
        gate, _ = runner.child("gate")
        record["attempted"] += gate["attempted"]
        record["wrong"] += gate["wrong"]
        if args.trace:
            summary = None
            metrics = run_traced(runner, record)
        else:
            summary = run_untraced(runner, args.seconds, record)
            metrics = {name: (stats["median"], unit) for name, (stats, unit) in summary.items()}
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    record["loadavg_end"] = _loadavg()
    record["wall_s"] = runner.elapsed()

    failed = len(record["wrong"])
    correct = failed == 0 and not record["errors"]
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, "summary": summary,
                                        "metrics": metrics}, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} python={record['python']} "
          f"git={record['git_sha']} src={record['src_sha256']}")
    print(f"loadavg start: {record['loadavg_start']}  end: {record['loadavg_end']}")
    for problem in record["wrong"] + record["errors"]:
        print(f"FAIL {problem}")
    if summary is not None:
        for metric, (stats, unit) in summary.items():
            print(f"{metric:<14} median {stats['median']:.4f} {unit}  "
                  f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
    else:
        for metric, (value, unit) in metrics.items():
            print(f"{metric:<52} {value:.6g} {unit}")
    print(f"{'fail_ratio':<14} {failed}/{record['attempted']} = "
          f"{failed / record['attempted']:.4f} ratio")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": failed,
                      "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
