"""One benchmark process: set up, do one job, print one JSON line.

    python3 benchmarks/child.py --job pass --workload series [--scale tiny]

Jobs:
  setup   import lgcy and build the pairs, nothing else;
  pass    set up, then one timed pass over the workload's check set;
  trace   set up, then one pass with spans around every traced callable;
  gate    set up, then the workload's fault-injection set (untimed);
  probes  the exactalg layer probes.

``run.py`` starts each job in a fresh interpreter so that no cache of the
program (``lru_cache``d oracle values, power-reduction tables) survives from
one pass into the next.  ``src/`` must be on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--job", required=True,
                        choices=("setup", "pass", "trace", "gate", "probes"))
    parser.add_argument("--workload", default="oracle")
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", default="", help="trace job: file to write spans to")
    args = parser.parse_args(argv)

    if args.job == "probes":
        import probes
        values, wrong = probes.run_probes(args.seed, args.scale)
        print(json.dumps({"probes": values, "wrong": wrong}))
        return 0

    import workloads                    # benchmark code, imports lgcy lazily

    start = time.perf_counter()
    import lgcy  # noqa: F401  (the import is what setup_s times)
    pairs = workloads.build_pairs()
    setup_s = time.perf_counter() - start
    out: dict = {"setup_s": setup_s}

    if args.job in ("pass", "trace"):
        calls = workloads.pass_calls(args.workload, pairs, workloads.SCALES[args.scale])
        random.Random(args.seed).shuffle(calls)
        tracer = None
        if args.job == "trace":
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        wrong = workloads.run_calls(calls)
        out["pass_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write_spans(args.spans)
        out.update(attempted=len(calls), wrong=wrong)
    elif args.job == "gate":
        calls = workloads.gate_calls(args.workload, pairs, args.seed)
        out.update(attempted=len(calls), wrong=workloads.run_calls(calls))
    out["peak_rss_mib"] = _peak_rss_mib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
