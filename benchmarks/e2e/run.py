"""End-to-end wall-clock benchmark of ChronicleDB over the binary wire.

    python3 benchmarks/e2e/run.py --workload bulk_inorder --seed 1 \
        --seconds 16 --trace 0

``--trace 0`` runs the six-phase scenario untraced and prints the 11
end-to-end metrics; ``--trace 1`` runs it at a quarter of the scale
twice — once untraced (the generator's own stopwatch, ``client.*``),
once with ``tracer.py`` installed in both processes — and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any operation failed or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable however this file
    was started (as a script or with ``-m``)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"benchmarks/e2e: no program to measure at {SRC}/repro")
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _emit(names, values, attempted: int, failed: int) -> dict:
    """Print every metric by name and unit; build the result object
    from exactly the metrics the contract lists in *names*."""
    metrics = {}
    for name, unit, *_ in names:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:48s} {value:16.6f} {unit}")
    listed = {name for name, *_ in names}
    for name in sorted(set(values) - listed):
        # Context beside the contract's metrics (raw values, tails).
        print(f"{name:48s} {float(values[name]):16.6f}")
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 log=None) -> dict:
    """One benchmark run; returns the result object (see module doc)."""
    from benchmarks.e2e import inputs as gen
    from benchmarks.e2e import params as P
    from benchmarks.e2e.scenario import Scenario, pinning

    log = log or (lambda message: print(f"# {message}", file=sys.stderr))
    gen_cpu, _ = pinning()
    if gen_cpu is not None:
        os.sched_setaffinity(0, {gen_cpu})
    scale = seconds / P.REF_SECONDS
    if trace:
        scale /= P.TRACE_SCALE_DIVISOR
    data = gen.generate(workload, scale, seed)
    log(f"{workload}: seed {seed}, scale {scale:.4f}, "
        f"{data.n_total} events, {len(data.queries)} probe queries")
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        if not trace:
            scenario = Scenario(data, log=log)
            scenario.run()
            for failure in scenario.failures:
                log(f"FAILED: {failure}")
            return _emit(P.END_TO_END, scenario.out, scenario.attempted,
                         scenario.failed)
        from benchmarks.e2e import layers

        values, attempted, failed = layers.traced_run(data, log)
        return _emit(P.PER_LAYER, values, attempted, failed)
    finally:
        gc.enable()
        gc.unfreeze()


def main(argv=None) -> int:
    _bootstrap()
    from benchmarks.e2e import params as P

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(P.WORKLOADS))
    parser.add_argument("--seed", type=int, default=P.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=P.REF_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at --seconds {P.SMOKE_SECONDS}, "
                             "untraced and traced")
    args = parser.parse_args(argv)
    if args.smoke:
        # One process per run, as the driver does it (the tracer patches
        # classes for the life of its process).
        import subprocess

        status = 0
        for workload in P.WORKLOADS:
            for trace in (0, 1):
                seconds = P.SMOKE_SECONDS * (
                    P.TRACE_SCALE_DIVISOR if trace else 1
                )
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True,
                )
                sys.stderr.write(done.stderr)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"# smoke: {workload} --trace {trace} failed "
                          f"({done.returncode})", file=sys.stderr)
                    status = 1
                    continue
                print(json.dumps({"workload": workload, "trace": trace,
                                  **json.loads(lines[-1])}))
        return status
    if args.workload is None:
        parser.error("--workload is required (or use --smoke)")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
