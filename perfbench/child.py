"""One fleet run in a fresh interpreter; ``perfbench/run.py`` spawns it.

    python3 -m perfbench.child --workload storm --seed 0 --mode run

The child builds the workload's orchestrator and prints ``ready`` (the
parent times set-up from spawn to that line).  ``--mode setup`` stops
there; ``run`` and ``trace`` then call ``run()`` and print one
``result <json>`` line: the checked outcome plus wall time, CPU time of
the process and its children during ``run()``, and peak RSS.  ``trace``
wraps every layer first (:mod:`perfbench.tracer`) and writes the spans
to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
import traceback


def _usage() -> tuple[float, int]:
    """CPU seconds and peak RSS (KiB) of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, max(own.ru_maxrss, children.ru_maxrss)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "run", "trace"), required=True
    )
    parser.add_argument("--vehicles", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from perfbench import workloads

    tracer = None
    with contextlib.ExitStack() as scope:
        if args.mode == "trace":
            from perfbench import tracer as tracing
            from repro import trace as cost_trace

            tracer = tracing.Tracer()
            undo = tracing.install(tracer, args.spans)
            scope.callback(tracing.uninstall, undo)
            cost = scope.enter_context(cost_trace.trace())
        from repro.fleet import FleetOrchestrator

        def setup():
            config, scenario = workloads.build(
                args.workload, args.seed, args.vehicles
            )
            return FleetOrchestrator(config, scenario)

        if tracer is not None:
            setup = tracer.wrap(setup, tracing.SETUP_SPAN)
        orch = setup()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        run = orch.run
        if tracer is not None:
            run = tracer.wrap(run, tracing.RUN_SPAN)
        error = None
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a failed run is reported, not fatal
            traceback.print_exc()
            error = repr(exc)
        else:
            wall_s = time.perf_counter() - t0
            cpu1, peak_kib = _usage()
        if tracer is not None:
            tracer.cost = dict(cost.counts)
    if tracer is not None:
        tracer.dump(f"{args.spans}/main.pkl")
    if error is None:
        out = workloads.outcome(orch, result)
        out.update(
            wall_s=wall_s, cpu_s=cpu1 - cpu0, peak_rss_mb=peak_kib / 1024
        )
    else:
        out = {"error": error, "vehicles": orch.config.n_vehicles}
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
