"""Host-cost benchmark of the fleet simulator: one workload, one seed.

    python3 perfbench/run.py --workload storm --seed 0 --seconds 24 --trace 0

``--trace 0`` spends ``--seconds`` on repeated runs of the workload,
each in a fresh interpreter, and reports the median of every end-to-end
metric.  ``--trace 1`` makes one untraced and one traced run and reports
the per-layer split (see ``perfbench/README.md``).  Every run is checked
(pinned digest at the default seed, identical digests across runs,
``parallel`` == ``storm``, every vehicle's record quota, every attack
rejected); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402

#: Set-up samples per ``--trace 0`` run: each timed run gives one, and
#: set-up-only children top them up after the timed window.
SETUP_SAMPLES = 5
#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "host_ms_per_vehicle": "ms",
    "host_records_per_s": "records/s",
    "cpu_ms_per_vehicle": "ms",
    "peak_rss_mb": "MB",
    "sim_establish_p99_ms": "sim_ms",
    "sim_records_per_s": "records/sim_s",
}


def host_fingerprint() -> dict:
    """What the figures depend on, so results from two hosts compare."""
    from repro.backend import ec_accelerated
    from repro.fleet import parallel

    try:
        import cryptography
        from cryptography.hazmat.backends.openssl.backend import backend

        crypto = {
            "cryptography": cryptography.__version__,
            "openssl": backend.openssl_version_text(),
        }
    except ImportError:
        crypto = {"cryptography": None, "openssl": None}
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        **crypto,
        "ec_tier": (
            "ec_accelerated: OpenSSL"
            if ec_accelerated.OPENSSL_EC
            else "ec_accelerated: pure-Python fallback"
        ),
        "start_method": parallel._start_method(),
    }


def spawn(workload: str, seed: int, mode: str, spans: Path | None = None):
    """Run one child; ``(setup_s, result)``, either ``None`` on failure."""
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env["PYTHONHASHSEED"] = "0"
    setup_s = result = None
    start = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    ) as child:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            for line in child.stdout:
                if line == "ready\n":
                    setup_s = time.perf_counter() - start
                elif line.startswith("result "):
                    result = json.loads(line[len("result "):])
        finally:
            watchdog.cancel()
    if child.returncode != 0:
        result = None
    if result is None and mode != "setup":
        vehicles = workloads.WORKLOADS[workload].vehicles
        result = {
            "error": f"child exited {child.returncode}",
            "vehicles": vehicles,
        }
    return setup_s, result


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float):
    """``--trace 0``: repeated runs for ``seconds``; medians per metric.

    Returns ``(metrics, runs, problems)`` like :func:`trace`; each run is
    ``(workload, result, reference digest)``.
    """
    runs: list = []
    reference = workloads.pinned_digest(workload, seed)
    if workload == "parallel" and reference is None:
        # parallel must reproduce the serial storm digest bit for bit.
        _, serial = spawn("storm", seed, "run")
        runs.append(("storm", serial, None))
        reference = serial.get("digest")
    start = time.perf_counter()
    setups, reps = [], []
    while True:
        began = time.perf_counter()
        setup_s, result = spawn(workload, seed, "run")
        setups.append(setup_s)
        reps.append(result)
        if reference is None:
            reference = result.get("digest")
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")[0])
    runs += [(workload, r, reference) for r in reps]
    ok = [r for r in reps if r.get("error") is None]
    def median(of):
        return _median([of(r) for r in ok])

    def ms_per_vehicle(key):
        return median(lambda r: r[key] * 1e3 / r["vehicles"])

    metrics = {
        "setup_s": _median([s for s in setups if s is not None]),
        "host_ms_per_vehicle": ms_per_vehicle("wall_s"),
        "host_records_per_s": median(lambda r: r["records"] / r["wall_s"]),
        "cpu_ms_per_vehicle": ms_per_vehicle("cpu_s"),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "sim_establish_p99_ms": median(lambda r: r["sim_establish_p99_ms"]),
        "sim_records_per_s": median(lambda r: r["sim_records_per_s"]),
    }
    per_run = ", ".join(f"{r['wall_s'] * 1e3 / r['vehicles']:.3f}" for r in ok)
    print(
        f"# {len(reps)} timed runs (host_ms_per_vehicle {per_run}),"
        f" {len(setups)} set-up samples"
    )
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, runs, []


def trace(workload: str, seed: int) -> tuple[dict, list, list]:
    """``--trace 1``: one untraced and one traced run; per-layer split."""
    reference = workloads.pinned_digest(workload, seed)
    _, plain = spawn(workload, seed, "run")
    spans = ROOT / ".perfbench" / f"spans-{workload}"
    shutil.rmtree(spans, ignore_errors=True)
    spans.mkdir(parents=True)
    _, traced = spawn(workload, seed, "trace", spans)
    if reference is None:
        reference = plain.get("digest")
    runs = [(workload, plain, reference), (workload, traced, reference)]
    if plain.get("error") is not None or traced.get("error") is not None:
        return {}, runs, ["a run failed; no per-layer split"]
    config, _ = workloads.build(workload, seed)
    tables = tracer.merge_tables(
        [
            tracer.process_tables(_load(path))
            for path in sorted(spans.glob("*.pkl"))
        ]
    )
    values = tracer.layer_metrics(
        tables,
        vehicles=plain["vehicles"],
        records=plain["records"],
        ca_batch_limit=config.ca_batch_limit,
        wall_s=plain["wall_s"],
        traced_wall_s=traced["wall_s"],
    )
    problems = tracer.integrity(tables)
    if workload in ("storm", "records") and (
        values["obs.hook_calls"] or values["obs.self_ms"]
    ):
        problems.append("telemetry is off but obs.* spans were recorded")
    units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
    return {k: (v, units[k]) for k, v in values.items()}, runs, problems


def _load(path: Path) -> dict:
    # The spans were written by this benchmark's own child processes.
    with open(path, "rb") as handle:
        return pickle.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS), required=True
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    host = host_fingerprint()
    print("# host " + json.dumps(host, sort_keys=True))
    if args.trace:
        metrics, runs, problems = trace(args.workload, args.seed)
    else:
        metrics, runs, problems = measure(
            args.workload, args.seed, args.seconds
        )
    attempted = sum(r["vehicles"] for _, r, _ in runs)
    failed = sum(workloads.failed_vehicles(w, r, ref) for w, r, ref in runs)
    for w, r, ref in runs:
        if r.get("error") is not None:
            problems.append(f"{w} run failed: {r['error']}")
        elif ref is not None and r["digest"] != ref:
            problems.append(f"{w} digest {r['digest'][:12]} != {ref[:12]}")
    print(
        f"# failed_frac {failed / attempted:.6f}"
        f" ({failed}/{attempted} vehicle-runs)"
    )
    for problem in problems:
        print(f"# FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<38s} {value:14.6f} {unit}")
    correct = failed == 0 and not problems and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
