"""Benchmark of lorentz-gauge: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload broken-mink --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # every workload, each in a fresh process

One run sets up the program (import plus fixture construction), then
repeats whole rounds of a fixed, seeded set of work, each with fresh
caches, until --seconds have passed.  Throughput and CPU time per item
come from the round cost: each operation of the round at the slowest of
its times across the run's rounds (``op_cost``).  setup_s is the median
of the run's own set-up and SETUP_PROBES more, spread over the run.
The outputs of the first round are checked against computations made
apart from the program, and every later round must reproduce them
exactly.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 1 the
metrics are the per-layer ones and a trace file is written to
bench/out/.  See bench/README.md.
"""

import os

# One BLAS thread: the program's matrices are 2x2, so worker threads only
# add wake-ups and scheduling noise.  Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("broken-mink", "reconstruct-mink", "interaction-mink", "broken-warped")
# Extra set-up samples, each in a fresh interpreter, taken after each of
# the first rounds (the rest after the last round), so they are spread
# over the run and meet the machine in the states the rounds meet; with
# the run's own set-up they give the median reported as setup_s.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


class ProgramMissing(Exception):
    """The checkout holds no lorentz_gauge package to benchmark."""


def import_program():
    """Import lorentz_gauge from this checkout's src/ and nowhere else."""
    if not (SRC / "lorentz_gauge" / "__init__.py").is_file():
        raise ProgramMissing(f"no lorentz_gauge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lorentz_gauge  # noqa: F401
    from lorentz_gauge import (config, errors, gauge, geometry, linalg,  # noqa: F401
                               reconstruction, symcalc, transport)

    if Path(lorentz_gauge.__file__).resolve().parent != (SRC / "lorentz_gauge").resolve():
        raise ProgramMissing(f"lorentz_gauge was imported from {lorentz_gauge.__file__}")
    return lorentz_gauge


def set_up(name, seed, tracer_factory=None):
    """Time import plus fixture construction; return (seconds, lg, objs, tracer)."""
    start = time.perf_counter()
    lg = import_program()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory(lg)
    import fixture

    objs = fixture.build(lg, name, seed)
    return time.perf_counter() - start, lg, objs, tracer


def probe_setup(name, seed):
    """One set-up sample from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def flatten(obj, out):
    """Every number reachable through containers and dataclass fields."""
    import dataclasses

    import numpy as np  # not at the top: numpy must load inside the timed set-up

    if isinstance(obj, np.ndarray):
        out.append(obj.astype(complex).ravel())
    elif isinstance(obj, (bool, int, float, complex, np.number)):
        out.append(np.array([obj], complex))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            flatten(item, out)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            flatten(obj[key], out)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            flatten(getattr(obj, f.name), out)
    return out


def same_outputs(a, b):
    import numpy as np

    fa, fb = flatten(a, []), flatten(b, [])
    return len(fa) == len(fb) and all(
        x.shape == y.shape and np.array_equal(x, y, equal_nan=True) for x, y in zip(fa, fb))


def run_round(workload, errors, tracer=None):
    """One round: every operation timed on its own (wall and process CPU)."""
    record = {"items": 0, "failed": 0, "outputs": [], "op_wall": [], "op_cpu": []}
    for items, op in workload.round():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        span = tracer.enter("bench.op") if tracer else None
        try:
            output, failed = op()
        except errors:
            output, failed = None, items
        finally:
            if tracer:
                tracer.leave("bench.op", span)
        record["op_wall"].append(time.perf_counter() - wall0)
        record["op_cpu"].append(time.process_time() - cpu0)
        record["outputs"].append(output)
        record["items"] += items
        record["failed"] += failed
    return record


def run_rounds(workload, errors, seconds, rounds, tracer=None, between=None):
    """Whole rounds until they have taken `seconds` (at least one).

    `between()` runs after each round; its time does not count.
    """
    spent = 0.0
    while True:
        start = time.perf_counter()
        rounds.append(run_round(workload, errors, tracer))
        spent += time.perf_counter() - start
        r = rounds[-1]
        print(f"round {len(rounds)}: {r['items']} items, {r['failed']} failed, "
              f"{sum(r['op_wall']):.3f} s wall, {sum(r['op_cpu']):.3f} s cpu", flush=True)
        if between is not None:
            between()
        if spent >= seconds:
            return rounds


def op_cost(rounds, key):
    """Cost of one round: each operation at the slowest of its times.

    Speed on this kind of shared host switches between a contended state
    and a faster one that comes and goes; the slowest sample of each
    operation lands on the contended state, which nearly every run sees
    (bench/README.md has the measurements behind this choice).
    """
    return sum(max(samples) for samples in zip(*(r[key] for r in rounds)))


def run_workload(name, seed, seconds, trace):
    import_tracer = None
    if trace:
        import tracing

        def import_tracer(lg):
            tracer = tracing.Tracer()
            tracing.install_setup(tracer, lg)
            return tracer

    setup_s, lg, objs, setup_tracer = set_up(name, seed, import_tracer)
    setup_report = None
    if setup_tracer is not None:
        setup_report = setup_tracer.report()
        setup_tracer.uninstall()
    setup_samples = [setup_s]

    def probe():
        if len(setup_samples) <= SETUP_PROBES:
            setup_samples.append(probe_setup(name, seed))

    import workloads

    workload = workloads.WORKLOADS[name](lg, objs, seed)
    errors = workloads.program_errors(lg)
    rounds = []
    trace_info = None
    if not trace:
        run_rounds(workload, errors, seconds, rounds, between=probe)
        while len(setup_samples) <= SETUP_PROBES:
            probe()
    else:
        # after one warm-up round, traced and untraced rounds alternate, so
        # drift in machine speed hits both sides of the overhead estimate
        start = time.perf_counter()
        run_rounds(workload, errors, 0.0, rounds)
        tracer = tracing.Tracer()
        traced, untraced = [], []
        while not traced or time.perf_counter() - start < seconds:
            tracing.install_layers(tracer, lg)
            traced += run_rounds(workload, errors, 0.0, rounds, tracer)[-1:]
            tracer.uninstall()
            untraced += run_rounds(workload, errors, 0.0, rounds)[-1:]
        items = sum(r["items"] for r in traced)
        report = tracer.report()
        untraced_s, traced_s = op_cost(untraced, "op_wall"), op_cost(traced, "op_wall")
        trace_info = {
            "per_layer": tracing.per_layer_metrics(report, items, setup_report),
            "overhead": traced_s / untraced_s - 1.0,
            "untraced_round_s": untraced_s,
            "traced_round_s": traced_s,
            "items": items,
            "report": report,
            "setup_report": setup_report,
        }

    # high-water mark of set-up and rounds, before the checks allocate
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = workload.check(rounds[0]["outputs"])
    identical = all(same_outputs(rounds[0]["outputs"], r["outputs"]) for r in rounds[1:])
    checks.append({"name": "rounds_reproduce_first_round", "value": 0.0 if identical else 1.0,
                   "threshold": 0.5, "pass": identical})
    correct = all(c["pass"] for c in checks)
    for c in checks:
        status = "ok" if c["pass"] else "FAILED"
        print(f"check {c['name']}: {c['value']:.3e} <= {c['threshold']:.1e} {status}",
              flush=True)

    attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    body = {"workload": name, "seed": seed, "seconds": seconds, "checks": checks,
            "attempted": attempted, "failed": failed, "setup_samples_s": setup_samples,
            "op_wall_s": [r["op_wall"] for r in rounds], "op_cpu_s": [r["op_cpu"] for r in rounds]}
    OUT.mkdir(exist_ok=True)
    if trace:
        metrics = trace_info["per_layer"]
        path = OUT / f"trace-{name}-seed{seed}.json"
        body.update(trace_info)
        print(f"trace: {path} (overhead {100 * trace_info['overhead']:.1f}% "
              f"against an untraced round)", flush=True)
    else:
        path = OUT / f"run-{name}-seed{seed}.json"
        items = rounds[0]["items"]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "items_per_s": {"value": items / op_cost(rounds, "op_wall"), "unit": "1/s"},
            "cpu_ms_per_item": {"value": 1e3 * op_cost(rounds, "op_cpu") / items,
                                "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        body["metrics"] = metrics
    path.write_text(json.dumps(body, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own fresh interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}", flush=True)
    print(json.dumps({"workloads": results}, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, each in a "
                             "fresh process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(set_up(args.workload, args.seed)[0]))
        elif args.workload is None:
            run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result, sort_keys=True))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
