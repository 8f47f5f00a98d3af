"""Correctness-gated benchmark for dcubed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the library and the CLI in ``src/`` from outside, checks every
output, and prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` the layers are wrapped and the metrics are the per-layer
ones.  A full record of the run (machine, seed, every raw value) is
written under ``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import LAUNCH_REFERENCE_S, SpeedReference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def _stat(layer, index):
    return (layer,), lambda t: t.stats[layer][index]


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, layers whose hooks it needs, value from the tracer)
PER_LAYER = {
    "scalar.ops": ("count", *_stat("scalar", 0)),
    "scalar.busy_s": ("s", *_stat("scalar", 1)),
    "freealg.ops": ("count", *_stat("freealg", 0)),
    "freealg.busy_s": ("s", *_stat("freealg", 1)),
    "bimodule.push.calls": ("count", *_stat("bimodule.push", 0)),
    "bimodule.push.self_s": ("s", *_stat("bimodule.push", 1)),
    "tensoralg.push_through.calls": ("count", *_stat("tensoralg.push_through", 0)),
    "tensoralg.push_through.self_s": ("s", *_stat("tensoralg.push_through", 1)),
    "tensoralg.tensor_mul.calls": ("count", *_stat("tensoralg.tensor_mul", 0)),
    "tensoralg.tensor_mul.self_s": ("s", *_stat("tensoralg.tensor_mul", 1)),
    "calculus.gradient.calls": ("count", *_stat("calculus.gradient", 0)),
    "calculus.gradient.self_s": ("s", *_stat("calculus.gradient", 1)),
    "differential.d.calls": ("count", *_stat("differential.d", 0)),
    "differential.d.self_s": ("s", *_stat("differential.d", 1)),
    "ideal.membership.calls": ("count", *_stat("ideal.membership", 0)),
    "ideal.membership.self_s": ("s", *_stat("ideal.membership", 1)),
    "ideal.fastpath_hits": ("count", ("ideal.fastpath",), lambda t: t.fastpath_hits),
    "ideal.fastpath.self_s": ("s", *_stat("ideal.fastpath", 1)),
    "ideal.system.calls": ("count", *_stat("ideal.system", 0)),
    "ideal.system.builds": ("count", ("ideal.system",), lambda t: t.builds),
    "ideal.system.hit_ratio": ("ratio", ("ideal.system",), lambda t: _ratio(
        t.stats["ideal.system"][0] - t.builds, t.stats["ideal.system"][0])),
    "ideal.enumerate.self_s": ("s", *_stat("ideal.system", 1)),
    "ideal.enumerate.total_s": ("s", ("ideal.system", "ideal.eliminate"), lambda t: (
        t.stats["ideal.system"][2] - t.stats["ideal.eliminate"][2])),
    "ideal.columns": ("count", *_stat("ideal.eliminate", 0)),
    "ideal.rank": ("count", ("ideal.eliminate",), lambda t: t.rank),
    "ideal.rank_ratio": ("ratio", ("ideal.eliminate",), lambda t: _ratio(
        t.rank, t.stats["ideal.eliminate"][0])),
    "ideal.eliminate.self_s": ("s", *_stat("ideal.eliminate", 1)),
    "ideal.eliminate.total_s": ("s", *_stat("ideal.eliminate", 2)),
    "ideal.express.calls": ("count", *_stat("ideal.express", 0)),
    "ideal.express.self_s": ("s", *_stat("ideal.express", 1)),
    "verify.run_suite.self_s": ("s", *_stat("verify.run_suite", 1)),
    "parsing.parse.self_s": ("s", *_stat("parsing.parse", 1)),
    "parsing.format.self_s": ("s", *_stat("parsing.format", 1)),
    "config.build_map.self_s": ("s", *_stat("config.build_map", 1)),
    "cli.main.self_s": ("s", *_stat("cli.main", 1)),
}


def percentile(values, share):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def _launch(argv):
    """Seconds from starting a process until it prints its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[-2:]} failed (exit {proc.returncode})")
    return took


def measure_setup(workload, count):
    """(set-up seconds at reference launch speed, probe samples, bare samples).

    A probe is a fresh interpreter that imports dcubed, builds the
    workload's first objects and reports ready.  Each probe is paired with
    a bare interpreter launch; the bare launches measure how fast this
    machine starts processes right now, the way the speed reference does
    for operations.  Both skip ``site``, so the installed packages' start-up
    hooks are not counted.
    """
    probe = [sys.executable, "-E", "-S", str(HERE / "probe.py"), str(SRC), workload]
    bare = [sys.executable, "-E", "-S", "-c", "print('ready', flush=True)"]
    probes, bares = [], []
    for _ in range(count):
        bares.append(_launch(bare))
        probes.append(_launch(probe))
    scaled = statistics.median(probes) * LAUNCH_REFERENCE_S / statistics.median(bares)
    return scaled, probes, bares


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "dcubed").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record():
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "python_flint_present": importlib.util.find_spec("flint") is not None,
    }


def end_to_end_metrics(latencies, setup_s, attempted, failed):
    ms = [1000.0 * t for t in latencies]
    values = {
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": percentile(ms, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(tracer, elapsed, overhead):
    out = {}
    for name, (unit, layers, value) in PER_LAYER.items():
        if all(layer in tracer.hooked for layer in layers):
            out[name] = {"value": value(tracer), "unit": unit}
    out["trace.overhead_ratio"] = {"value": _ratio(overhead, elapsed - overhead),
                                   "unit": "ratio"}
    out["trace.elapsed_s"] = {"value": elapsed, "unit": "s"}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-suite", "member-bounded", "diff-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dcubed" / "__init__.py").is_file():
        print(f"error: no dcubed sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcubed
    if Path(dcubed.__file__).resolve().parent != SRC / "dcubed":
        print(f"error: imported dcubed from {dcubed.__file__}", file=sys.stderr)
        return 2
    import dcubed.cli  # noqa: F401  (bind the CLI's names before hooking)
    from workloads import WORKLOADS

    tiny = args.size == "tiny"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "machine": machine_record(),
              "load": "closed loop, one client, one thread"}
    tracer = speed = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        costs = tracer.calibrate()
    else:
        setup_s, probes, bares = measure_setup(args.workload, 3 if tiny else SETUP_PROBES)
        record["setup"] = {"probe_samples_s": probes, "bare_launch_samples_s": bares}
        speed = SpeedReference()

    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tiny, tracer, speed)
    attempted = len(outcome.latencies)
    elapsed = sum(outcome.latencies)
    if tracer is not None:
        tracer.uninstall()
        overhead = tracer.overhead_s(costs)
        metrics = per_layer_metrics(tracer, elapsed, overhead)
        record["trace_detail"] = {
            "wrapper_cost_s": {"aggregate": costs[0], "span": costs[1]},
            "estimated_overhead_s": overhead,
            "hooked_layers": sorted(tracer.hooked),
            "system_shapes": sorted([list(s) for s in tracer.shapes],
                                    key=lambda s: [str(v) for v in s]),
            "layers": {layer: {"calls": c, "self_s": s, "total_s": t}
                       for layer, (c, s, t) in sorted(tracer.stats.items())},
        }
    else:
        scaled = speed.scale(outcome.latencies)
        metrics = end_to_end_metrics(scaled, setup_s, attempted, outcome.failed)
        record["speed_reference"] = {
            "mean_factor": sum(scaled) / elapsed,
            "samples_s": speed.samples, "ops_per_sample": speed.counts,
            "unscaled_metrics": end_to_end_metrics(outcome.latencies,
                                                   statistics.median(probes),
                                                   attempted, outcome.failed),
        }
    correct = outcome.failed == 0 and not outcome.errors
    record.update({
        "correct": correct, "attempted": attempted, "failed": outcome.failed,
        "errors": outcome.errors, "details": outcome.details,
        "measured_s": elapsed,
        "latencies_s": outcome.latencies, "metrics": metrics,
    })
    path = ROOT / ".perfbench" / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                  f"{'-tiny' if tiny else ''}.json")
    try:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record: {path.relative_to(ROOT)}")
    except OSError as err:
        print(f"warning: run record not written: {err}", file=sys.stderr)

    print(f"{args.workload}: {attempted} ops, {outcome.failed} failed, "
          f"{elapsed:.2f} s measured")
    for note in outcome.errors[:5]:
        print(f"  failure: {note}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
