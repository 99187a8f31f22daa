#!/usr/bin/env python3
"""a2gnet benchmark: study time, set-up time, memory and output correctness.

Run from the repository root:

    python3 bench/run.py --workload aue_mc --seed 1 --seconds 20 --trace 0

The run generates the workload's scenarios from the seed, times set-up in
fresh interpreters, then repeats the studies through `cli.run_scenario`
(threads=1) until --seconds have passed, checking every output row after
each repetition; study times are scaled to a reference machine speed
(speed.py). The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1. The lines before it
give each metric with its spread and a record of the machine. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

# Fresh interpreters timed for setup_s, after one untimed one that compiles
# the bytecode cache.
SETUP_REPS = 4

# Runs in a fresh interpreter: times importing the package and parsing the
# scenarios (JSON list on stdin), prints both times as JSON.
_SETUP_CHILD = r"""
import json, sys, time
texts = json.load(sys.stdin)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import a2gnet, a2gnet.cli
from a2gnet.scenario import parse_scenario
t1 = time.perf_counter()
for text in texts:
    parse_scenario(text)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                  "package": a2gnet.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def _check_sources():
    if not (SRC / "a2gnet" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC / 'a2gnet'}")


def measure_setup(texts, reps: int):
    """(import + parse s, import s), one pair per fresh interpreter."""
    samples = []
    for i in range(reps + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            input=json.dumps(texts), capture_output=True, text=True,
            timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(sample["package"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported a2gnet from {sample['package']}")
        if i > 0:
            samples.append((sample["import_s"] + sample["parse_s"],
                            sample["import_s"]))
    return samples


def load_package():
    """Import a2gnet from this checkout's sources."""
    _check_sources()
    sys.path.insert(0, str(SRC))
    import a2gnet
    import a2gnet.cli
    import a2gnet.scenario
    if not Path(a2gnet.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported a2gnet from {a2gnet.__file__}")
    return a2gnet


def run_studies(pkg, scenarios, out_root: Path):
    """(study seconds, {label: written paths or None}) of one repetition."""
    total = 0.0
    outputs = {}
    for label, s in scenarios:
        out = out_root / label
        shutil.rmtree(out, ignore_errors=True)
        t0 = perf_counter()
        try:
            paths = pkg.cli.run_scenario(s, out, threads=1)
        except Exception:  # a study that raises fails its points; the run goes on
            traceback.print_exc(file=sys.stderr)
            paths = None
        total += perf_counter() - t0
        outputs[label] = paths
    return total, outputs


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload, seed):
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def _spread(values):
    """{median, q1, q3, n} of the samples."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "bench", setup_reps: int = SETUP_REPS, reference=None):
    """Measure one workload; returns {'final': last-line object, 'record': ...}.

    reference: {'<label>/<file>': lines}; by default the rows recorded for
    this seed under bench/reference, or none for other seeds and sizes.
    """
    _check_sources()
    texts = workloads.scenario_texts(workload, seed, size)
    setup = measure_setup([t for _, t in texts], setup_reps)
    pkg = load_package()
    scenarios = [(label, pkg.scenario.parse_scenario(text)) for label, text in texts]
    seed_free = workload in workloads.SEED_FREE
    if reference is None and size == "bench":
        reference = checks.load_reference(workload, seed, seed_free)

    tracer = tracing.Tracer() if trace else None
    # (wall s, kernel s) per repetition; the kernel time is the mean of the
    # kernel runs just before and just after the repetition.
    plain, traced, layer_reps = [], [], []
    points = misses = 0
    out_root = OUT / f"run-{os.getpid()}"
    deadline = perf_counter() + seconds
    kernel_before = speed.kernel_s(5)
    try:
        while True:
            if trace and len(traced) < len(plain):
                patches = tracing.install(tracer)
                try:
                    rep_scenarios = [(label, pkg.scenario.parse_scenario(text))
                                     for label, text in texts]
                    study_s, outputs = run_studies(pkg, rep_scenarios, out_root)
                finally:
                    tracing.uninstall(patches)
                layer_reps.append(tracer.end_rep())
                samples = traced
            else:
                study_s, outputs = run_studies(pkg, scenarios, out_root)
                samples = plain
            kernel_after = speed.kernel_s(5)
            samples.append((study_s, (kernel_before + kernel_after) / 2))
            kernel_before = kernel_after
            n, bad = checks.check_rep(scenarios, outputs, reference)
            points += n
            misses += bad
            if perf_counter() >= deadline and (not trace or traced):
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_frac = misses / points if points else 1.0
    spreads = {
        "study_s": _spread([_scaled(*x) for x in plain]),
        "study_wall_s": _spread([wall for wall, _ in plain]),
        "setup_s": _spread([total for total, _ in setup]),
        "speed_factor": _spread([speed.REFERENCE_S / k for _, k in plain]),
    }
    if trace:
        spreads["traced_study_s"] = _spread([_scaled(*x) for x in traced])
        metrics = _layer_metrics(layer_reps)
        metrics["setup.import_s"] = (statistics.median(imp for _, imp in setup), "s")
        metrics["trace.overhead_frac"] = (
            spreads["traced_study_s"]["median"] / spreads["study_s"]["median"] - 1.0,
            "fraction")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-{seed}.csv")
    else:
        metrics = {
            "study_s": (spreads["study_s"]["median"], "s"),
            "setup_s": (spreads["setup_s"]["median"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": (1.0 - failed_frac, "fraction"),
        }
    record = {
        "machine": machine_facts(workload, seed),
        "size": size,
        "check": ("reference rows" if reference is not None else
                  f"partial: invariants only, no reference rows for seed {seed}"),
        "seed_ignored": seed_free,
        "failed_frac": failed_frac,
        "spread": spreads,
    }
    if trace:
        record["counts_repeat"] = all(
            {k: v for k, v in rep.items() if not k.endswith("_s")} ==
            {k: v for k, v in layer_reps[0].items() if not k.endswith("_s")}
            for rep in layer_reps)
    final = {"correct": misses == 0, "attempted": points, "failed": misses,
             "metrics": {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}}
    return {"final": final, "record": record}


def _scaled(wall_s: float, kernel_s: float) -> float:
    """Wall seconds at the reference machine speed (see speed.py)."""
    return wall_s * speed.REFERENCE_S / kernel_s


_LAYER_UNITS = {
    "sites_per_snapshot": "sites", "starts_per_solve": "starts/solve",
    "los_dup_ratio": "calls/ray", "los_clear_frac": "fraction",
    "bytes": "B", "csv_bytes": "B",
}


def _layer_metrics(layer_reps):
    """Per-layer metrics: counts of the first traced repetition (they repeat
    exactly), times as medians over traced repetitions."""
    out = {}
    for name, value in layer_reps[0].items():
        suffix = name.rsplit(".", 1)[-1]
        if suffix == "self_s":
            out[name] = (statistics.median(r[name] for r in layer_reps), "s")
        else:
            out[name] = (value, _LAYER_UNITS.get(suffix, "count"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    final, record = result["final"], result["record"]
    if record["seed_ignored"]:
        print(f"workload {args.workload} has no random input: "
              f"--seed {args.seed} is ignored")
    print(f"check: {record['check']}; {final['failed']} of {final['attempted']} "
          f"points failed (failed_frac {record['failed_frac']:.6g})")
    for name, s in record["spread"].items():
        print(f"{name}: median {s['median']:.6g}, quartiles "
              f"{s['q1']:.6g}..{s['q3']:.6g} over {s['n']} samples")
    for name, m in final["metrics"].items():
        print(f"{name} = {m['value']:.9g} {m['unit']}")
    print("record " + json.dumps(record))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
