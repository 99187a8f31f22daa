#!/usr/bin/env python3
"""Record the reference output rows that bench/run.py checks against.

Run from the repository root, on a commit whose outputs are known good:

    python3 bench/record_references.py [WORKLOAD ...]

Writes bench/reference/<workload>.json with every output line of one
repetition for each reference seed: the seed of the shipped scenario the
workload mirrors, plus seeds 0-15. Seed-free workloads are recorded once.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

REFERENCE_SEEDS = range(16)


def output_lines(pkg, workload: str, seed: int, size: str = "bench") -> dict:
    """{'<label>/<file>': lines} written by one repetition."""
    texts = workloads.scenario_texts(workload, seed, size)
    scenarios = [(label, pkg.scenario.parse_scenario(text)) for label, text in texts]
    out_root = run.OUT / "record"
    try:
        _, outputs = run.run_studies(pkg, scenarios, out_root)
        lines = {}
        for label, paths in outputs.items():
            if paths is None:
                raise RuntimeError(f"{workload} seed {seed}: {label} raised")
            for p in paths:
                lines[f"{label}/{p.name}"] = checks.read_lines(p)
        return lines
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or workloads.WORKLOADS
    pkg = run.load_package()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names:
        if workload in workloads.SEED_FREE:
            seeds = {"any": 0}
        else:
            chosen = sorted({*REFERENCE_SEEDS, workloads.SHIPPED_SEEDS[workload]})
            seeds = {str(s): s for s in chosen}
        doc = {"workload": workload,
               "seeds": {key: output_lines(pkg, workload, seed)
                         for key, seed in seeds.items()}}
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{path}: seeds {', '.join(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
