"""Every shipped scenario's outputs against their recorded digests.

`data/shipped_digests.json` holds the sha256 of each output of each
`scenarios/*.yaml`, run at its shipped seed, and the Python, numpy and scipy
versions that made them. A change that alters an output on purpose rewrites
that file with the JSON this test prints on a mismatch.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from a2gnet.cli import run_scenario
from a2gnet.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "shipped_digests.json"


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def shipped_digests(out_dir: Path) -> dict:
    """{scenario file: {output file: sha256}} of every shipped scenario."""
    digests = {}
    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        outputs = run_scenario(load_scenario(path), out_dir / path.stem)
        digests[path.name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in sorted(outputs)}
    return digests


def test_shipped_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = shipped_digests(tmp_path)
    files = {(scenario, name)
             for tree in (recorded["outputs"], digests)
             for scenario, outputs in tree.items() for name in outputs}
    changed = [f"{scenario}: {name}" for scenario, name in sorted(files)
               if recorded["outputs"].get(scenario, {}).get(name)
               != digests.get(scenario, {}).get(name)]
    now = versions()
    drift = [f"{key} {recorded['versions'].get(key)} -> {value}"
             for key, value in now.items()
             if recorded["versions"].get(key) != value]
    assert not changed, (
        f"outputs differ from {DIGESTS.name}: {', '.join(changed)}; "
        f"versions: {', '.join(drift) or 'as recorded'}. If the change is "
        f"meant, write this to {DIGESTS.name}:\n"
        + json.dumps({**recorded, "versions": now, "outputs": digests},
                     indent=2, sort_keys=True))
