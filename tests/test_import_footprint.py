"""Import-footprint guard: the runtime never loads scipy.

The binomial tails behind the availability analysis are computed in
``repro.analysis.phi`` with numpy alone; scipy is a test-only oracle
(the ``test`` extra). Loading it costs about 0.9 s and 77 MiB per
process, pool workers included, so the front door, the CLI, an
availability scenario and a majority quorum's availability are run in
a fresh interpreter and its ``sys.modules`` is checked afterwards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json, sys
import numpy as np
import repro, repro.api, repro.cli
from repro.analysis import exact_availability
from repro.api import SystemSpec, run_spec
from repro.quorum import MajoritySystem

spec = SystemSpec.from_json(open(sys.argv[1]).read())
records = run_spec(spec).data["records"]
majority = MajoritySystem(5)
p = np.array([0.5, 0.9])
print(json.dumps({
    "records": len(records),
    "majority": majority.write_availability(p).tolist(),
    "exact": exact_availability(majority, p).tolist(),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_runtime_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    scenario = ROOT / "tests" / "scenarios" / "availability.json"
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(scenario)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    out = json.loads(done.stdout)
    assert out["records"] > 0
    # P(Bin(5, p) >= 3): 1/2 at p = 1/2, and the closed form agrees
    # with the occupancy engine.
    assert out["majority"][0] == 0.5
    assert out["majority"] == pytest.approx(out["exact"], abs=1e-15)
    assert out["scipy"] == []
