"""Import-footprint guard: the runtime never loads scipy.

The binomial tails behind the availability analysis are computed in
``repro.analysis.phi`` with numpy alone; scipy is a test-only oracle
(the ``test`` extra). Loading it costs about 0.9 s and 77 MiB per
process, pool workers included, so the front door, the CLI, an
availability scenario, a majority quorum's availability and the exact
TRAP-ERC read are run in a fresh interpreter and its ``sys.modules`` is
checked afterwards.
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
from repro.analysis import exact_read_erc
from repro.api import SystemSpec, build_trapezoid_quorum, run_spec
from repro.quorum import MajoritySystem

spec = SystemSpec.from_json(open(sys.argv[1]).read())
records = run_spec(spec).data["records"]
majority = MajoritySystem(5)
p = np.array([0.5, 0.9])
quorum = build_trapezoid_quorum(spec.quorum)
print(json.dumps({
    "records": records,
    "majority": majority.write_availability(p).tolist(),
    "exact": exact_read_erc(quorum, spec.code.n, spec.code.k, 0.5).tolist(),
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
    # P(Bin(5, p) >= 3) is 1/2 at p = 1/2
    assert out["majority"][0] == 0.5
    # the scenario's exact column is exact_read_erc at p = 1/2
    (exact,) = [
        r["value"]
        for r in out["records"]
        if (r["p"], r["metric"], r["method"]) == (0.5, "read_erc", "exact")
    ]
    assert out["exact"] == exact == pytest.approx(0.56640625, abs=1e-15)
    assert out["scipy"] == []
