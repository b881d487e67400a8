"""The deterministic work counters pinned in golden_counters.json.

Chain shapes come from the in-process groups; the call counts come from
`benchmarks/probe.py`, run as the benchmark runs it, so a refactor that
breaks a name the probe rebinds fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

from cubegal.cubes import cube_model

_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_counters.json").read_text())


def test_counters_equal_the_golden_ones(tmp_path):
    for size, want in _GOLDEN["chains_seed_1"].items():
        group = cube_model(int(size)).group(seed=1)
        got = {"base_len": len(group.base), "strong_gens": len(group.strong_generators),
               "transversal_pts": sum(group.basic_orbit_sizes)}
        assert got == want, f"cube {size}"
    for run in _GOLDEN["probe_runs"]:
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(run.get("poly")), encoding="utf-8")
        out = tmp_path / "counts.json"
        argv = [arg.replace("{poly}", str(poly)) for arg in run["argv"]]
        subprocess.run([sys.executable, str(_ROOT / "benchmarks" / "probe.py"), "--spans", "0",
                        "--out", str(out), "--", *argv],
                       cwd=_ROOT, check=True, capture_output=True)
        assert json.loads(out.read_text())["counts"] == run["counts"], run["argv"]
