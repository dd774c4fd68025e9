"""``scripts/bench_pair.py``: two trees, one workload, one process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_against_itself_is_identical_on_every_kind():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pair.py"), "--src", str(ROOT / "src"),
         "--parent", str(ROOT / "src"), "--workload", "structure", "--seed", "1", "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["workload"] == "structure" and record["rounds"] == 1
    kinds = record["kinds"]
    assert set(kinds) == {"analyze_float", "analyze_rational", "maxsum", "all"}
    assert sum(kinds[k]["ops"] for k in kinds if k != "all") == kinds["all"]["ops"] > 0
    for row in kinds.values():
        assert row["identical"]
        assert row["change_least_s"] > 0 and row["parent_least_s"] > 0
    lines = proc.stdout.splitlines()[1:-1]
    assert len(lines) == len(kinds) and all(line.endswith("identical") for line in lines)
