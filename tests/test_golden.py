"""Golden-hash replay: the tiny benchmark workloads must write the recorded bytes.

``bench/golden.json`` is read, never written.  Each ``tiny`` entry's
signature is the CLI argument list followed by ``cal_trials=N`` (or
``cal_trials=None``); a set value goes in through an INI ``[run]`` file,
as the benchmark harness does.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sensesim.cli import main

GOLDEN = json.loads((Path(__file__).parent.parent / "bench" / "golden.json").read_text())
SEED = 7


def _run(tmp_path: Path, signature: str, workers: int | None = None) -> dict:
    *args, cal = signature.split()
    key, _, value = cal.partition("=")
    assert key == "cal_trials"
    if workers is not None:
        args[args.index("--workers") + 1] = str(workers)
    out = tmp_path / "out"
    argv = [*args, "--seed", str(SEED), "--out", str(out)]
    if value != "None":
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\ncal_trials = {value}\n")
        argv += ["--config", str(ini)]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("workload", sorted(GOLDEN["tiny"]))
def test_tiny_workload_matches_golden_hashes(tmp_path, workload):
    entry = GOLDEN["tiny"][workload]
    assert _run(tmp_path, entry["signature"]) == entry["seeds"][str(SEED)]


def test_pmd_cubing_one_worker_matches_golden_hashes(tmp_path):
    entry = GOLDEN["tiny"]["pmd-cubing"]
    assert _run(tmp_path, entry["signature"], workers=1) == entry["seeds"][str(SEED)]
