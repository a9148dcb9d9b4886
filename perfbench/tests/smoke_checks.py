"""The benchmark's own checks, run at minimal size with ``--smoke``.

    python3 -m pytest perfbench/tests/smoke_checks.py -q

The file name keeps it out of the repository's default test collection:
every check starts several processes, and the whole file takes a minute or
two. Scratch directories go under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = json.loads((BENCH / "spec.json").read_text())["named_metrics"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def _smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return _run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke", *extra)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    return result


def _scratch() -> Path:
    (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tests-", dir=ROOT / ".perfbench_runs"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if not trace:
        for named in NAMED:
            if workload in named["workloads"]:
                pattern = rf"^\s+{re.escape(named['name'])}\s+\S+\s+{re.escape(named['unit'])}\b"
                assert re.search(pattern, proc.stdout, re.MULTILINE), named["name"]


def test_corrupted_expected_digest_makes_failed_ratio_nonzero(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    expected = run.load_expected()
    expected["train-grid"]["scenario1.off-tab.seed0"] = "0" * 64
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    assert run.main(["--workload", "train-grid", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["failed"] >= 1 and not result["correct"]
    ratio = re.search(r"^\s+failed_ratio\s+(\S+)", out, re.MULTILINE)
    assert ratio and float(ratio.group(1)) > 0


def test_fails_without_the_program():
    bare = _scratch()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        for workload in WORKLOADS:
            proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            assert proc.returncode != 0
            assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_reference_scales_to_its_nominal_time(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import time

    import reference

    slept = reference.Reference(lambda: time.sleep(0.01), nominal_ms=20.0)
    _, elapsed, scaled = slept.timed(lambda: time.sleep(0.02))
    assert elapsed >= 20.0 and 25.0 < scaled < 55.0


def test_reference_work_does_not_run_the_program():
    code = (
        "import sys, reference; reference.KERNEL.ms(); reference.STARTUP.ms(); "
        "assert not [m for m in sys.modules if m.startswith('vnfcmap')]"
    )
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, timeout=120)
