"""Paths, statistics, digests, child processes and the run record shared by
every workload."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
SPEC = json.loads((HERE / "spec.json").read_text())
EXPECTED_PATH = HERE / "expected.json"

# Longest a single child program may run before the benchmark kills it.
CHILD_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, for example because the program is missing."""


def require_source() -> None:
    if not (SRC / "vnfcmap" / "__init__.py").is_file():
        raise BenchmarkError(f"program source {SRC / 'vnfcmap'} not found")


def import_program():
    """Import vnfcmap from this checkout's ``src`` and nowhere else."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vnfcmap

    if Path(vnfcmap.__file__).resolve().parent != (SRC / "vnfcmap").resolve():
        raise BenchmarkError(f"vnfcmap imported from {vnfcmap.__file__}, not from {SRC}")
    return vnfcmap


def program_env() -> dict:
    """Environment for child processes that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- statistics ----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def files_digest(root: Path) -> str:
    """Digest of every file under ``root``: relative paths and bytes, sorted."""
    chunks: list[bytes] = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        chunks.append(path.relative_to(root).as_posix().encode())
        chunks.append(path.read_bytes())
    return sha256(*chunks)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# -- environment -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict:
    """What a result was measured with: interpreter, libraries, source and machine."""
    sources = sorted((SRC / "vnfcmap").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": sha256(
            *(chunk for p in sources for chunk in (p.relative_to(SRC).as_posix().encode(), p.read_bytes()))
        ),
        "nproc": os.cpu_count(),
        "cpus_used": usable_cpus(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


# -- child processes -------------------------------------------------------------


@dataclass
class ChildRun:
    returncode: int
    seconds: float
    peak_rss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(
    argv: Sequence[str],
    cwd: Path,
    env: Optional[dict] = None,
    timeout: float = CHILD_TIMEOUT_S,
) -> ChildRun:
    """Run one program to completion; report its exit code, wall time and peak RSS.

    Output goes to files rather than pipes so that the process can be reaped
    with ``wait4``, which also returns its own resource usage.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out_path = cwd / f".child-{os.getpid()}-{threading.get_ident()}.out"
    err_path = out_path.with_suffix(".err")
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(
            proc.returncode, seconds, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()
        )
    finally:
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- the run record -------------------------------------------------------------


@dataclass
class Record:
    """Timings, operation outcomes and child peak RSS of one workload run.

    Sample series named ``op_ms.<kind>`` hold each operation kind's times in
    ms and are printed per kind; ``key.<operation>`` series hold one fixed
    operation's times in ms across passes, scaled to the reference host (see
    reference.py), for ``pass_rate``.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    child_peak_rss_kb: int = 0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def outcome(self, ok: bool, what: str) -> bool:
        """Count one operation; keep a short note of it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def child_rss(self, peak_kb: int) -> None:
        """Note the peak RSS of a program process this run started."""
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, peak_kb)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def peak_rss_mb(self) -> float:
        """This process's peak plus the largest peak of a program process it ran."""
        return (self_peak_rss_kb() + self.child_peak_rss_kb) / 1024.0


def pass_rate(record: Record) -> float:
    """Operations per second over one pass of a workload's fixed operations,
    each taken at its median time over the run's passes, on the reference
    host of reference.py.

    Scaling to the reference host takes out the host's slow and fast phases;
    per-operation medians drop the passes a transient slowdown hit; summing
    them over the pass averages what is left.
    """
    medians = [median(v) for k, v in record.samples.items() if k.startswith("key.")]
    return len(medians) / (sum(medians) / 1e3)


def p50(record: Record, sample: str, unit: str = "ms") -> tuple[float, str, int]:
    """Median of a sample series as (value, unit, sample count)."""
    values = record.samples.get(sample, [])
    return (median(values) if values else 0.0, unit, len(values))
