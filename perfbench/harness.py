"""Process plumbing shared by the end-to-end and traced runs.

Every path here is relative to the checkout that holds this directory, so
the benchmark measures the source tree it sits in and writes only inside it
(scratch files go to ``.bench_out/``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI_MODULE = SRC / "stirbess" / "cli.py"


class NoSourceTree(RuntimeError):
    pass


def require_source_tree() -> None:
    """Refuse to run anywhere but a checkout that holds the package source."""
    if not CLI_MODULE.is_file():
        raise NoSourceTree(f"no stirbess source tree at {SRC} (expected {CLI_MODULE.name})")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "stirbess.cli", *args]


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float  # user + system, including reaped pool workers (wait4)
    rss_mb: float  # largest RSS of the child or any descendant it reaped
    returncode: int
    stdout: bytes
    stderr: str
    timed_out: bool

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], timeout_s: float, tag: str = "op") -> ChildRun:
    """Run one child process to completion with its output in files.

    The output goes to files rather than a pipe so the parent sits idle in
    ``wait4`` while the child runs and does not compete for the cores being
    measured.  The child leads its own process group, so a timeout can stop
    its pool workers too.
    """
    out_path = OUT / f"{tag}.stdout"
    err_path = OUT / f"{tag}.stderr"
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(errors="replace"),
        timed_out=timed_out,
    )


def source_digest() -> str:
    """sha256 over the package sources, so results name the code they measured
    even when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository.

    The ceiling keeps git from searching the directories above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
