"""Host probes: provenance stamps and the load-budget counters.

Linux-only where it reads ``/proc/self``: native thread count, child
processes, and the resettable peak resident set (``VmHWM``).
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy

_STATUS = Path("/proc/self/status")

# Each child sleeps until a shared start instant, burns a fixed number
# of loop iterations and prints how long the burn took.
_BURN = (
    "import sys, time\n"
    "start = float(sys.argv[1])\n"
    "time.sleep(max(0.0, start - time.time()))\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(int(sys.argv[2])):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t)\n"
)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _burn(n_procs: int, loops: int) -> float:
    start = time.time() + 0.1
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BURN, repr(start), str(loops)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(n_procs)
    ]
    walls = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            walls.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return max(walls)


def parallelism(loops: int = 1_500_000) -> dict:
    """One CPU burn alone, then two at once.

    ``effective_parallelism`` is the pair's throughput over the single
    burn's: 2.0 means two free cores, 1.0 means the two share one.
    ``burn_s`` (the single burn's time) tracks how fast the host is
    running right now.
    """
    solo = _burn(1, loops)
    return {"effective_parallelism": 2.0 * solo / _burn(2, loops), "burn_s": solo}


def git_sha(root: Path) -> Optional[str]:
    """HEAD of ``root`` when ``root`` itself is a git work tree."""
    if not (root / ".git").exists():
        return None  # do not let git search the directories above root
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(src: Path) -> str:
    """Content digest of every ``.py`` file under ``src`` (names included)."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    """Everything that identifies the code and the host of a run."""
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root / "src"),
        "nproc": nproc(),
        **parallelism(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Load-budget and memory counters
# ----------------------------------------------------------------------

def _status_field(name: str) -> int:
    for line in _STATUS.read_text().splitlines():
        if line.startswith(name + ":"):
            return int(line.split()[1])
    raise KeyError(name)


def threads() -> int:
    """Native threads of this process (Python and library threads)."""
    return _status_field("Threads")


def children() -> int:
    """Live child processes of this process."""
    count = 0
    for task in Path("/proc/self/task").iterdir():
        try:
            count += len((task / "children").read_text().split())
        except FileNotFoundError:
            continue
    return count


def reset_peak_rss() -> None:
    """Restart the peak-resident-set counter (``VmHWM``) from now."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_bytes() -> int:
    """Peak resident set since the last :func:`reset_peak_rss`."""
    return _status_field("VmHWM") * 1024
