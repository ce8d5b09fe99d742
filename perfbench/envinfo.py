"""What a result needs to be compared with another: machine, libraries,
commit and the size of ``src/fracns``."""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
from importlib import metadata


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def l3_size() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(os.path.join(index, "level")) == "3":
            return _read(os.path.join(index, "size"))
    return None


def nproc() -> int | None:
    exe = shutil.which("nproc")
    if exe is None:
        return None
    out = subprocess.run([exe], capture_output=True, text=True, check=False).stdout
    return int(out) if out.strip().isdigit() else None


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from ``.git`` without walking above it."""
    git = os.path.join(root, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(git, ref))
    if sha is None:
        for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def source_lines(root: str) -> int:
    """Non-blank lines of ``src/fracns``, tracked beside the bench numbers."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "fracns", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def environment(root: str) -> dict:
    affinity = len(os.sched_getaffinity(0))
    env = {
        "nproc": nproc(),
        "affinity": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3": l3_size(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(root),
        "src_lines": source_lines(root),
        "warnings": [],
    }
    if (os.cpu_count() or 1) > affinity:
        env["warnings"].append(
            f"os.cpu_count()={os.cpu_count()} exceeds the {affinity} CPUs this process "
            "may run on; fracns.spectral starts that many FFT threads per transform")
    return env
