"""Run metadata printed with every result: what code ran, and on what."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _git_sha(root: Path):
    """HEAD of the checkout's own .git directory, if it has one (read, not run)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
    except OSError:
        pass
    return model, caches


def run_metadata(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src = root / "src"
    model, caches = _cpu()
    return {
        "git_sha": _git_sha(root),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
