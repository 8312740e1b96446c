"""Shared helpers: percentiles, provenance, phases and the result record."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Throwaway files of a run (span dumps); listed in the root .gitignore.
OUT_DIR = ROOT / ".perfbench_out"

#: Every run warms the system up for this long before the first window.
WARMUP_S = 2.0

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3

#: Timed windows are cut into sub-windows of this length.  Each
#: end-to-end statistic is computed per sub-window and reported as the
#: median across them, so a burst of host noise moves one sub-window
#: rather than the result.
SUBWINDOW_S = 1.0


def windows(seconds: float, trace: bool) -> List[Tuple[str, float]]:
    """The timed windows of a run, in order: ``(name, length_s)``.

    An untraced run measures one window.  A traced run measures the same
    total time as an untraced half followed by a traced half, so the
    tracing overhead comes from one process and one set of inputs.
    """
    if not trace:
        return [("untraced", seconds)]
    return [("untraced", seconds / 2), ("traced", seconds / 2)]


def subwindows(lo_ns: int, hi_ns: int, step_s: float = SUBWINDOW_S
               ) -> List[Tuple[int, int]]:
    """Whole ``step_s`` sub-windows of ``[lo_ns, hi_ns)`` (at least one)."""
    step = int(step_s * 1e9)
    count = max(1, (hi_ns - lo_ns) // step)
    return [(lo_ns + k * step, lo_ns + (k + 1) * step) for k in range(count)]


def median(values: Sequence[Optional[float]]) -> Optional[float]:
    """Median of the defined values; None when there are none."""
    defined = [v for v in values if v is not None]
    return float(np.median(defined)) if defined else None


def pct(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation); None when empty."""
    if len(values) == 0:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> Optional[float]:
    return float(np.mean(values)) if len(values) else None


def ratio(num: float, den: float) -> Optional[float]:
    """``num / den``, or None (undefined) when ``den`` is zero."""
    return num / den if den else None


def draw_faults(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` distinct faulty nodes of an ``n``-cube, sorted."""
    return np.sort(rng.choice(1 << n, size=count, replace=False))


def draw_pairs(rng: np.random.Generator, alive: np.ndarray,
               count: int) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` uniform ordered pairs of distinct nodes from ``alive``."""
    src = rng.integers(0, len(alive), count)
    dst = (src + rng.integers(1, len(alive), count)) % len(alive)
    return alive[src], alive[dst]


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(kernels: Dict[str, Dict[str, str]]) -> dict:
    """Where a result came from.  ``git_rev``/``dirty`` are None outside
    a git checkout; ``kernels`` maps each cell to its resolved kernels."""
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels": kernels,
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, Optional[float]]
    per_layer: Dict[str, Optional[float]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0
