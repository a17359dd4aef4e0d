"""Pieces shared by the benchmark's orchestrator, worker and workloads."""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# knobs the kernel reads from the environment; cleared so every run uses
# the documented defaults whatever the caller's shell holds
GCLOSE_ENV = ("GCLOSE_HORIZON", "GCLOSE_TOLERANCE", "GCLOSE_BUDGET")

# workload name -> the module in this directory that builds its queries
WORKLOADS = {
    "witness-rational": "wl_witness",
    "torsion-rational": "wl_torsion",
    "quadratic-surd": "wl_surd",
    "cli-mix": "wl_cli",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def import_gclose():
    """Import the kernel from this checkout's ``src`` and nowhere else."""
    if not (SRC / "gclose" / "__init__.py").is_file():
        raise SetupError(f"no kernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    gclose = importlib.import_module("gclose")
    origin = Path(gclose.__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"imported gclose from {origin}, not from {SRC}")
    for name in ("circle", "duality", "torsion", "lattice", "witness", "cli"):
        importlib.import_module(f"gclose.{name}")
    return gclose


@dataclass
class Query:
    """One closed-loop request.

    ``run`` is the timed call.  ``check`` runs afterwards, outside the timed
    region, and returns ``(correct, decided)``: whether the result passed its
    oracle, and whether it is conclusive (an Exact verdict, a Witness, a
    NullSequenceResult, or an expected CLI exit code 0 or 1).
    """

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bool]]


def digest(rounds: list[list[Query]]) -> str:
    h = hashlib.sha256()
    for rnd in rounds:
        for q in rnd:
            h.update(q.kind.encode())
            h.update(b"\0")
            h.update(q.key.encode())
            h.update(b"\n")
        h.update(b"--\n")
    return h.hexdigest()


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def source_digest() -> str:
    """Digest of the kernel sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gclose").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id() -> str:
    """HEAD of a git checkout, read without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"
