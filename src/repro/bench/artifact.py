"""Benchmark artifacts: the ``BENCH_<name>.json`` files the harness emits.

An artifact records one scenario run with a stable, versioned schema:

* ``name`` / ``params`` — the scenario and the exact parameters it ran with;
* ``ops`` — a *deterministic* count of the work performed (profiler queries,
  simulation events, simulator runs...).  Identical params must yield
  identical ops on every machine; the regression gate compares them exactly.
* ``wall_time_s`` — best-of-``repeats`` wall-clock time, plus every repeat's
  time.  Wall time is inherently machine-dependent; cross-machine comparisons
  should pass ``--ignore-time`` and rely on the op counts.
* ``metrics`` — scenario-specific deterministic outputs (rounded to 9
  significant digits), acting as a result fingerprint;
* ``info`` — *non-deterministic* diagnostics (persistent-cache hit/miss
  counts, prewarmed-plan counts...).  Informational only: the regression
  gate and the determinism checks ignore it;
* ``git_sha`` — the commit the artifact was produced from.

Artifacts are written with sorted keys and a fixed indent so re-running a
scenario at the same commit produces a minimal diff (only the timing fields
change).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "BenchArtifact",
    "artifact_filename",
    "current_git_sha",
    "load_artifacts",
    "round_metric",
]

#: Bump when the artifact layout changes incompatibly; ``compare`` refuses to
#: diff artifacts with mismatched schema versions.
#: v2: added the non-gated ``info`` diagnostics block and environment
#: parameters (``cache_dir`` and the others in
#: ``compare.ENVIRONMENT_PARAMS``) that ``compare`` excludes from param
#: matching.
SCHEMA_VERSION = 2

_ARTIFACT_PREFIX = "BENCH_"


def round_metric(value: float) -> float:
    """Round a metric to 9 significant digits for a stable fingerprint."""
    return float(f"{float(value):.9g}")


def artifact_filename(name: str) -> str:
    """``BENCH_<name>.json`` with the scenario name sanitized for filesystems."""
    safe = "".join(c if (c.isalnum() or c in "._-") else "-" for c in name)
    return f"{_ARTIFACT_PREFIX}{safe}.json"


def current_git_sha() -> str:
    """HEAD of the checkout containing this package, or ``"unknown"``.

    Resolved relative to the package source rather than the caller's working
    directory, so artifacts record the right provenance no matter where the
    CLI is invoked from.
    """
    cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        sha = out.stdout.strip()
        if out.returncode != 0 or not sha:
            return "unknown"
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        # A '-dirty' suffix keeps artifacts honest about uncommitted changes.
        if dirty.returncode == 0 and dirty.stdout.strip():
            sha += "-dirty"
        return sha
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@dataclass(frozen=True)
class BenchArtifact:
    """One scenario run, as serialized to ``BENCH_<name>.json``."""

    name: str
    params: Dict[str, Any]
    ops: int
    wall_time_s: float
    wall_times_s: Tuple[float, ...]
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    git_sha: str = "unknown"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise ValueError("ops must be non-negative")
        if self.wall_time_s < 0:
            raise ValueError("wall_time_s must be non-negative")

    @property
    def ops_per_second(self) -> float:
        """Throughput under the best repeat (0 when timing is degenerate)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.ops / self.wall_time_s

    # ------------------------------------------------------------------- io
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["wall_times_s"] = list(self.wall_times_s)
        data["ops_per_second"] = round_metric(self.ops_per_second)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchArtifact":
        known = {
            "name",
            "params",
            "ops",
            "wall_time_s",
            "wall_times_s",
            "metrics",
            "info",
            "git_sha",
            "schema_version",
        }
        fields = {k: v for k, v in data.items() if k in known}
        fields["wall_times_s"] = tuple(fields.get("wall_times_s", ()))
        return cls(**fields)

    def write(self, out_dir: Union[str, Path]) -> Path:
        """Write ``BENCH_<name>.json`` into ``out_dir`` and return its path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / artifact_filename(self.name)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "BenchArtifact":
        return cls.from_dict(json.loads(Path(path).read_text()))


def load_artifacts(path: Union[str, Path]) -> Dict[str, BenchArtifact]:
    """Load artifacts from one JSON file or every ``BENCH_*.json`` in a dir."""
    p = Path(path)
    if p.is_dir():
        files: List[Path] = sorted(p.glob(f"{_ARTIFACT_PREFIX}*.json"))
        if not files:
            raise FileNotFoundError(f"no {_ARTIFACT_PREFIX}*.json artifacts in {p}")
    elif p.is_file():
        files = [p]
    else:
        raise FileNotFoundError(f"no benchmark artifact at {p}")
    artifacts: Dict[str, BenchArtifact] = {}
    for f in files:
        artifact = BenchArtifact.read(f)
        if artifact.name in artifacts:
            raise ValueError(f"duplicate artifact name {artifact.name!r} in {path}")
        artifacts[artifact.name] = artifact
    return artifacts
