"""The benchmark runner: named scenarios, timed and checked for determinism.

A *scenario* is a callable taking keyword parameters and returning a
:class:`ScenarioResult` — a deterministic op count plus optional metric
fingerprints.  Scenarios register themselves with the :func:`scenario`
decorator; :func:`run_scenario` times one over ``repeats`` runs (keeping the
best wall time, the standard practice for noisy machines), verifies that the
op count and metrics are identical across repeats, and packages everything
into a :class:`~repro.bench.artifact.BenchArtifact`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..obs.metrics import global_registry
from .artifact import BenchArtifact, current_git_sha, round_metric

__all__ = [
    "ScenarioResult",
    "Scenario",
    "scenario",
    "get_scenario",
    "available_scenarios",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario execution produced (everything but the timing).

    ``ops`` counts the work performed in scenario-specific units; it must be
    a pure function of the scenario parameters — independent, in particular,
    of persistent-cache state, so cold and warm runs fingerprint alike.
    ``metrics`` are additional deterministic outputs; they are rounded to 9
    significant digits and the regression gate treats them as a result
    fingerprint.  ``info`` carries non-deterministic diagnostics (cache
    hit/miss counts, prewarmed plans...): it is recorded in the artifact but
    excluded from the determinism check and the regression gate.
    """

    ops: int
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def rounded_metrics(self) -> Dict[str, float]:
        return {k: round_metric(v) for k, v in sorted(self.metrics.items())}


@dataclass(frozen=True)
class Scenario:
    """A registered benchmark scenario."""

    name: str
    fn: Callable[..., ScenarioResult]
    default_params: Dict[str, Any]
    description: str

    def resolve_params(self, overrides: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        params = dict(self.default_params)
        for key, value in (overrides or {}).items():
            if key not in params:
                raise KeyError(
                    f"scenario {self.name!r} has no parameter {key!r}; "
                    f"available: {', '.join(sorted(params))}"
                )
            # Sequence-valued parameters accept a bare scalar (e.g. the CLI's
            # ``--param models=vgg11``): wrap it so a lone string is one item,
            # not a sequence of characters.
            if isinstance(params[key], (list, tuple)) and not isinstance(
                value, (list, tuple)
            ):
                value = [value]
            params[key] = value
        return params


_REGISTRY: Dict[str, Scenario] = {}


def scenario(
    name: str, description: str, **default_params: Any
) -> Callable[[Callable[..., ScenarioResult]], Callable[..., ScenarioResult]]:
    """Register a benchmark scenario under ``name`` with its default params."""

    def decorate(fn: Callable[..., ScenarioResult]) -> Callable[..., ScenarioResult]:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} registered twice")
        _REGISTRY[name] = Scenario(
            name=name, fn=fn, default_params=dict(default_params),
            description=description,
        )
        return fn

    return decorate


def get_scenario(name: str) -> Scenario:
    _ensure_scenarios_loaded()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(available_scenarios())}"
        )
    return _REGISTRY[name]


def available_scenarios() -> List[str]:
    _ensure_scenarios_loaded()
    return sorted(_REGISTRY)


def _ensure_scenarios_loaded() -> None:
    # Import for the registration side effect; deferred to avoid a cycle
    # (scenarios import the harness for the decorator).
    from . import scenarios  # noqa: F401


def run_scenario(
    name: str,
    overrides: Optional[Dict[str, Any]] = None,
    repeats: int = 1,
    artifact_name: Optional[str] = None,
) -> BenchArtifact:
    """Run one scenario ``repeats`` times and return its artifact.

    The best (minimum) wall time is reported as ``wall_time_s``.  Op counts
    and metrics must agree across repeats; a mismatch means the scenario is
    nondeterministic and is reported as an error rather than silently
    averaged away.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    spec = get_scenario(name)
    params = spec.resolve_params(overrides)

    wall_times: List[float] = []
    reference: Optional[ScenarioResult] = None
    # Counter traffic is attributed to the first (cold) repeat by
    # snapshot/delta around it — consistent with the info block below.
    counters_before = global_registry().snapshot()
    counters: Dict[str, Any] = {}
    for _ in range(repeats):
        start = time.perf_counter()
        result = spec.fn(**params)
        wall_times.append(time.perf_counter() - start)
        if reference is None:
            reference = result
            counters = global_registry().delta_since(counters_before)
        elif (
            result.ops != reference.ops
            or result.rounded_metrics() != reference.rounded_metrics()
        ):
            raise RuntimeError(
                f"scenario {name!r} is nondeterministic: repeat produced "
                f"ops={result.ops} metrics={result.rounded_metrics()}, "
                f"expected ops={reference.ops} "
                f"metrics={reference.rounded_metrics()}"
            )
    assert reference is not None
    return BenchArtifact(
        name=artifact_name if artifact_name is not None else name,
        params={k: _json_safe(v) for k, v in sorted(params.items())},
        ops=reference.ops,
        wall_time_s=min(wall_times),
        wall_times_s=tuple(wall_times),
        metrics=reference.rounded_metrics(),
        # Diagnostics from the first repeat (the cold one, when a persistent
        # cache is in play — the interesting hit/miss picture).  The
        # ``counters`` entry is that repeat's process-wide registry delta
        # (repro.obs.metrics) — non-gated like the rest of the info block.
        info={
            **{k: _json_safe(v) for k, v in sorted(reference.info.items())},
            "counters": counters,
        },
        git_sha=current_git_sha(),
    )


def _json_safe(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    if isinstance(value, (list, dict, str, int, float, bool)) or value is None:
        return value
    return str(value)
