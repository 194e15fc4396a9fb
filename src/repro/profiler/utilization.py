"""Device-utilization analysis (paper Figure 4).

Figure 4 plots the CDF of GPU utilization observed while training ResNet-50
at minibatch sizes from 1 to 256: with small batches most of the time is
spent at low utilization.  We reproduce the distribution analytically: each
layer contributes its achieved utilization (fraction of roofline throughput
delivered, see :class:`~repro.profiler.kernel_model.KernelCostModel`)
weighted by the time it occupies the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from ..models.graph import ModelGraph
from .gpu_spec import GPUSpec, A100_40GB
from .layer_profiler import LayerProfiler

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["UtilizationCDF", "utilization_cdf", "mean_utilization"]

# numpy is imported inside the functions that use it: this Figure 4 analysis
# is the package's only numpy user, and importing it with ``repro.profiler``
# would cost every scheduler, planner and service process ~13 MB of RSS.


@dataclass(frozen=True)
class UtilizationCDF:
    """Time-weighted CDF of device utilization for one minibatch size.

    ``utilization[i]`` is a utilization level in [0, 1]; ``cumulative[i]`` is
    the fraction of device-busy time spent at or below that level.
    """

    batch: int
    utilization: np.ndarray
    cumulative: np.ndarray

    def fraction_below(self, threshold: float) -> float:
        """Fraction of device time spent below a utilization threshold."""
        import numpy as np

        if threshold <= 0:
            return 0.0
        idx = np.searchsorted(self.utilization, threshold, side="left")
        if idx == 0:
            return 0.0
        return float(self.cumulative[idx - 1])

    def mean(self) -> float:
        """Time-weighted mean utilization."""
        import numpy as np

        weights = np.diff(np.concatenate([[0.0], self.cumulative]))
        return float(np.sum(self.utilization * weights))


def utilization_cdf(
    graph: ModelGraph,
    batch: int,
    gpu: GPUSpec = A100_40GB,
    profiler: LayerProfiler | None = None,
) -> UtilizationCDF:
    """Compute the time-weighted utilization CDF at one minibatch size."""
    import numpy as np

    prof = profiler if profiler is not None else LayerProfiler(gpu)
    profile = prof.profile_model(graph, [batch])
    samples = profile.utilization_samples(batch)
    if not samples:
        raise ValueError(f"model {graph.name!r} produced no kernel timings")
    times = np.array([t for t, _ in samples], dtype=float)
    utils = np.array([u for _, u in samples], dtype=float)
    order = np.argsort(utils)
    utils = utils[order]
    weights = times[order] / times.sum()
    cumulative = np.cumsum(weights)
    return UtilizationCDF(batch=batch, utilization=utils, cumulative=cumulative)


def mean_utilization(
    graph: ModelGraph,
    batches: Sequence[int],
    gpu: GPUSpec = A100_40GB,
) -> Dict[int, float]:
    """Time-weighted mean utilization for each minibatch size."""
    prof = LayerProfiler(gpu)
    return {
        int(b): utilization_cdf(graph, int(b), gpu, prof).mean() for b in batches
    }
