"""Compressive averaged-periodogram estimation from multi-coset samples."""

from .analysis import nmse, nyquist_ap
from .estimator import Periodogram, estimate_multicluster
from .patterns import (
    CosetPattern,
    PatternFamily,
    RulerSearchResult,
    minimal_circular_sparse_ruler,
)
from .sensing import (
    CosetObservationSet,
    ScenarioConfig,
    SensingRun,
    UserSpec,
    synthesize_observations,
)

__version__ = "0.1.0"
