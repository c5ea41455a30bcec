"""Cost-aware active learning over video sequence pools, simulated end to end.

The package generates synthetic annotated sequence pools, runs sequential
(whole-sequence) or singular (per-frame) acquisition with a dozen selection
strategies, charges annotation hours and querying compute, and evaluates the
resulting performance-cost trade-offs.
"""

from .acquisition import GmmFit, StrategySpec, fit_gmm2, select
from .costing import OverheadModel
from .errors import SeqalError
from .metrics import PerfCostCurve, average_precision, car, correlations, iou, mean_ap, par
from .pool import BoundingBox, Frame, PoolState, Sequence, SequenceMeta, load_pool, write_pool
from .runner import RoundRecord, RunConfig, aggregate, run_experiment
from .surrogate import ScoreTrace, SurrogateState
from .synth import CostCoeffs, GenConfig, generate_pool

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "CostCoeffs",
    "Frame",
    "GenConfig",
    "GmmFit",
    "OverheadModel",
    "PerfCostCurve",
    "PoolState",
    "RoundRecord",
    "RunConfig",
    "ScoreTrace",
    "SeqalError",
    "Sequence",
    "SequenceMeta",
    "StrategySpec",
    "SurrogateState",
    "aggregate",
    "average_precision",
    "car",
    "correlations",
    "fit_gmm2",
    "generate_pool",
    "iou",
    "load_pool",
    "mean_ap",
    "par",
    "run_experiment",
    "select",
    "write_pool",
    "__version__",
]
