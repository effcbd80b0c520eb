"""Channel-based message authentication.

Simulates spatially decorrelated fading links for legitimate and adversarial
transmitters, extracts channel-estimate features, and detects spoofed
messages with a one-class Gaussian mixture detector (an MSE-threshold
baseline is included for comparison).
"""

from .channel import (
    exponential_tap_powers,
    perfect_imitation_prefilter,
    sample_initial_channels,
    snr_db_to_noise_variance,
)
from .evaluation import (
    DetectorKind,
    ExperimentConfig,
    PERFECT_IMITATION,
    RocCurve,
    TrialResult,
    compute_roc,
    detection_at_fa,
    run_experiment,
    run_grid,
)
from .features import FeatureKind, subcarrier_indices
from .gmm import GmmModel, fit, log_likelihoods, update_block
from .mse import MseDetectorState, fit_mse, score_block
from .trace_io import TraceFormatError, TraceHeader, TraceReadError, TraceReader, write_trace

__version__ = "0.1.0"
