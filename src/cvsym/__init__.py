"""Phase-space symmetrization toolkit for continuous-variable QKD data."""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config, dump_config
from .keyrate import ChannelEstimate, KeyRateResult, estimate_channel, gaussian_keyrate
from .linalg import SymplecticOrthogonal, haar_orthogonal_symplectic, unitary_to_symplectic
from .protocol import (
    ChannelModel,
    GaussianMixture,
    ModulationParams,
    PhaseDiffusion,
    PostselectionRegion,
    alice_modulate,
    channel_and_heterodyne,
    postselect,
)
from .report import ExperimentReport, emit, parse_report
from .samples import InvariantTriple, SampleBatch
from .stats import (
    MomentSummary,
    berry_esseen_bound,
    empirical_tv_3d,
    estimation_error_mc,
    gaussian_tv_1d,
    gaussian_tv_first_order,
    sigma_est,
    sigma_g,
)
from .symmetrize import (
    apply_symmetrization,
    batch_with_invariants,
    finite_design_average,
    roots_of_unity_design,
    witness_transform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
