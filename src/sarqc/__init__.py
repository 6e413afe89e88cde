"""Weight-only post-training quantization calibration toolkit.

Regularized calibration objectives with two solvers (grid search over
channel scaling factors; Gram-based sequential quantization with regularized
curvature), plus brute-force oracles that verify the compensation rule, the
supportedness interval of constrained minimizers, and the finite-class
concentration bound at desk scale.
"""

__version__ = "0.1.0"

from .calibration import CalibrationBatch, split_batch
from .gbs import (
    GAMMA_GRID_DEFAULT,
    LAMBDA_GRID_GBS_DEFAULT,
    build_curvature,
    profile_for,
    run_gbs,
    select_hparams_gbs,
)
from .gs import (
    ALPHA_GRID_DEFAULT,
    LAMBDA_GRID_GS_DEFAULT,
    GsGrid,
    GsResult,
    candidate,
    run_gs,
    select_lambda_gs,
)
from .linalg import (
    NumericalFailure,
    TriangularFactor,
    chol_upper_of_inverse,
    frobenius_sq,
    gram,
)
from .objective import (
    LossBreakdown,
    joint_score,
    minmax_normalize,
    recon_loss,
    sar_loss,
    weight_drift,
)
from .quantizer import (
    QuantizedLayer,
    QuantScheme,
    quantize_matrix,
    rtn,
)
from .saliency import (
    ChannelStats,
    SaliencyProfile,
    channel_stats,
    identity_profile,
    saliency_vector_gbs,
    saliency_vector_gs,
    scale_normalize_gbs,
    scaling_vector_gs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
