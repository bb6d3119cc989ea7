"""Completely bounded trace and spectral norms of super-operators via
semidefinite programming, with verifiable primal/dual certificates."""

__version__ = "0.1.0"

from .dnorm import (  # noqa: F401
    NormOptions,
    NormResult,
    build_general_sdp,
    cb_spectral_norm,
    diamond_norm,
    rebalance_stinespring,
    verify_certificate,
)
from .fidelity import (  # noqa: F401
    check_alberti_certificate,
    check_proposition,
    fidelity_closed_form,
    fidelity_sdp,
)
from .superop import (  # noqa: F401
    SuperOp,
    adjoint,
    apply,
    induced_trace_norm_lower_bound,
    is_channel,
    tensor,
    to_choi,
    to_kraus,
    to_stinespring,
)
