"""Finite frame toolkit: weaving operators and bounds, exact wovenness
checks by partition enumeration, duals of weavings, and sufficient-condition
certificates."""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    PerturbParams,
    certify_commuting_dual_pair,
    certify_dual_canonicals,
    certify_invertible_stability,
    certify_lm_perturbation,
    certify_operator_family,
    certify_positivity,
    certify_synthesis_gap,
    certify_synthesis_perturbation,
    lm_perturbation_min_mu,
    verify_operator_characterization,
)
from .frames import (
    Bounds,
    Frame,
    canonical_dual,
    frame_bounds,
    frame_operator,
    is_dual_pair,
    synthesis,
)
from .weaving import (
    FrameFamily,
    Partition,
    WeavingReport,
    bessel_upper_bound,
    exhaustive_woven_check,
    is_tight_weaving,
    sampled_woven_estimate,
    weave,
    weaving_alternate_dual,
    weaving_bounds,
    weaving_canonical_dual,
    weaving_operator,
)
