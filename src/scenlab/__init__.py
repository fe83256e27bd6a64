"""scenlab: verification lab for scenario decision algorithms.

Risk estimation, consistency/stability probes, shattering and compression
certificates, sample-size bounds, and the path-planning application systems.
"""

from .core import (
    ConstraintDistribution,
    Fold,
    PacCurve,
    PropertyReport,
    RiskEstimate,
    ScenarioSystem,
    check_consistency,
    check_stability,
    hoeffding_radius,
    pac_curve,
    satisfies_all,
    violation_probability_mc,
)
from .registry import SYSTEMS, get_bundle

__version__ = "0.1.0"

# The certificate and bound names resolve on first access, so that
# ``import scenlab`` (and every CLI command that estimates) loads no
# ``analyzers``.
_ANALYZER_NAMES = frozenset({
    "BoundQuery",
    "adversarial_pac_experiment",
    "certify_no_compression_scheme",
    "check_shattered",
    "compression_bound",
    "find_compression_subtuple",
    "vc_sample_bound",
    "verify_range_shattering_witness",
})


def __getattr__(name: str):
    if name in _ANALYZER_NAMES:
        from . import analyzers

        return getattr(analyzers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundQuery",
    "ConstraintDistribution",
    "Fold",
    "PacCurve",
    "PropertyReport",
    "RiskEstimate",
    "SYSTEMS",
    "ScenarioSystem",
    "adversarial_pac_experiment",
    "certify_no_compression_scheme",
    "check_consistency",
    "check_shattered",
    "check_stability",
    "compression_bound",
    "find_compression_subtuple",
    "get_bundle",
    "hoeffding_radius",
    "pac_curve",
    "satisfies_all",
    "vc_sample_bound",
    "verify_range_shattering_witness",
    "violation_probability_mc",
]
