"""Underlay MIMO cognitive-radio link analysis.

Analytical machinery for a secondary multi-antenna link sharing spectrum
with primary users under an average interference cap: optimal per-stream
power allocation, exact closed-form outage under zero-forcing detection,
large-array SINR equivalents, interference-leakage control by antenna
reduction, and a Monte-Carlo harness that validates every closed form.
"""

from .leakage import AntennaPmf, LeakageReport, antenna_pmf, leakage_probability, reduce_antennas
from .linkstats import (
    Geometry,
    LinkStats,
    effective_mean_y,
    hypoexp_ccdf,
    mean_max_iid,
    mean_max_inid,
    mean_sum_inid,
    pathloss_gain,
    sum_density_inid,
)
from .mcharness import (
    DistributionCheck,
    McEstimate,
    empirical_leakage,
    empirical_outage,
    empirical_rate,
    sample_stream_gains,
    zf_distribution_check,
)
from .outage import (
    AsymptoticSinr,
    OutageResult,
    asymptotic_sinr,
    average_ser_binary,
    ergodic_capacity,
    outage_auto,
    outage_equal_antennas,
    outage_fixed_power,
    outage_general,
    outage_iid_pts,
    received_power_cdf,
)
from .powalloc import (
    PowerSolution,
    RootFindingError,
    SystemConfig,
    conventional_power,
    mean_power,
    optimal_power,
    solve_lambda,
)
from .specfun import gamma, regularized_upper_gamma, upper_incomplete_gamma

__all__ = [
    "AntennaPmf",
    "AsymptoticSinr",
    "DistributionCheck",
    "Geometry",
    "LeakageReport",
    "LinkStats",
    "McEstimate",
    "OutageResult",
    "PowerSolution",
    "RootFindingError",
    "SystemConfig",
    "antenna_pmf",
    "asymptotic_sinr",
    "average_ser_binary",
    "conventional_power",
    "effective_mean_y",
    "empirical_leakage",
    "empirical_outage",
    "empirical_rate",
    "ergodic_capacity",
    "gamma",
    "hypoexp_ccdf",
    "leakage_probability",
    "mean_max_iid",
    "mean_max_inid",
    "mean_power",
    "mean_sum_inid",
    "optimal_power",
    "outage_auto",
    "outage_equal_antennas",
    "outage_fixed_power",
    "outage_general",
    "outage_iid_pts",
    "pathloss_gain",
    "received_power_cdf",
    "reduce_antennas",
    "regularized_upper_gamma",
    "sample_stream_gains",
    "solve_lambda",
    "sum_density_inid",
    "upper_incomplete_gamma",
    "zf_distribution_check",
]

__version__ = "0.1.0"
