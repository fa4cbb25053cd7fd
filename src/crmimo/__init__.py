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
    mean_max_iid,
    mean_max_inid,
    mean_sum_inid,
    pathloss_gain,
)
from .mcharness import McEstimate, empirical_outage, empirical_rate
from .outage import (
    AsymptoticSinr,
    OutageResult,
    asymptotic_sinr,
    average_ser_binary,
    ergodic_capacity,
    outage_auto,
    outage_fixed_power,
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
from .specfun import regularized_upper_gamma

__all__ = [
    "AntennaPmf",
    "AsymptoticSinr",
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
    "empirical_outage",
    "empirical_rate",
    "ergodic_capacity",
    "leakage_probability",
    "mean_max_iid",
    "mean_max_inid",
    "mean_power",
    "mean_sum_inid",
    "optimal_power",
    "outage_auto",
    "outage_fixed_power",
    "pathloss_gain",
    "reduce_antennas",
    "regularized_upper_gamma",
    "solve_lambda",
]

__version__ = "0.1.0"
