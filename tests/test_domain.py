"""One table over every real argument of the public API (`crmimo.__all__`).

Each argument refuses a bool, a string, None, NaN, inf and an int past the
float range with a ValueError that names it and says "finite".  A sequence or array argument refuses the
same values as an entry, and also a scalar where a list is expected, the
string '12' and the list ['1', True].  An array argument reads a bool inside
a numeric list as 1.0, as numpy does, so that one list is not in the table.
The functions that take no real argument (`solve_lambda`,
`conventional_power`, `ergodic_capacity`, `empirical_outage`,
`empirical_rate`) and the result records are not in it.
"""

import math
import re

import pytest

import crmimo as cr

NAN, INF = math.nan, math.inf
CONFIG = dict(m=2, n=4, l_t=2, l_r=2, p_p=1.0, p_max=2.0, q=1.0, gamma_th=1.0)
GEOM = dict(d_st_sr=18.0, d_pt_sr=(56.0, 70.0), d_st_pr=(60.0, 80.0))
MEANS = dict(mean_x=1.0, mean_y_per_pr=(0.5, 0.7), mean_z_per_pt=(0.3, 0.4))
config = cr.SystemConfig(**CONFIG)
stats = cr.LinkStats(**MEANS)
sol = cr.solve_lambda(config, stats)

# argument -> (the name its error carries, a call that passes v as that argument)
SCALARS = {
    **{f"SystemConfig.{k}": (f"SystemConfig.{k}",
                              lambda v, k=k: cr.SystemConfig(**{**CONFIG, k: v}))
       for k in ("p_p", "p_max", "q", "gamma_th", "n0")},
    **{f"Geometry.{k}": (f"Geometry.{k}", lambda v, k=k: cr.Geometry(**{**GEOM, k: v}))
       for k in ("d_st_sr", "d_ref", "alpha")},
    "LinkStats.mean_x": ("LinkStats.mean_x", lambda v: cr.LinkStats(**{**MEANS, "mean_x": v})),
    "pathloss_gain.d": ("d", lambda v: cr.pathloss_gain(v, 100.0, 4.0)),
    "pathloss_gain.d_ref": ("d_ref", lambda v: cr.pathloss_gain(50.0, v, 4.0)),
    "pathloss_gain.alpha": ("alpha", lambda v: cr.pathloss_gain(50.0, 100.0, v)),
    "mean_max_iid.mean": ("mean", lambda v: cr.mean_max_iid(v, 2)),
    "leakage_probability.q": ("q", lambda v: cr.leakage_probability([1.0], [1.0], v)),
    "reduce_antennas.t_g": (
        "t_g", lambda v: cr.reduce_antennas([1.0, 2.0], sol, config, stats, v)),
    "antenna_pmf.t_g": ("t_g", lambda v: cr.antenna_pmf(config, stats, sol, v, 10)),
    "average_ser_binary.a": ("a", lambda v: cr.average_ser_binary(config, stats, sol, v, 1.0)),
    "average_ser_binary.b": ("b", lambda v: cr.average_ser_binary(config, stats, sol, 1.0, v)),
    "outage_fixed_power.power": ("power", lambda v: cr.outage_fixed_power(config, stats, v)),
    "mean_power.lam": ("lam", lambda v: cr.mean_power(v, config, stats)),
    "regularized_upper_gamma.x": ("x", lambda v: cr.regularized_upper_gamma(3, v)),
    "asymptotic_sinr.z_realization": (
        "z_realization", lambda v: cr.asymptotic_sinr("rx_massive", config, stats, sol, v)),
}
SEQUENCES = {
    **{f"Geometry.{k}": (f"Geometry.{k}", lambda v, k=k: cr.Geometry(**{**GEOM, k: v}))
       for k in ("d_pt_sr", "d_st_pr")},
    **{f"LinkStats.{k}": (f"LinkStats.{k}", lambda v, k=k: cr.LinkStats(**{**MEANS, k: v}))
       for k in ("mean_y_per_pr", "mean_z_per_pt")},
    "mean_max_inid.means": ("means", cr.mean_max_inid),
    "mean_sum_inid.means": ("means", cr.mean_sum_inid),
    "leakage_probability.mean_y_per_pr": (
        "mean_y_per_pr", lambda v: cr.leakage_probability([1.0], v, 1.0)),
}
# arrays of values >= 0
ARRAYS = {
    "optimal_power.x_i": ("stream gains", lambda v: cr.optimal_power(v, sol)),
    "outage_auto.gamma_th": (
        "gamma_th", lambda v: cr.outage_auto(config, stats, sol, gamma_th=v)),
    "outage_fixed_power.gamma_th": (
        "gamma_th", lambda v: cr.outage_fixed_power(config, stats, 1.0, v)),
    "reduce_antennas.x_gains": (
        "stream gains", lambda v: cr.reduce_antennas(v, sol, config, stats, 0.5)),
    "leakage_probability.powers": ("powers", lambda v: cr.leakage_probability(v, [1.0], 1.0)),
}
NOT_REAL = {"bool": True, "str": "1", "none": None, "nan": NAN, "inf": INF, "big-int": 10 ** 400}
NOT_A_LIST = {**{f"entry-{kind}": [1.0, v] for kind, v in NOT_REAL.items()},
              "scalar": 1.0, "digits": "12", "str-and-bool": ["1", True]}
# in the domain: None is the default of an optional argument, a scalar is a
# one-value array of gains or thresholds, and a bool in a numeric list is 1.0
VALID = {("asymptotic_sinr.z_realization", "none"), ("optimal_power.x_i", "scalar"),
         *((f"{f}.gamma_th", kind) for f in ("outage_auto", "outage_fixed_power")
           for kind in ("none", "scalar")),
         *((arg, "entry-bool") for arg in ARRAYS)}
CASES = [(arg, kind, v)
         for table, kinds in ((SCALARS, NOT_REAL), (SEQUENCES, {**NOT_REAL, **NOT_A_LIST}),
                              (ARRAYS, {**NOT_REAL, **NOT_A_LIST}))
         for arg in table for kind, v in kinds.items() if (arg, kind) not in VALID]
TABLE = {**SCALARS, **SEQUENCES, **ARRAYS}


@pytest.mark.parametrize("arg, kind, value",
                         [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in CASES])
def test_real_argument_refuses_non_reals(arg, kind, value):
    name, call = TABLE[arg]
    with pytest.raises(ValueError, match=re.escape(name)) as err:
        call(value)
    assert "finite" in str(err.value)


def test_table_covers_every_public_real_argument():
    # every public function and class with a real argument has a row
    covered = {arg.split(".")[0] for arg in TABLE}
    assert covered == set(cr.__all__) - {
        "solve_lambda", "conventional_power", "ergodic_capacity",
        "empirical_outage", "empirical_rate",
        "AntennaPmf", "AsymptoticSinr", "LeakageReport", "McEstimate", "OutageResult",
        "PowerSolution", "RootFindingError"}


def test_bool_in_a_numeric_list_reads_as_one():
    assert cr.optimal_power([1.0, True], sol).tolist() \
        == cr.optimal_power([1.0, 1.0], sol).tolist()
    assert cr.leakage_probability([2.0, True], [1.0], 1.0) \
        == cr.leakage_probability([2.0, 1.0], [1.0], 1.0)


def test_silence_and_zero_gain_stay_in_the_domain():
    assert cr.outage_fixed_power(config, stats, -1.0) == 1.0
    assert cr.outage_fixed_power(config, stats, 0) == 1.0
    assert cr.optimal_power(0.0, sol) == 0.0
    assert cr.mean_power(-1.0, config, stats) == 0.0
    assert cr.regularized_upper_gamma(3, 0) == 1.0
