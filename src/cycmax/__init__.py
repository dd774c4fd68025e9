"""Cyclic sums with one-sided maximal averages in denominators.

Library layout:

* ``periodic``    periodic tuples, intervals, right maximal averages
* ``structure``   irreducible maximal intervals, inclusion poset, rotations
* ``sums``        cyclic sum variants and subset-collection generalizations
* ``reduction``   the non-cyclic chain problem and its simplex minimization
* ``asymptotics`` sweeps over n and extraction of the additive constant
* ``verify``      seeded self-check suites behind the CLI verify command
* ``cli``         command-line front end (analyze, sum, maxsum, minimize,
                  sweep, verify)
* ``errors``      ``CycmaxError``, the ``ValueError`` raised on bad input
"""

from .errors import CycmaxError
from .periodic import (
    IndexInterval,
    PeriodicTuple,
    interval_average,
    right_maximal,
    tuple_from_json,
)
from .structure import (
    IntervalPoset,
    MIntervalRecord,
    build_poset,
    full_maximal_start,
    m_interval,
)
from .sums import (
    MaxSumResult,
    RadiusTuple,
    SubsetCollectionSystem,
    diananda_sum,
    generalized_max_sum,
    max_avg_sum,
    sum_with_radii,
)
from .reduction import (
    ReducedSolution,
    brute_force_oracle,
    cyclic_bruteforce,
    minimize_chain,
    t_chain,
    t_noncyclic,
)
from .asymptotics import (
    A_REFERENCE,
    SweepRecord,
    estimate_constant_a,
    sweep,
)

__all__ = [
    "A_REFERENCE",
    "CycmaxError",
    "IndexInterval",
    "IntervalPoset",
    "MIntervalRecord",
    "MaxSumResult",
    "PeriodicTuple",
    "RadiusTuple",
    "ReducedSolution",
    "SubsetCollectionSystem",
    "SweepRecord",
    "brute_force_oracle",
    "build_poset",
    "cyclic_bruteforce",
    "diananda_sum",
    "estimate_constant_a",
    "full_maximal_start",
    "generalized_max_sum",
    "interval_average",
    "m_interval",
    "max_avg_sum",
    "minimize_chain",
    "right_maximal",
    "sum_with_radii",
    "sweep",
    "t_chain",
    "t_noncyclic",
    "tuple_from_json",
]

__version__ = "0.1.0"
