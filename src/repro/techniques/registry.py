"""Table 1: the candidate simulation techniques and their permutations.

The paper surveyed ten years of HPCA/ISCA/MICRO to pick the most
prevalent techniques, then fixed 69 permutations: 3 SimPoint, 9 SMARTS,
3-5 reduced inputs (availability per benchmark, Table 2), 4 Run Z,
12 FF X + Run Z and 36 FF X + WU Y + Run Z.  This module reconstructs
that list programmatically.

The canonical interface is :func:`permutations`::

    permutations("SMARTS")                # the nine U x W permutations
    permutations("Reduced", "mcf")        # filtered to Table 2 availability
    permutations("SimPoint", extras=True) # + the Figure 6 single-10M variant

Each returned technique is named by its ``permutation`` property.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.techniques.base import SimulationTechnique
from repro.techniques.reduced import ReducedInputTechnique
from repro.techniques.reference import ReferenceTechnique
from repro.techniques.simpoint import SimPointTechnique
from repro.techniques.smarts import SmartsTechnique
from repro.techniques.truncated import FFRunZ, FFWURunZ, RunZ
from repro.workloads.spec import get_benchmark

#: Family display names, in the paper's usual figure order.
FAMILIES = ("SimPoint", "SMARTS", "Reduced", "Run Z", "FF+Run Z", "FF+WU+Run Z")

#: Permutation counts per family as stated in Table 1 (reduced inputs
#: range 3-5 depending on the benchmark's available input sets).
TABLE1_COUNTS = {
    "SimPoint": 3,
    "SMARTS": 9,
    "Reduced": (3, 5),
    "Run Z": 4,
    "FF+Run Z": 12,
    "FF+WU+Run Z": 36,
}

#: Run Z lengths (paper-M).
RUN_Z_VALUES = (500, 1000, 1500, 2000)

#: FF X + Run Z grid (paper-M).
FF_X_VALUES = (1000, 2000, 4000)
FF_RUN_Z_VALUES = (100, 500, 1000, 2000)

#: FF X + WU Y + Run Z: X + Y lands on the same grid as FF X.
WU_Y_VALUES = (1, 10, 100)

#: SMARTS detailed-unit and warm-up lengths (instructions).
SMARTS_U_VALUES = (100, 1000, 10000)
SMARTS_W_VALUES = (200, 2000, 20000)


# -- family builders ---------------------------------------------------------------


def _build_simpoint(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    # Table 1 lists three: single 100M, multiple 10M (max_k 100) and
    # multiple 100M (max_k 10).  Figure 6 additionally uses a
    # single-10M permutation (the ``extras`` variant).  Warm-up policy
    # per Table 1: 1M for 10M points, none for 100M.
    permutations: List[SimulationTechnique] = [
        SimPointTechnique(interval_m=100, max_k=1, warmup_m=0),
        SimPointTechnique(interval_m=10, max_k=100, warmup_m=1),
        SimPointTechnique(interval_m=100, max_k=10, warmup_m=0),
    ]
    if extras:
        permutations.append(SimPointTechnique(interval_m=10, max_k=1, warmup_m=1))
    return permutations


def _build_smarts(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    # The nine SMARTS permutations: U x W grid of Table 1.
    return [
        SmartsTechnique(unit_instructions=u, warmup_instructions=w)
        for u in SMARTS_U_VALUES
        for w in SMARTS_W_VALUES
    ]


def _build_reduced(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    # Reduced-input permutations, filtered to a benchmark's Table 2
    # availability when a benchmark is given.
    all_sets = ("small", "medium", "large", "test", "train")
    if benchmark is None:
        names = all_sets
    else:
        available = get_benchmark(benchmark).input_sets
        names = tuple(s for s in all_sets if s in available)
    return [ReducedInputTechnique(s) for s in names]


def _build_run_z(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    return [RunZ(z) for z in RUN_Z_VALUES]


def _build_ff_run_z(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    return [FFRunZ(x, z) for x in FF_X_VALUES for z in FF_RUN_Z_VALUES]


def _build_ff_wu_run_z(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    # 36 permutations: (X + Y) in {1000, 2000, 4000}, Y in {1, 10, 100},
    # Z in {100, 500, 1000, 2000}.
    permutations = []
    for total in FF_X_VALUES:
        for y in WU_Y_VALUES:
            for z in FF_RUN_Z_VALUES:
                permutations.append(FFWURunZ(x_m=total - y, y_m=y, z_m=z))
    return permutations


def _build_reference(benchmark: Optional[str], extras: bool) -> List[SimulationTechnique]:
    return [ReferenceTechnique()]


_BUILDERS = {
    "SimPoint": _build_simpoint,
    "SMARTS": _build_smarts,
    "Reduced": _build_reduced,
    "Run Z": _build_run_z,
    "FF+Run Z": _build_ff_run_z,
    "FF+WU+Run Z": _build_ff_wu_run_z,
    # Not a Table 1 family, but uniform access to the ground truth lets
    # engine planners enumerate complete sweeps by family name.
    "Reference": _build_reference,
}


# -- canonical interface -----------------------------------------------------------


def permutations(
    family: str, benchmark: Optional[str] = None, *, extras: bool = False
) -> List[SimulationTechnique]:
    """The named permutations of one technique family.

    Every family answers through this single interface; each returned
    technique is named by its ``permutation`` property and carries its
    parameters as attributes.  ``benchmark`` filters families with
    per-benchmark availability (only "Reduced" today); ``extras`` adds
    off-Table-1 variants used by individual figures (only SimPoint's
    single-10M today).  ``"Reference"`` is accepted alongside the six
    Table 1 families.
    """
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of "
            f"{FAMILIES + ('Reference',)}"
        ) from None
    return builder(benchmark, extras)


def permutations_for_family(
    family: str, benchmark: Optional[str] = None
) -> List[SimulationTechnique]:
    """All Table 1 permutations of one family (alias of :func:`permutations`)."""
    return permutations(family, benchmark)


def all_permutations(benchmark: Optional[str] = None) -> Dict[str, List[SimulationTechnique]]:
    """Every Table 1 permutation, grouped by family."""
    return {family: permutations(family, benchmark) for family in FAMILIES}


def count_permutations(benchmark: Optional[str] = None) -> int:
    """Total permutation count (69 when all five reduced sets exist)."""
    return sum(len(v) for v in all_permutations(benchmark).values())

