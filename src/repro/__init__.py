"""repro: reproduction of "Characterizing and Comparing Prevailing
Simulation Techniques" (Yi, Kodakara, Sendag, Lilja, Hawkins; HPCA 2005).

The package provides, from scratch:

* ten synthetic SPEC CPU2000-like benchmark models with reduced input
  sets (:mod:`repro.workloads`);
* a configurable out-of-order superscalar timing simulator
  (:mod:`repro.cpu`);
* the six studied simulation techniques -- SimPoint, SMARTS, reduced
  inputs, Run Z, FF+Run Z, FF+WU+Run Z (:mod:`repro.techniques`);
* the three characterization methods -- Plackett-Burman bottlenecks,
  execution profiles, architectural metrics
  (:mod:`repro.characterization`);
* the paper's analyses -- speed-versus-accuracy, configuration
  dependence, enhancement speedups, the decision tree
  (:mod:`repro.analysis`);
* one driver per table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import Scale, get_workload, ARCH_CONFIGS
    from repro.techniques import SimPointTechnique, ReferenceTechnique

    scale = Scale(25)                      # "tiny" profile
    workload = get_workload("gcc")         # gcc, reference input
    config = ARCH_CONFIGS[1]
    truth = ReferenceTechnique().run(workload, config, scale)
    estimate = SimPointTechnique(10, 100, warmup_m=1).run(workload, config, scale)
    print(truth.cpi, estimate.cpi)
"""

from repro.scale import PROFILES, Scale, scale_from_profile
from repro.cpu import (
    ARCH_CONFIGS,
    PB_PARAMETERS,
    Enhancements,
    ProcessorConfig,
    SimulationStats,
    Simulator,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    Benchmark,
    Workload,
    available_input_sets,
    get_benchmark,
    get_workload,
)

__version__ = "1.0.0"

__all__ = [
    "Scale",
    "PROFILES",
    "scale_from_profile",
    "ProcessorConfig",
    "Enhancements",
    "ARCH_CONFIGS",
    "PB_PARAMETERS",
    "Simulator",
    "SimulationStats",
    "BENCHMARK_NAMES",
    "Benchmark",
    "Workload",
    "available_input_sets",
    "get_benchmark",
    "get_workload",
    "__version__",
]
