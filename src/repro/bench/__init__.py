"""The benchmark harness: experiment runners and report formatting.

* :mod:`repro.bench.experiments` -- run one workload under several operators
  (the Figure 4a/4b/4c/4h experiments) and collect
  :class:`~repro.engine.operators.OperatorRunResult` rows.
* :mod:`repro.bench.scalability` -- the weak-scaling sweeps of Figures 4d-4g.
* :mod:`repro.bench.reporting` -- plain-text tables that mirror the rows and
  series the paper reports, printed by the ``benchmarks/`` suite and written
  to ``benchmarks/results/`` (README.md's "Tests and benchmarks" section).
"""

from repro.bench.ablation import (
    AblationRow,
    TilingComparisonRow,
    coarsened_size_ablation,
    compare_tiling_algorithms,
    output_sample_ablation,
    sample_matrix_size_ablation,
)
from repro.bench.experiments import ComparisonResult, compare_operators
from repro.bench.figure1 import Figure1Result, Figure1Row, figure1_toy_keys, run_figure1
from repro.bench.reporting import (
    format_comparison_table,
    format_scalability_table,
    format_table_iv,
)
from repro.bench.scalability import ScalabilityPoint, run_weak_scaling
from repro.bench.table5 import TableVResult, TableVRow, run_table_v

__all__ = [
    "ComparisonResult",
    "compare_operators",
    "ScalabilityPoint",
    "run_weak_scaling",
    "format_comparison_table",
    "format_scalability_table",
    "format_table_iv",
    "Figure1Row",
    "Figure1Result",
    "figure1_toy_keys",
    "run_figure1",
    "TilingComparisonRow",
    "compare_tiling_algorithms",
    "AblationRow",
    "coarsened_size_ablation",
    "sample_matrix_size_ablation",
    "output_sample_ablation",
    "TableVRow",
    "TableVResult",
    "run_table_v",
]
