"""What-if explanations for unsupervised anomaly detectors.

The package fits reference detectors (Isolation Forest, LODA), explains
individual anomaly scores by sweeping one feature at a time across its
empirical quantiles, aggregates local rankings into an overall picture,
renders both as SVG charts, and benchmarks explanation latency against a
KernelSHAP baseline.
"""

from anomex.errors import AnomexError, DataError, ModelError, NumericError
from anomex.data import (
    Classification,
    Dataset,
    QuantileGrid,
    RowOutOfRange,
    Scorer,
    build_quantile_grid,
    classify,
    fit_threshold,
    level_of,
    levels_of,
    load_csv,
    load_csv_row,
    save_csv,
    value_at,
)
from anomex.detectors import (
    IsolationForest,
    Loda,
    SavedModel,
    average_precision,
    load_model,
    read_model,
    save_model,
)
from anomex.explainer import (
    LocalExplanation,
    Weights,
    explain,
    explanation_to_dict,
    validate_weights,
)
from anomex.aggregate import (
    RankHistogram,
    histogram_to_dict,
    merge_others,
    overall_importance,
    rank_histogram,
)
from anomex.shap_baseline import (
    ShapExplanation,
    kernel_shap,
    sample_background,
    shap_ranking,
    shap_to_dict,
)
from anomex.bench import (
    TimingRecord,
    background_sweep,
    format_table,
    linear_fit,
    records_to_csv,
    time_explain,
    time_kernel_shap,
)
from anomex.synth import SynthSpec, generate
from anomex.viz import render_rank_bars, render_whatif

__all__ = [
    "AnomexError",
    "DataError",
    "ModelError",
    "NumericError",
    "Classification",
    "Dataset",
    "QuantileGrid",
    "RowOutOfRange",
    "Scorer",
    "build_quantile_grid",
    "classify",
    "fit_threshold",
    "level_of",
    "levels_of",
    "load_csv",
    "load_csv_row",
    "save_csv",
    "value_at",
    "IsolationForest",
    "Loda",
    "SavedModel",
    "average_precision",
    "load_model",
    "read_model",
    "save_model",
    "LocalExplanation",
    "Weights",
    "explain",
    "explanation_to_dict",
    "validate_weights",
    "RankHistogram",
    "histogram_to_dict",
    "merge_others",
    "overall_importance",
    "rank_histogram",
    "ShapExplanation",
    "kernel_shap",
    "sample_background",
    "shap_ranking",
    "shap_to_dict",
    "TimingRecord",
    "background_sweep",
    "format_table",
    "linear_fit",
    "records_to_csv",
    "time_explain",
    "time_kernel_shap",
    "SynthSpec",
    "generate",
    "render_rank_bars",
    "render_whatif",
]

__version__ = "0.1.0"
