"""What-if explanations for unsupervised anomaly detectors.

The package fits reference detectors (Isolation Forest, LODA), explains
individual anomaly scores by sweeping one feature at a time across its
empirical quantiles, aggregates local rankings into an overall picture,
renders both as SVG charts, and benchmarks explanation latency against a
KernelSHAP baseline.

``import anomex`` loads no submodule and not numpy: each public name is
imported from the module that ``_EXPORTS`` lists it under when it is
first read (PEP 562), so ``from anomex import explain`` loads
``anomex.explainer`` and what it imports, and nothing else.
"""

import sys

# module -> the public names it defines; __all__ is their union
_EXPORTS = {
    "errors": ("AnomexError", "DataError", "ModelError", "NumericError"),
    "data": (
        "Classification", "Dataset", "QuantileGrid", "RowOutOfRange", "Scorer",
        "build_quantile_grid", "classify", "fit_threshold", "level_of", "levels_of",
        "load_csv", "load_csv_row", "save_csv", "value_at",
    ),
    "detectors": (
        "IsolationForest", "Loda", "SavedModel", "average_precision", "load_model",
        "read_model", "save_model",
    ),
    "explainer": (
        "LocalExplanation", "Weights", "explain", "explanation_to_dict", "validate_weights",
    ),
    "aggregate": (
        "RankHistogram", "histogram_to_dict", "merge_others", "overall_importance",
        "rank_histogram",
    ),
    "shap_baseline": (
        "ShapExplanation", "kernel_shap", "sample_background", "shap_ranking", "shap_to_dict",
    ),
    "bench": (
        "TimingRecord", "background_sweep", "format_table", "linear_fit", "records_to_csv",
        "time_explain", "time_kernel_shap",
    ),
    "synth": ("SynthSpec", "generate"),
    "viz": ("render_rank_bars", "render_whatif"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def _submodule(name: str):
    """``anomex.<name>``, imported by ``__import__`` (which ``-X importtime`` reports)."""
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str) -> object:
    """A public name, or a submodule of ``_EXPORTS``, imported on first access."""
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_MODULE_OF[name]), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
