"""What ``import anomex`` and ``import anomex.cli`` load, and the export table."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomex

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the public API: every name of anomex.__all__, by the module that defines it
PUBLIC = {
    "errors": ["AnomexError", "DataError", "ModelError", "NumericError"],
    "data": [
        "Classification", "Dataset", "QuantileGrid", "RowOutOfRange", "Scorer",
        "build_quantile_grid", "classify", "fit_threshold", "level_of", "levels_of",
        "load_csv", "load_csv_row", "save_csv", "value_at",
    ],
    "detectors": [
        "IsolationForest", "Loda", "SavedModel", "average_precision", "load_model",
        "read_model", "save_model",
    ],
    "explainer": [
        "LocalExplanation", "Weights", "explain", "explanation_to_dict", "validate_weights",
    ],
    "aggregate": [
        "RankHistogram", "histogram_to_dict", "merge_others", "overall_importance",
        "rank_histogram",
    ],
    "shap_baseline": [
        "ShapExplanation", "kernel_shap", "sample_background", "shap_ranking", "shap_to_dict",
    ],
    "bench": [
        "TimingRecord", "background_sweep", "format_table", "linear_fit", "records_to_csv",
        "time_explain", "time_kernel_shap",
    ],
    "synth": ["SynthSpec", "generate"],
    "viz": ["render_rank_bars", "render_whatif"],
}


def modules_after(statement):
    """The numpy and anomex modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import sys\n{statement}\n"
        "print(__import__('json').dumps(sorted(m for m in sys.modules "
        "if m == 'numpy' or m.split('.')[0] == 'anomex')))"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out))


def test_import_anomex_loads_no_submodule_and_no_numpy():
    assert modules_after("import anomex") == {"anomex"}


def test_import_anomex_cli_leaves_out_the_modules_only_some_commands_call():
    loaded = modules_after("import anomex.cli")
    assert "anomex.data" in loaded
    assert not loaded & {"anomex.bench", "anomex.shap_baseline", "anomex.synth"}


def test_reading_a_name_loads_its_module_and_what_that_imports():
    loaded = modules_after("from anomex import generate")
    assert {"anomex.synth", "anomex.data"} <= loaded
    assert not loaded & {"anomex.bench", "anomex.shap_baseline", "anomex.viz"}


def test_every_public_name_is_the_object_its_module_defines():
    assert sorted(anomex.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    listed = dir(anomex)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"anomex.{module}")
        assert getattr(anomex, module) is defining
        assert module in listed
        for name in names:
            assert getattr(anomex, name) is getattr(defining, name), name
            assert name in listed, name
    assert anomex.__version__ == "0.1.0"


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from anomex import *", namespace)
    assert set(anomex.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'anomex' has no attribute 'nope'"):
        anomex.nope
    with pytest.raises(ImportError):
        exec("from anomex import nope", {})
