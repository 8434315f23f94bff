import contextlib
import csv
import io
import json
import logging
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomex import cli
from anomex.cli import SEED_ENV_VAR, run
from anomex.data import load_csv
from anomex.detectors import MAX_SUBSAMPLE, average_precision, load_model
from anomex.shap_baseline import kernel_shap, sample_background, shap_to_dict


def invoke(*argv):
    return run(list(argv))


@pytest.fixture()
def workspace(tmp_path):
    """Synth data + fitted iforest model, the common pipeline prefix."""
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    assert invoke(
        "synth", "--n", "800", "--anomalies", "25", "--dims", "6",
        "--root", "2", "--shift", "5", "--seed", "3", "--out", str(data),
    ) == 0
    assert invoke(
        "fit", "--input", str(data), "--has-labels", "--model", "iforest",
        "--contamination", "0.03", "--seed", "3", "--out", str(model),
    ) == 0
    return tmp_path, data, model


def cli_env():
    """The environment of an ``anomex.cli`` subprocess that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def test_pipeline_synth_fit_overall_recovers_root(workspace, capsys):
    tmp, data, model = workspace
    hist_json = tmp / "hist.json"
    hist_svg = tmp / "hist.svg"
    code = invoke(
        "overall", "--model", str(model), "--input", str(data), "--has-labels",
        "--positions", "5", "--cutoff", "0.05", "--out", str(hist_json),
        "--svg", str(hist_svg),
    )
    assert code == 0
    doc = json.loads(hist_json.read_text())
    col1 = [row[0] for row in doc["matrix"]]
    assert doc["features"][int(np.argmax(col1))] == "f2"
    assert hist_svg.read_text().startswith("<?xml")


def test_overall_summary_never_names_others(workspace, capsys):
    # at cutoff 0.5 every feature folds into 'others', which then holds
    # the whole first column; the summary must still name a real feature
    tmp, data, model = workspace
    tops = {}
    for cutoff in ("0.001", "0.5"):
        out = tmp / f"hist{cutoff}.json"
        assert invoke(
            "overall", "--model", str(model), "--input", str(data), "--has-labels",
            "--positions", "5", "--cutoff", cutoff, "--out", str(out),
        ) == 0
        tops[cutoff] = capsys.readouterr().out.strip().rsplit(" ", 1)[-1]
        doc = json.loads(out.read_text())
        col1 = [row[0] for row in doc["matrix"]]
        if cutoff == "0.001":
            assert "others" not in doc["features"]
            assert tops[cutoff] == doc["features"][int(np.argmax(col1))]
        else:
            assert doc["features"][int(np.argmax(col1))] == "others"
    assert tops["0.5"] == tops["0.001"] == "f2"


def test_score_csv_layout(workspace):
    tmp, data, model = workspace
    out = tmp / "scores.csv"
    assert invoke("score", "--model", str(model), "--input", str(data),
                  "--has-labels", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "row,score,classification"
    assert len(lines) == 826
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert row0[2] in ("normal", "anomalous")


def test_explain_uses_default_weights_and_writes_svg(workspace):
    tmp, data, _ = workspace
    model = tmp / "model31.json"
    assert invoke("fit", "--input", str(data), "--has-labels", "--model", "iforest",
                  "--quantiles", "31", "--seed", "3", "--out", str(model)) == 0
    out = tmp / "expl.json"
    svg = tmp / "expl.svg"
    code = invoke(
        "explain", "--model", str(model), "--input", str(data), "--has-labels",
        "--row", "805", "--weights", "0.3,0.3,0.2,0.2", "--out", str(out), "--svg", str(svg),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["weights"] == {"D": 0.3, "C": 0.3, "Q": 0.2, "R": 0.2}
    assert len(doc["features"][0]["curve"]) == 31
    assert svg.exists()


NO_FLIP = "no feature's sweep changes the classification"


def test_explain_warns_when_no_feature_can_flip_the_class(workspace, caplog):
    # in this workspace no single feature of row 2 can reach the anomalous
    # side, while one of row 3 can
    tmp, data, model = workspace
    docs = {}
    for row in (2, 3):
        caplog.clear()
        out = tmp / f"expl{row}.json"
        with caplog.at_level(logging.WARNING, logger="anomex.cli"):
            assert invoke("explain", "--model", str(model), "--input", str(data),
                          "--has-labels", "--row", str(row), "--out", str(out)) == 0
        docs[row] = json.loads(out.read_text())
        warned = [r.getMessage() for r in caplog.records if NO_FLIP in r.getMessage()]
        metrics = [f["metrics"] for f in docs[row]["features"]]
        if row == 2:
            assert all(m["C"] == 0.0 and m["Q"] == 0.0 for m in metrics)
            assert warned == [
                "row 2: no feature's sweep changes the classification (C = 0 for every "
                "feature), so Q carries no information for this row"
            ]
        else:
            assert any(m["C"] == 1.0 for m in metrics)
            assert warned == []
    # the warning stays out of the artifact
    assert docs[2].keys() == docs[3].keys()
    assert NO_FLIP not in json.dumps(docs[2])


def test_explain_no_flip_warning_reaches_stderr(workspace):
    tmp, data, model = workspace
    proc = subprocess.run(
        [sys.executable, "-m", "anomex.cli", "explain", "--model", str(model), "--input",
         str(data), "--has-labels", "--row", "2", "--out", str(tmp / "e.json")],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count(NO_FLIP) == 1
    assert NO_FLIP not in proc.stdout


def expected_label_line(data, model):
    labelled = load_csv(data, has_labels=True)
    detector, threshold, _ = load_model(model)
    scores = detector.score(labelled.rows)
    flagged = scores > threshold
    hits = int(labelled.labels[flagged].sum())
    return (
        f"labels: average precision {average_precision(labelled.labels, scores):.4g} "
        f"(base rate {labelled.labels.mean():.4g}), precision at the threshold "
        f"{hits / flagged.sum():.4g}, {hits} of {flagged.sum()} flagged rows are labelled "
        "anomalies"
    )


def test_label_diagnostics_are_logged_with_labels_only(workspace, caplog):
    tmp, data, model = workspace
    expected = expected_label_line(data, model)
    unlabelled = tmp / "unlabelled.csv"
    unlabelled.write_text("".join(
        line.rsplit(",", 1)[0] + "\n" for line in data.read_text().splitlines()
    ))
    for command in ("score", "overall"):
        for labelled in (True, False):
            caplog.clear()
            out = tmp / f"{command}-{labelled}.out"
            inp, flag = (data, ["--has-labels"]) if labelled else (unlabelled, [])
            with caplog.at_level(logging.INFO, logger="anomex"):
                assert invoke(command, "--model", str(model), "--input", str(inp), *flag,
                              "--out", str(out)) == 0
            lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("labels:")]
            assert lines == ([expected] if labelled else [])
        # the artifact does not depend on the diagnostics
        assert (tmp / f"{command}-True.out").read_bytes() == \
            (tmp / f"{command}-False.out").read_bytes()


def test_label_diagnostics_reach_stderr(workspace):
    tmp, data, model = workspace
    proc = subprocess.run(
        [sys.executable, "-m", "anomex.cli", "score", "--model", str(model), "--input",
         str(data), "--has-labels", "--out", str(tmp / "s.csv")],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [expected_label_line(data, model)]
    assert "labels:" not in proc.stdout


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small labelled CSV, its lines, a model fitted on it, and each row's explanation."""
    tmp = tmp_path_factory.mktemp("trained")
    data, model = tmp / "data.csv", tmp / "model.json"
    assert invoke("synth", "--n", "120", "--anomalies", "6", "--dims", "4", "--root", "1",
                  "--shift", "4", "--seed", "9", "--out", str(data)) == 0
    assert invoke("fit", "--input", str(data), "--has-labels", "--model", "iforest",
                  "--contamination", "0.05", "--seed", "9", "--out", str(model)) == 0
    return data.read_text().splitlines(), model, {}


@settings(max_examples=30, deadline=None)
@given(
    row=st.integers(0, 125),
    others=st.lists(st.integers(0, 125), max_size=10),
    position=st.integers(0, 10),
)
def test_explanation_does_not_depend_on_the_other_input_rows(trained, row, others, position):
    lines, model, within_training = trained
    body = [lines[1 + i] for i in others]
    position = min(position, len(body))
    body.insert(position, lines[1 + row])
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "in.csv", Path(tmp) / "expl.json"
        if row not in within_training:
            inp.write_text("\n".join(lines) + "\n")
            assert invoke("explain", "--model", str(model), "--input", str(inp), "--has-labels",
                          "--row", str(row), "--out", str(out)) == 0
            within_training[row] = json.loads(out.read_text())
        inp.write_text("\n".join([lines[0], *body]) + "\n")
        assert invoke("explain", "--model", str(model), "--input", str(inp), "--has-labels",
                      "--row", str(position), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
    assert doc.pop("point_id") == position
    expected = dict(within_training[row])
    del expected["point_id"]
    assert doc == expected


def test_explain_idempotent_bytes(workspace):
    tmp, data, model = workspace
    a, b = tmp / "a.json", tmp / "b.json"
    for out in (a, b):
        assert invoke("explain", "--model", str(model), "--input", str(data),
                      "--has-labels", "--row", "1", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_idempotent_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert invoke("synth", "--n", "50", "--anomalies", "5", "--dims", "3",
                      "--root", "0", "--shift", "2", "--seed", "9", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_shap_subcommand_additivity(workspace):
    tmp, data, model = workspace
    out = tmp / "shap.json"
    code = invoke(
        "shap", "--model", str(model), "--input", str(data), "--has-labels",
        "--row", "805", "--background-frac", "0.1", "--coalitions", "128",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "kernelshap"
    assert doc["phi0"] + sum(doc["phi"]) == pytest.approx(doc["score"], abs=1e-6)
    assert doc["background_size"] == 82


@pytest.mark.parametrize("coalitions", [40, 128])  # sampled, exact enumeration at d=6
def test_shap_document_matches_a_wrapped_scorer(workspace, coalitions):
    # the CLI passes the forest's own bound score; a lambda takes the per-coalition path
    tmp, data, model = workspace
    out = tmp / "shap.json"
    assert invoke(
        "shap", "--model", str(model), "--input", str(data), "--has-labels",
        "--row", "805", "--background-frac", "0.1", "--coalitions", str(coalitions),
        "--seed", "3", "--out", str(out),
    ) == 0
    detector, threshold, _ = load_model(model)
    rows = load_csv(data, has_labels=True)
    background = sample_background(rows, 0.1, 3)
    expl = kernel_shap(lambda b: detector.score(b), rows.rows[805], background, coalitions, 3)
    doc = shap_to_dict(expl, point_id=805, threshold=threshold)
    assert out.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_bench_background_writes_csv(workspace, capsys):
    tmp, data, model = workspace
    out = tmp / "bench.csv"
    code = invoke(
        "bench", "--suite", "background", "--fractions", "0.1", "--out", str(out), "--seed", "1",
        "--n", "400", "--d", "6", "--coalitions", "48", "--quantiles", "11",
        "--trees", "20",
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,background_size,n,d,K,coalitions,seconds"
    # every column but seconds; KernelSHAP sweeps no grid, so its K is empty
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == [
        "acme_ad,,400,6,11,", "kernelshap,40,400,6,,48",
    ]
    table = capsys.readouterr().out
    assert "elapsed time" in table


def test_bench_dimension_suite(workspace, tmp_path):
    out = tmp_path / "dim.csv"
    code = invoke(
        "bench", "--suite", "dimension", "--out", str(out), "--seed", "1",
        "--n", "300", "--dims", "3,5", "--quantiles", "9", "--trees", "15",
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,background_size,n,d,K,coalitions,seconds"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == ["acme_ad,,300,3,9,", "acme_ad,,300,5,9,"]


# -- failure modes map to documented exit codes -----------------------------------


def test_usage_error_unknown_flag():
    assert invoke("synth", "--bogus") == 1


def test_usage_error_no_subcommand():
    assert invoke() == 1


def test_usage_error_missing_seed(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert invoke("synth", "--n", "10", "--anomalies", "2", "--dims", "2",
                  "--root", "0", "--shift", "1", "--out", str(tmp_path / "x.csv")) == 1


def test_usage_error_invalid_synth_spec(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert invoke("synth", "--n", "10", "--anomalies", "2", "--dims", "3", "--root", "3",
                  "--shift", "1", "--seed", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "anomex: usage error: root_feature 3 out of range [0, 3)\n"
    assert not out.exists()


@pytest.mark.parametrize("shift", ["nan", "inf"])
def test_usage_error_non_finite_synth_shift(tmp_path, capsys, shift):
    # a usage error before any row is generated, not a data error when the rows are saved
    out = tmp_path / "x.csv"
    assert invoke("synth", "--n", "5", "--anomalies", "1", "--dims", "2", "--root", "0",
                  f"--shift={shift}", "--seed", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"anomex: usage error: shift must be finite and >= 0, got {shift}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["overall", "--cutoff", "1.5"], "--cutoff must be in (0, 1), got 1.5"),
    (["overall", "--cutoff", "0"], "--cutoff must be in (0, 1), got 0.0"),
    (["overall", "--positions", "0"], "--positions must be >= 1, got 0"),
    (["fit", "--model", "iforest", "--seed", "1", "--quantiles", "1"],
     "--quantiles must be >= 2, got 1"),
    (["shap", "--row", "0", "--seed", "1", "--background-frac", "2"],
     "fraction must be in (0, 1], got 2.0"),
    (["shap", "--row", "0", "--seed", "1", "--coalitions", "3"],
     "coalition budget must be >= d + 1 = 7 at d=6, got 3"),
    (["shap", "--row", "-1", "--seed", "1"], "--row must be >= 0, got -1"),
    (["explain", "--row", "0", "--weights", "1,1,1,1"],
     "weights must sum to 1, got sum=4.0"),
    (["explain", "--row", "-1"], "--row must be >= 0, got -1"),
    (["overall", "--weights", "1,1,1,1"], "weights must sum to 1, got sum=4.0"),
    (["explain", "--row", "0", "--svg", "x.svg", "--width", "10"],
     "unrecognized arguments: --width 10"),
    (["explain", "--row", "0", "--svg", "x.svg", "--top-k", "0"], "top_k must be in [1, 6], got 0"),
    (["overall", "--svg", "x.svg", "--height", "10"], "unrecognized arguments: --height 10"),
    (["fit", "--model", "iforest", "--seed", "1", "--trees", "0"], "need at least 1 tree, got 0"),
    (["fit", "--model", "iforest", "--seed", "1", "--subsample", "1"],
     "subsample must be >= 2, got 1"),
    (["fit", "--model", "loda", "--seed", "1", "--projections", "0"],
     "need at least 1 projection, got 0"),
    (["fit", "--model", "loda", "--seed", "1", "--bins", "0"], "need at least 1 bin, got 0"),
    # each flag is checked by its own rule, whatever the other flags are
    (["explain", "--row", "0", "--width", "10"], "unrecognized arguments: --width 10"),
    (["explain", "--row", "0", "--top-k", "7"], "top_k must be in [1, 6], got 7"),
    (["overall", "--height", "10"], "unrecognized arguments: --height 10"),
    (["fit", "--model", "loda", "--seed", "1", "--trees", "0"], "need at least 1 tree, got 0"),
    (["fit", "--model", "iforest", "--seed", "1", "--subsample", str(MAX_SUBSAMPLE + 1)],
     f"subsample must be <= {MAX_SUBSAMPLE}, got {MAX_SUBSAMPLE + 1}"),
    (["fit", "--model", "iforest", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["shap", "--row", "0", "--seed", "-1"], "--seed must be >= 0, got -1"),
])
def test_usage_error_bad_flag_before_any_input_is_read(workspace, tmp_path, capsys, argv,
                                                         message):
    # the input does not exist, so reading it first would be a data error (exit 2)
    _, _, model = workspace
    model_flag = ["--model", str(model)] if argv[0] != "fit" else []
    out = tmp_path / "out.json"
    assert invoke(*argv, *model_flag, "--input", str(tmp_path / "absent.csv"),
                  "--out", str(out)) == 1
    assert capsys.readouterr().err == f"anomex: usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("env", ["-1", "x"])
def test_usage_error_bad_seed_in_environment(tmp_path, monkeypatch, capsys, env):
    monkeypatch.setenv(SEED_ENV_VAR, env)
    assert invoke("synth", "--n", "10", "--anomalies", "2", "--dims", "2",
                  "--root", "0", "--shift", "1", "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err == (
        f"anomex: usage error: {SEED_ENV_VAR} must be an integer >= 0, got {env!r}\n"
    )


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "17")
    out_env = tmp_path / "env.csv"
    assert invoke("synth", "--n", "20", "--anomalies", "2", "--dims", "2",
                  "--root", "0", "--shift", "1", "--out", str(out_env)) == 0
    out_flag = tmp_path / "flag.csv"
    assert invoke("synth", "--n", "20", "--anomalies", "2", "--dims", "2",
                  "--root", "0", "--shift", "1", "--seed", "17", "--out", str(out_flag)) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_data_error_missing_input(tmp_path):
    assert invoke("fit", "--input", str(tmp_path / "nope.csv"), "--model", "iforest",
                  "--seed", "1", "--out", str(tmp_path / "m.json")) == 2


@pytest.mark.parametrize(
    "body, message",
    [
        (b"a,b\n1,2\n0." + b"0" * csv.field_size_limit() + b"1,2\n", "line 3: field larger"),
        (b"a,b\n1,2\n3,4\n5,\xff6\n", "line 4 is not valid UTF-8"),
    ],
    ids=["overlong-cell", "not-utf8"],
)
def test_data_error_unreadable_csv(tmp_path, capsys, body, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    assert invoke("fit", "--input", str(bad), "--model", "iforest",
                  "--seed", "1", "--out", str(tmp_path / "m.json")) == 2
    assert message in capsys.readouterr().err


def fit_in_a_process(tmp_path, body, model):
    """Exit code and stderr of an ``anomex fit`` process on a CSV holding ``body``."""
    data = tmp_path / "extreme.csv"
    data.write_text(body)
    proc = subprocess.run(
        [sys.executable, "-m", "anomex.cli", "fit", "--input", str(data), "--model", model,
         "--seed", "1", "--out", str(tmp_path / "m.json")],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


# a column spanning -1e308 to 1e308: max - min overflows float64
WIDER_THAN_FLOAT64 = "a,b\n1e308,1\n-1e308,2\n1e308,3\n0,4\n5,5\n"


def test_data_error_iforest_fit_on_a_feature_wider_than_float64(tmp_path):
    # the split draw raised OverflowError, a traceback
    code, err = fit_in_a_process(tmp_path, WIDER_THAN_FLOAT64, "iforest")
    assert (code, err) == (
        2, "anomex: data error: IsolationForest.fit: feature 'a' spans -1e+308 to 1e+308, "
        "a range wider than float64 holds\n",
    )


def test_data_error_loda_fit_on_a_feature_wider_than_float64(tmp_path):
    # the bins warned of overflows, then a NaN bin index was a usage error (exit 1)
    code, err = fit_in_a_process(tmp_path, WIDER_THAN_FLOAT64, "loda")
    assert (code, err) == (
        2, "anomex: data error: Loda.fit: feature 'a' spans -1e+308 to 1e+308, "
        "a range wider than float64 holds\n",
    )


def test_data_error_loda_fit_on_a_projection_wider_than_float64(tmp_path):
    # every feature's range is finite, but a weighted sum of 1.5e308 overflows
    code, err = fit_in_a_process(tmp_path, "a,b\n1.5e308,1\n0,2\n1e308,3\n0,4\n5,5\n", "loda")
    assert (code, err) == (
        2, "anomex: data error: Loda.fit: projection 8 of features ['a', 'b'] overflows float64\n",
    )


def test_data_error_no_anomalies(workspace, capsys, tmp_path):
    tmp, data, model = workspace
    # rebuild the model with an impossible threshold by hand
    doc = json.loads(model.read_text())
    doc["threshold"] = 1e9
    rigged = tmp_path / "rigged.json"
    rigged.write_text(json.dumps(doc))
    code = invoke("overall", "--model", str(rigged), "--input", str(data),
                  "--has-labels", "--out", str(tmp_path / "h.json"))
    assert code == 2
    assert "no anomalies detected" in capsys.readouterr().err


@pytest.mark.parametrize("model, name", [("iforest", "IsolationForest"), ("loda", "Loda")])
def test_data_error_fit_on_one_row(tmp_path, capsys, model, name):
    # the forest's ValueError read as a usage error (exit 1); LODA fitted a model scoring -0.0
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("a,b\n1,2\n")
    out = tmp_path / "m.json"
    assert invoke("fit", "--input", str(one_row), "--model", model, "--seed", "1",
                  "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"anomex: data error: {name}.fit: need at least 2 training rows, got 1\n"
    )
    assert not out.exists()


def test_data_error_overall_feature_named_others(workspace, capsys):
    # merge_others' ValueError read as a usage error (exit 1)
    tmp, data, _ = workspace
    renamed = tmp / "renamed.csv"
    renamed.write_text(data.read_text().replace("f2", "others", 1))
    model = tmp / "renamed.json"
    assert invoke("fit", "--input", str(renamed), "--has-labels", "--model", "iforest",
                  "--contamination", "0.03", "--seed", "3", "--out", str(model)) == 0
    out = tmp / "hist.json"
    # at rank 1 'others' keeps a share of 0.36 while f1 and f3 (0.04 each) fold
    assert invoke("overall", "--model", str(model), "--input", str(renamed), "--has-labels",
                  "--positions", "1", "--cutoff", "0.1", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "anomex: data error: cannot merge: a feature is already named 'others'\n"
    )
    assert not out.exists()


def test_explain_far_row_against_a_narrow_grid_warns_nothing(tmp_path):
    # 1e308 over a grid step of about 1e-302 overflowed in data._levels
    train = tmp_path / "train.csv"
    train.write_text("a,b\n" + "".join(f"{i}e-300,{i % 7}\n" for i in range(40)))
    model = tmp_path / "m.json"
    assert invoke("fit", "--input", str(train), "--model", "iforest", "--seed", "1",
                  "--out", str(model)) == 0
    far = tmp_path / "far.csv"
    far.write_text("a,b\n1e308,3\n")
    out = tmp_path / "e.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = invoke("explain", "--model", str(model), "--input", str(far), "--row", "0",
                      "--out", str(out))
    assert [str(w.message) for w in caught] == []
    assert code == 0
    levels = {f["name"]: f["level_of_x"] for f in json.loads(out.read_text())["features"]}
    assert levels["a"] == 1.0


@pytest.mark.parametrize("command", ["explain", "overall"])
def test_data_error_flat_grid(workspace, capsys, command):
    # trained on two identical rows: every column of the stored grid has zero width
    tmp, data, _ = workspace
    lines = data.read_text().splitlines()
    twice = tmp / "twice.csv"
    twice.write_text(lines[0] + "\n" + lines[806] + "\n" + lines[806] + "\n")
    model = tmp / "flat.json"
    assert invoke("fit", "--input", str(twice), "--has-labels", "--model", "iforest",
                  "--seed", "3", "--out", str(model)) == 0
    out = tmp / "out.json"
    row = ["--row", "0"] if command == "explain" else []
    code = invoke(command, "--model", str(model), "--input", str(data), "--has-labels",
                  *row, "--out", str(out), "--svg", str(tmp / "out.svg"))
    assert code == 2
    assert "quantile grid has zero width" in capsys.readouterr().err
    assert not out.exists() and not (tmp / "out.svg").exists()


def without_grid(model, path, version):
    """The model document with no grid, as format ``version``."""
    doc = json.loads(model.read_text())
    del doc["grid"]
    doc["format_version"] = version
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


@pytest.mark.parametrize("command", ["explain", "overall"])
def test_model_error_model_without_a_grid(workspace, capsys, command):
    tmp, data, model = workspace
    gridless = without_grid(model, tmp / "gridless.json", 2)
    out, svg = tmp / "out.json", tmp / "out.svg"
    row = ["--row", "805"] if command == "explain" else []
    code = invoke(command, "--model", str(gridless), "--input", str(data), "--has-labels",
                  *row, "--out", str(out), "--svg", str(svg))
    assert code == 3
    assert capsys.readouterr().err == (
        "anomex: model error: the model holds no quantile grid (it was saved without one); "
        "refit it with anomex fit\n"
    )
    assert not out.exists() and not svg.exists()


def test_model_without_a_grid_still_scores_and_runs_shap(workspace):
    tmp, data, model = workspace
    gridless = without_grid(model, tmp / "gridless.json", 2)
    for command, flags in (("score", []), ("shap", ["--row", "805", "--seed", "3"])):
        outs = {}
        for name, path in (("gridless", gridless), ("full", model)):
            outs[name] = tmp / f"{command}-{name}.out"
            assert invoke(command, "--model", str(path), "--input", str(data), "--has-labels",
                          *flags, "--out", str(outs[name])) == 0
        assert outs["gridless"].read_bytes() == outs["full"].read_bytes()


@pytest.mark.parametrize("command", ["score", "explain", "overall", "shap"])
def test_model_error_version_1_model_on_every_command(workspace, capsys, command):
    tmp, data, model = workspace
    v1 = without_grid(model, tmp / "v1.json", 1)
    out = tmp / "out"
    flags = {"score": [], "explain": ["--row", "805"], "overall": [],
             "shap": ["--row", "805", "--seed", "3"]}[command]
    assert invoke(command, "--model", str(v1), "--input", str(data), "--has-labels",
                  *flags, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        f"anomex: model error: {v1}: unsupported format version 1; refit it with anomex fit\n"
    )
    assert not out.exists()


def test_one_row_input_is_explained_against_the_training_grid(workspace):
    tmp, data, model = workspace
    lines = data.read_text().splitlines()
    one_row = tmp / "one_row.csv"
    one_row.write_text(lines[0] + "\n" + lines[806] + "\n")
    alone, within = tmp / "alone.json", tmp / "within.json"
    assert invoke("explain", "--model", str(model), "--input", str(one_row), "--has-labels",
                  "--row", "0", "--out", str(alone)) == 0
    assert invoke("explain", "--model", str(model), "--input", str(data), "--has-labels",
                  "--row", "805", "--out", str(within)) == 0
    doc = json.loads(alone.read_text())
    assert doc.pop("point_id") == 0
    expected = json.loads(within.read_text())
    del expected["point_id"]
    assert doc == expected


@pytest.mark.parametrize(
    "edit",
    [
        lambda g: g[0].reverse(),
        lambda g: g[1].__setitem__(3, float("nan")),
        lambda g: g.pop(),
        lambda g: [row.__delitem__(slice(1, None)) for row in g],
        lambda g: g[2].append(1e9),
    ],
    ids=["decreasing", "nan", "too-few-features", "one-level", "ragged"],
)
def test_model_error_bad_stored_grid(workspace, tmp_path, capsys, edit):
    tmp, data, model = workspace
    doc = json.loads(model.read_text())
    edit(doc["grid"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "e.json"
    assert invoke("explain", "--model", str(bad), "--input", str(data), "--has-labels",
                  "--row", "0", "--out", str(out)) == 3
    assert "'grid'" in capsys.readouterr().err
    assert not out.exists()


def test_partly_flat_grid_names_the_constant_features(tmp_path, caplog):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(60, 15))
    rows[:, 1:13] = 2.5  # 12 of 15 features constant in training
    names = [f"g{j}" for j in range(15)]
    train = tmp_path / "train.csv"
    body = "\n".join(",".join(map(repr, r)) for r in rows.tolist())
    train.write_text(",".join(names) + "\n" + body + "\n")
    model = tmp_path / "model.json"
    assert invoke("fit", "--input", str(train), "--model", "iforest", "--seed", "1",
                  "--contamination", "0.1", "--out", str(model)) == 0
    for command, row in (("explain", ["--row", "4"]), ("overall", [])):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="anomex.cli"):
            assert invoke(command, "--model", str(model), "--input", str(train), *row,
                          "--out", str(tmp_path / f"{command}.json")) == 0
        flat = [r.getMessage() for r in caplog.records if "constant in" in r.getMessage()]
        assert flat == [
            "12 of 15 features are constant in the training data, so their sweeps are flat: "
            "g1, g2, g3, g4, g5, g6, g7, g8, g9, g10 and 2 more"
        ]


@pytest.mark.parametrize("command, flag", [
    ("explain", "--threads"),
    ("overall", "--threads"),
    ("bench", "--threads"),
    # explain and overall sweep the model's grid, so its K is not theirs to set
    ("explain", "--quantiles"),
    ("overall", "--quantiles"),
    # the threshold it set labelled only the timed row, so no output read it
    ("bench", "--contamination"),
], ids=["explain-threads", "overall-threads", "bench-threads", "explain-quantiles",
        "overall-quantiles", "bench-contamination"])
def test_usage_error_removed_flag(workspace, tmp_path, capsys, command, flag):
    tmp, data, model = workspace
    args = {
        "explain": ["--model", str(model), "--input", str(data), "--has-labels", "--row", "0"],
        "overall": ["--model", str(model), "--input", str(data), "--has-labels"],
        "bench": ["--suite", "background", "--seed", "1"],
    }[command]
    out = tmp_path / "out"
    # 51 is the model's own K
    assert invoke(command, *args, "--out", str(out), flag, "51") == 1
    assert f"unrecognized arguments: {flag} 51" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--suite", "background", "--fractions", "0.1,2"], "fraction must be in (0, 1], got 2.0"),
    (["--suite", "background", "--fractions", "0.1,x"], "could not convert string to float: 'x'"),
    (["--suite", "background", "--coalitions", "3"],
     "coalition budget must be >= d + 1 = 51 at d=50, got 3"),
    (["--suite", "background", "--quantiles", "1"], "--quantiles must be >= 2, got 1"),
    (["--suite", "dimension", "--quantiles", "1"], "--quantiles must be >= 2, got 1"),
    (["--suite", "dimension", "--dims", "3,x"], "invalid literal for int() with base 10: 'x'"),
    (["--suite", "background", "--trees", "0"], "need at least 1 tree, got 0"),
    # the d=3 workload was built and timed before d=0 failed
    (["--suite", "dimension", "--dims", "3,0"], "need at least one feature, got d=0"),
    (["--suite", "background", "--n", "1"], "need at least one normal and one anomalous row"),
    (["--suite", "background", "--repeats", "2"], "--repeats must be >= 3, got 2"),
])
def test_usage_error_bench_flag_before_any_workload_is_built(tmp_path, capsys, monkeypatch, flags,
                                                              message):
    def no_workload(*args):
        raise AssertionError("a bench workload was built before the flags were checked")

    monkeypatch.setattr(cli, "_bench_workload", no_workload)
    out = tmp_path / "bench.csv"
    assert invoke("bench", *flags, "--seed", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"anomex: usage error: {message}\n"
    assert not out.exists()


def test_usage_error_bench_suite_head2head_is_gone(tmp_path, capsys):
    # it was --suite background --fractions 0.1 under another name
    out = tmp_path / "bench.csv"
    assert invoke("bench", "--suite", "head2head", "--seed", "1", "--out", str(out)) == 1
    assert "invalid choice: 'head2head'" in capsys.readouterr().err
    assert not out.exists()


# ordinary floats, the extremes of float64 and subnormals
EXTREME_CELLS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 2.2e-308, 0.0]),
)


@st.composite
def extreme_csvs(draw):
    """CSV text of 2-30 rows and 1-4 columns; a column is free, constant or drawn from 1-3 ties."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        pool = draw(st.lists(EXTREME_CELLS, min_size=1, max_size=3))
        kind = draw(st.sampled_from(["free", "constant", "ties"]))
        cells = {"free": EXTREME_CELLS, "constant": st.just(pool[0]), "ties": st.sampled_from(pool)}
        columns.append(draw(st.lists(cells[kind], min_size=n, max_size=n)))
    header = ",".join(f"f{j}" for j in range(d))
    return "\n".join([header, *(",".join(map(repr, row)) for row in zip(*columns))]) + "\n"


def no_constant(name):
    raise AssertionError(f"{name} in a JSON artifact")


def run_cleanly(argv, artifact=None):
    """Exit code of ``anomex argv`` in process; fails on exit 1, a warning or a NaN artifact."""
    if artifact is not None:
        artifact.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = invoke(*argv)
    # exit 1 would misfile a data failure as the user's flag mistake
    assert code in (0, 2, 3, 4), (argv[0], err.getvalue())
    assert [str(w.message) for w in caught] == [], argv[0]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0 and artifact is not None:
        json.loads(artifact.read_text(), parse_constant=no_constant)
    return code


@settings(max_examples=100, deadline=None)
@given(text=extreme_csvs())
def test_valid_flags_on_extreme_csvs_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        data.write_text(text)
        for model in ("iforest", "loda"):
            path = tmp / f"{model}.json"
            fit = ["fit", "--input", str(data), "--model", model, "--seed", "1", "--out", str(path)]
            if run_cleanly(fit, path) != 0:
                continue
            common = ["--model", str(path), "--input", str(data)]
            run_cleanly(["score", *common, "--out", str(tmp / "scores.csv")])
            run_cleanly(["explain", *common, "--row", "0", "--svg", str(tmp / "e.svg"),
                         "--out", str(tmp / "e.json")], tmp / "e.json")
            run_cleanly(["overall", *common, "--svg", str(tmp / "h.svg"),
                         "--out", str(tmp / "h.json")], tmp / "h.json")
            run_cleanly(["shap", *common, "--row", "0", "--seed", "1",
                         "--out", str(tmp / "s.json")], tmp / "s.json")


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "anomex", line
        commands.append(cli._build_parser().parse_args(argv[1:]).command)
    assert commands == ["synth", "fit", "score", "explain", "overall", "shap", "bench"]


def test_model_error_bad_model_file(workspace, tmp_path):
    tmp, data, model = workspace
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format_version\": 42}")
    assert invoke("score", "--model", str(bad), "--input", str(data),
                  "--has-labels", "--out", str(tmp_path / "s.csv")) == 3


def test_model_error_feature_mismatch(workspace, tmp_path):
    tmp, data, model = workspace
    other = tmp_path / "other.csv"
    assert invoke("synth", "--n", "30", "--anomalies", "2", "--dims", "4",
                  "--root", "0", "--shift", "1", "--seed", "1", "--out", str(other)) == 0
    assert invoke("score", "--model", str(model), "--input", str(other),
                  "--has-labels", "--out", str(tmp_path / "s.csv")) == 3


def test_usage_error_row_out_of_range(workspace, tmp_path):
    tmp, data, model = workspace
    assert invoke("explain", "--model", str(model), "--input", str(data),
                  "--has-labels", "--row", "100000",
                  "--out", str(tmp_path / "e.json")) == 1


def test_usage_error_bad_weights(workspace, tmp_path):
    tmp, data, model = workspace
    assert invoke("explain", "--model", str(model), "--input", str(data),
                  "--has-labels", "--row", "0", "--weights", "0.5,0.5,0.5,0.5",
                  "--out", str(tmp_path / "e.json")) == 1


@pytest.mark.parametrize("command, weights", [
    ("explain", "0.3,0.3,0.4,nan"),
    ("overall", "nan,nan,nan,nan"),
    ("explain", "inf,0,0,0"),
])
def test_usage_error_non_finite_weights(workspace, tmp_path, capsys, command, weights):
    tmp, data, model = workspace
    row = ["--row", "0"] if command == "explain" else []
    out = tmp_path / "out.json"
    assert invoke(command, "--model", str(model), "--input", str(data), "--has-labels",
                  *row, "--weights", weights, "--out", str(out)) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("explain", ["--top-k", "0"]),
    # no flag sets a chart's size: argparse refuses one, at any value
    ("explain", ["--width", "900"]),
    ("overall", ["--width", "760", "--height", "420"]),
])
def test_usage_error_bad_chart_flags_write_no_file(workspace, tmp_path, command, flags):
    tmp, data, model = workspace
    row = ["--row", "0"] if command == "explain" else []
    out, svg = tmp_path / "out.json", tmp_path / "chart.svg"
    assert invoke(command, "--model", str(model), "--input", str(data), "--has-labels",
                  *row, "--out", str(out), "--svg", str(svg), *flags) == 1
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("coalitions", ["65537", "1000000000000"])
def test_usage_error_coalition_budget_too_large(workspace, tmp_path, capsys, coalitions):
    # d=6: the bound is MAX_COALITIONS; 10**12 used to end in a MemoryError traceback
    tmp, data, model = workspace
    out = tmp_path / "shap.json"
    assert invoke("shap", "--model", str(model), "--input", str(data), "--has-labels",
                  "--row", "0", "--coalitions", coalitions, "--seed", "3",
                  "--out", str(out)) == 1
    assert "usage error: coalition budget must be <= 65536" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("coalitions", ["2", "6"])
def test_usage_error_coalition_budget_below_d_plus_one(workspace, tmp_path, capsys, coalitions):
    # d=6: 2 used to exit 0 with the whole score gap on one feature
    tmp, data, model = workspace
    out = tmp_path / "shap.json"
    assert invoke("shap", "--model", str(model), "--input", str(data), "--has-labels",
                  "--row", "0", "--coalitions", coalitions, "--seed", "3",
                  "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"usage error: coalition budget must be >= d + 1 = 7 at d=6, got {coalitions}" in err
    assert not out.exists()


def test_inputs_never_mutated(workspace):
    tmp, data, model = workspace
    before = data.read_bytes()
    invoke("score", "--model", str(model), "--input", str(data),
           "--has-labels", "--out", str(tmp / "s.csv"))
    assert data.read_bytes() == before
