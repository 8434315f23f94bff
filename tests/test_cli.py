import csv
import json

import numpy as np
import pytest

from anomex.cli import SEED_ENV_VAR, run
from anomex.data import load_csv
from anomex.detectors import load_model
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
    tmp, data, model = workspace
    out = tmp / "expl.json"
    svg = tmp / "expl.svg"
    code = invoke(
        "explain", "--model", str(model), "--input", str(data), "--has-labels",
        "--row", "805", "--weights", "0.3,0.3,0.2,0.2", "--quantiles", "31",
        "--out", str(out), "--svg", str(svg),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["weights"] == {"D": 0.3, "C": 0.3, "Q": 0.2, "R": 0.2}
    assert len(doc["features"][0]["curve"]) == 31
    assert svg.exists()


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


def test_bench_head2head_writes_csv(workspace, capsys):
    tmp, data, model = workspace
    out = tmp / "bench.csv"
    code = invoke(
        "bench", "--suite", "head2head", "--out", str(out), "--seed", "1",
        "--n", "400", "--d", "6", "--coalitions", "48", "--quantiles", "11",
        "--trees", "20",
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,background_size,n,d,K,coalitions,seconds"
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods == ["acme_ad", "kernelshap"]
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
    assert len(lines) == 3
    assert [ln.split(",")[3] for ln in lines[1:]] == ["3", "5"]


# -- failure modes map to documented exit codes -----------------------------------


def test_usage_error_unknown_flag():
    assert invoke("synth", "--bogus") == 1


def test_usage_error_no_subcommand():
    assert invoke() == 1


def test_usage_error_missing_seed(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert invoke("synth", "--n", "10", "--anomalies", "2", "--dims", "2",
                  "--root", "0", "--shift", "1", "--out", str(tmp_path / "x.csv")) == 1


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


@pytest.mark.parametrize("command", ["explain", "overall"])
def test_data_error_flat_grid(workspace, capsys, command):
    # one row of the training data: every column of its grid has zero width
    tmp, data, model = workspace
    lines = data.read_text().splitlines()
    one_row = tmp / "one_row.csv"
    one_row.write_text(lines[0] + "\n" + lines[806] + "\n")
    out = tmp / "out.json"
    row = ["--row", "0"] if command == "explain" else []
    code = invoke(command, "--model", str(model), "--input", str(one_row), "--has-labels",
                  *row, "--out", str(out), "--svg", str(tmp / "out.svg"))
    assert code == 2
    assert "quantile grid has zero width" in capsys.readouterr().err
    assert not out.exists() and not (tmp / "out.svg").exists()


@pytest.mark.parametrize("command", ["explain", "overall", "bench"])
def test_usage_error_threads_flag_is_gone(workspace, tmp_path, command):
    tmp, data, model = workspace
    args = {
        "explain": ["--model", str(model), "--input", str(data), "--has-labels", "--row", "0"],
        "overall": ["--model", str(model), "--input", str(data), "--has-labels"],
        "bench": ["--suite", "head2head", "--seed", "1"],
    }[command]
    out = tmp_path / "out"
    assert invoke(command, *args, "--out", str(out), "--threads", "1") == 1
    assert not out.exists()


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


def test_inputs_never_mutated(workspace):
    tmp, data, model = workspace
    before = data.read_bytes()
    invoke("score", "--model", str(model), "--input", str(data),
           "--has-labels", "--out", str(tmp / "s.csv"))
    assert data.read_bytes() == before
