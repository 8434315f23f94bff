"""Command-line driver: fit, score, explain, overall, shap, bench, synth.

Exit codes: 0 ok, 1 usage, 2 data error, 3 model error, 4 numeric
failure. Randomized subcommands require --seed (or the ANOMEX_SEED
environment variable; the flag wins). All machine artifacts are JSON or
CSV and byte-stable for identical inputs and seed.

``fit`` stores the quantile grid of the training data in the model, and
``explain`` and ``overall`` sweep only that grid, so an explanation does
not depend on the other rows of --input; a model saved without one is a
model error there, while ``score`` and ``shap`` accept it. A format
version 1 model is a model error for every command, which names
``anomex fit`` as the way to a current one. ``explain`` reads only the
header and its own row of --input.
``shap`` samples its background from --input. ``bench`` times the
sweep and KernelSHAP over ``--fractions`` of a synthetic forest
workload (suite ``background``), or the sweep alone on one such
workload per ``--dims`` value (suite ``dimension``); its CSV leaves K
empty on KernelSHAP rows, which sweep no grid. Each flag's value is
checked by its own rule as the command line is parsed; --coalitions,
--top-k and the synth spec, which need d or several flags, are checked
before --input is read or data generated. Warnings and the label
diagnostics of ``score`` and ``overall`` go to stderr through ``logging``.

Importing this module loads ``anomex.data``, ``.detectors``, ``.explainer``
and ``.errors``; each command imports the other modules it calls when it runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from anomex.data import (
    Dataset,
    QuantileGrid,
    RowOutOfRange,
    build_quantile_grid,
    check_background_fraction,
    classify,
    fit_threshold,
    load_csv,
    load_csv_row,
    save_csv,
)
from anomex.detectors import (
    IsolationForest,
    Loda,
    average_precision,
    check_forest_params,
    check_loda_params,
    read_model,
    save_model,
)
from anomex.errors import DataError, ModelError, NumericError
from anomex.explainer import explain, explanation_to_dict, validate_weights

SEED_ENV_VAR = "ANOMEX_SEED"
DEFAULT_QUANTILES = 51
# The bench forest's per-tree sample, and the share of rows it flags.
# The threshold only labels the explained row: it changes no timed work.
_BENCH_SUBSAMPLE = 256
_BENCH_CONTAMINATION = 0.01
# Zero-width grid columns named in the warning; the rest are counted.
_NAMED_FLAT_FEATURES = 10

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _usage(check: Callable, *args, **kwargs):
    """``check(*args, **kwargs)``, its ValueError raised as a UsageError of the same message."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _flag(parse: Callable[[str], object], check: Callable) -> Callable[[str], object]:
    """An argparse ``type=``: ``parse`` the text, then ``check`` the value under ``_usage``.

    The flag holds what ``check`` returns, or the parsed value if that is None.
    """
    def convert(text: str) -> object:
        value = parse(text)
        checked = _usage(check, value)
        return value if checked is None else checked

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value: 'x'"
    return convert


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


_seed = _flag(int, lambda v: _require(v >= 0, f"--seed must be >= 0, got {v}"))


def _repeats(value: int) -> None:
    from anomex.bench import MIN_REPEATS

    _require(value >= MIN_REPEATS, f"--repeats must be >= {MIN_REPEATS}, got {value}")


def _fractions(text: str) -> list[float]:
    fractions = sorted(float(f) for f in text.split(","))
    for fraction in fractions:
        check_background_fraction(fraction)
    return fractions


def _build_parser() -> _Parser:
    parser = _Parser(prog="anomex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    row = _flag(int, lambda v: _require(v >= 0, f"--row must be >= 0, got {v}"))
    quantiles = _flag(int, lambda v: _require(v >= 2, f"--quantiles must be >= 2, got {v}"))
    weights = _flag(str, lambda text: validate_weights(text.split(",")))
    trees = _flag(int, lambda n: check_forest_params(n, subsample=2))

    p = sub.add_parser("fit", help="fit a detector on a CSV and save it as JSON")
    p.add_argument("--input", required=True, help="training CSV with a header row")
    p.add_argument("--model", required=True, choices=("iforest", "loda"))
    p.add_argument("--contamination", default=0.05, type=_flag(
        float, lambda v: _require(0 < v < 1, f"--contamination must be in (0, 1), got {v}")))
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--has-labels", action="store_true", help="input has a trailing label column")
    p.add_argument("--trees", type=trees, default=100, help="iforest: ensemble size")
    p.add_argument("--subsample", type=_flag(int, lambda n: check_forest_params(1, n)),
                   default=256, help="iforest: per-tree sample size")
    p.add_argument("--projections", type=_flag(int, lambda n: check_loda_params(n, bins=1)),
                   default=100, help="loda: projection count")
    p.add_argument("--bins", type=_flag(int, lambda n: check_loda_params(1, n)), default=100,
                   help="loda: histogram bins")
    p.add_argument("--quantiles", type=quantiles, default=DEFAULT_QUANTILES,
                   help="levels K of the training grid stored in the model")

    p = sub.add_parser("score", help="score a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="scores CSV path")
    p.add_argument("--has-labels", action="store_true")

    p = sub.add_parser("explain", help="what-if explanation of one row")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--row", type=row, required=True, help="0-based row index")
    p.add_argument("--weights", type=weights, default="0.3,0.3,0.2,0.2", help="wD,wC,wQ,wR")
    p.add_argument("--out", required=True, help="explanation JSON path")
    p.add_argument("--svg", default=None, help="optional what-if chart path")
    p.add_argument("--top-k", type=int, default=None, help="rows in the chart")
    p.add_argument("--has-labels", action="store_true")

    p = sub.add_parser("overall", help="rank histogram over all detected anomalies")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--positions", help="rank positions (default min(d, 10))", type=_flag(
        int, lambda v: _require(v >= 1, f"--positions must be >= 1, got {v}")))
    p.add_argument("--cutoff", default=0.05, help="merge share for 'others'", type=_flag(
        float, lambda v: _require(0 < v < 1, f"--cutoff must be in (0, 1), got {v}")))
    p.add_argument("--weights", type=weights, default="0.3,0.3,0.2,0.2")
    p.add_argument("--out", required=True, help="histogram JSON path")
    p.add_argument("--svg", default=None, help="optional stacked bar chart path")
    p.add_argument("--has-labels", action="store_true")

    p = sub.add_parser("shap", help="KernelSHAP baseline explanation of one row")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--row", type=row, required=True)
    p.add_argument("--background-frac", type=_flag(float, check_background_fraction), default=0.1)
    p.add_argument("--coalitions", type=int, default=None, help="default 2d + 2048")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--has-labels", action="store_true")

    p = sub.add_parser("bench", help="latency suites (timing tables + CSV)")
    p.add_argument("--suite", required=True, choices=("background", "dimension"))
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--fractions", type=_flag(str, _fractions), default="0.05,0.1,0.2,0.5")
    p.add_argument("--dims", default="10,20,40",
                   type=_flag(str, lambda text: sorted(int(v) for v in text.split(","))))
    p.add_argument("--coalitions", type=int, default=None)
    p.add_argument("--quantiles", type=quantiles, default=DEFAULT_QUANTILES)
    p.add_argument("--repeats", type=_flag(int, _repeats), default=None)  # None: MIN_REPEATS
    p.add_argument("--trees", type=trees, default=100)

    p = sub.add_parser("synth", help="generate a labeled synthetic CSV")
    p.add_argument("--n", type=int, required=True, help="normal rows")
    p.add_argument("--anomalies", type=int, required=True)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--root", type=int, required=True, help="shifted feature index")
    p.add_argument("--shift", type=float, required=True, help="shift in std units")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True, help="CSV path")
    return parser


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _usage(_seed, env)
        except UsageError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer >= 0, got {env!r}") from None
    raise UsageError(f"--seed is required (or set {SEED_ENV_VAR})")


def _check_features(names: tuple[str, ...], model_names: tuple[str, ...]) -> None:
    if names != model_names:
        raise ModelError(
            f"input features {list(names)} do not match model features {list(model_names)}"
        )


def _load_compatible(path: str, model_names: tuple[str, ...], has_labels: bool) -> Dataset:
    data = load_csv(path, has_labels=has_labels)
    _check_features(data.feature_names, model_names)
    return data


def _read_row(path: str, row: int, model_names: tuple[str, ...], has_labels: bool) -> np.ndarray:
    try:
        data = load_csv_row(path, row, has_labels=has_labels)
    except RowOutOfRange as exc:
        raise _row_out_of_range(row, exc.n_rows) from None
    _check_features(data.feature_names, model_names)
    return data.rows[0]


def _row_out_of_range(row: int, n_rows: int) -> UsageError:
    return UsageError(f"--row {row} out of range [0, {n_rows})")


def _training_grid(grid: QuantileGrid | None, names: tuple[str, ...]) -> QuantileGrid:
    """The model's training grid; ModelError without one, DataError if no feature has spread.

    Over a grid with no spread every curve is flat and every importance 0,
    so the ranking would only echo the feature order. Features without
    spread are named in a warning.
    """
    if grid is None:
        raise ModelError(
            "the model holds no quantile grid (it was saved without one); "
            "refit it with anomex fit"
        )
    flat = np.flatnonzero(grid.values[:, -1] == grid.values[:, 0])
    if flat.size == len(names):
        raise DataError(
            "every feature is constant in the training data: "
            "the quantile grid has zero width, so no feature can be ranked"
        )
    if flat.size:
        shown = ", ".join(names[j] for j in flat[:_NAMED_FLAT_FEATURES])
        more = flat.size - _NAMED_FLAT_FEATURES
        logger.warning(
            "%d of %d features are constant in the training data, so their sweeps are "
            "flat: %s%s", flat.size, len(names), shown, f" and {more} more" if more > 0 else "",
        )
    return grid


def _log_label_diagnostics(labels: np.ndarray, scores: np.ndarray, threshold: float) -> None:
    """One stderr line on how the flagged rows relate to the labelled anomalies."""
    flagged = scores > threshold
    hits = int(labels[flagged].sum())
    precision = f"{hits / flagged.sum():.4g}" if flagged.any() else "undefined"
    ap = f"{average_precision(labels, scores):.4g}" if labels.any() else "undefined"
    logger.info(
        "labels: average precision %s (base rate %.4g), precision at the threshold %s, "
        "%d of %d flagged rows are labelled anomalies",
        ap, labels.mean(), precision, hits, int(flagged.sum()),
    )


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_fit(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    data = load_csv(args.input, has_labels=args.has_labels)
    if args.model == "iforest":
        detector = IsolationForest.fit(data, trees=args.trees, subsample=args.subsample, seed=seed)
    else:
        detector = Loda.fit(data, projections=args.projections, bins=args.bins, seed=seed)
    threshold = fit_threshold(detector.score(data.rows), args.contamination)
    grid = build_quantile_grid(data, args.quantiles)
    save_model(detector, threshold, args.contamination, args.out, grid)
    print(f"fitted {args.model} on {data.n_rows}x{data.n_features}, threshold={threshold:.6g}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    detector, threshold, _, _ = read_model(args.model)
    data = _load_compatible(args.input, detector.feature_names, args.has_labels)
    scores = detector.score(data.rows)
    if args.has_labels:
        _log_label_diagnostics(data.labels, scores, threshold)
    lines = ["row,score,classification"]
    for i, s in enumerate(scores):
        lines.append(f"{i},{float(s)!r},{classify(float(s), threshold).value}")
    _write_text(args.out, "\n".join(lines) + "\n")
    n_anom = int((scores > threshold).sum())
    print(f"scored {data.n_rows} rows, {n_anom} anomalous at threshold {threshold:.6g}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from anomex import viz

    detector, threshold, _, grid = read_model(args.model)
    names = detector.feature_names
    _usage(viz.whatif_top_k, args.top_k, len(names))
    grid = _training_grid(grid, names)
    x = _read_row(args.input, args.row, names, args.has_labels)
    expl = explain(detector.score, x, grid, args.weights, threshold, feature_names=names)
    svg = viz.render_whatif(expl, top_k=args.top_k) if args.svg else None
    _write_text(args.out, _dump_json(explanation_to_dict(expl, point_id=args.row)))
    if svg:
        _write_text(args.svg, svg)
    if not expl.metrics.class_change.any():
        logger.warning(
            "row %d: no feature's sweep changes the classification (C = 0 for every "
            "feature), so Q carries no information for this row",
            args.row,
        )
    top = expl.feature_names[expl.ranking[0]]
    print(
        f"row {args.row}: score={expl.score:.6g} ({expl.classification.value}), "
        f"top feature {top}"
    )
    return 0


def _cmd_overall(args: argparse.Namespace) -> int:
    from anomex import viz
    from anomex.aggregate import histogram_to_dict, merge_others, overall_importance

    detector, threshold, _, grid = read_model(args.model)
    grid = _training_grid(grid, detector.feature_names)
    data = _load_compatible(args.input, detector.feature_names, args.has_labels)
    scores = detector.score(data.rows)
    if args.has_labels:
        _log_label_diagnostics(data.labels, scores, threshold)
    hist = overall_importance(
        detector.score, data, grid, args.weights, threshold, top_positions=args.positions,
        scores=scores,
    )
    # the summary names a real feature, so it reads the histogram before
    # small features are folded into the synthetic 'others' row
    top = hist.feature_names[int(np.argmax(hist.matrix[:, 0]))]
    hist = merge_others(hist, args.cutoff)
    svg = viz.render_rank_bars(hist) if args.svg else None
    _write_text(args.out, _dump_json(histogram_to_dict(hist)))
    if svg:
        _write_text(args.svg, svg)
    print(f"{hist.n_anomalies} anomalies explained, top rank-1 feature {top}")
    return 0


def _cmd_shap(args: argparse.Namespace) -> int:
    from anomex.shap_baseline import coalition_budget, kernel_shap, sample_background, shap_to_dict

    seed = _require_seed(args)
    detector, threshold, _, _ = read_model(args.model)
    coalitions = _usage(coalition_budget, args.coalitions, len(detector.feature_names))
    data = _load_compatible(args.input, detector.feature_names, args.has_labels)
    if args.row >= data.n_rows:
        raise _row_out_of_range(args.row, data.n_rows)
    background = sample_background(data, args.background_frac, seed)
    expl = kernel_shap(detector.score, data.rows[args.row], background, coalitions, seed)
    _write_text(args.out, _dump_json(shap_to_dict(expl, point_id=args.row, threshold=threshold)))
    print(
        f"row {args.row}: score={expl.score:.6g}, background={expl.background_size}, "
        f"coalitions={expl.coalitions}"
    )
    return 0


def _bench_workload(spec, trees: int):
    """Synth data of a SynthSpec + fitted forest + the most anomalous point to explain."""
    from anomex.synth import generate

    data = generate(spec)
    detector = IsolationForest.fit(data, trees=trees, subsample=_BENCH_SUBSAMPLE, seed=spec.seed)
    scores = detector.score(data.rows)
    threshold = fit_threshold(scores, _BENCH_CONTAMINATION)
    x = data.rows[int(np.argmax(scores))]
    return data, detector, threshold, x


def _cmd_bench(args: argparse.Namespace) -> int:
    from anomex import bench
    from anomex.shap_baseline import coalition_budget
    from anomex.synth import SynthSpec

    seed = _require_seed(args)
    repeats = bench.MIN_REPEATS if args.repeats is None else args.repeats
    background = args.suite == "background"
    anomalies = max(1, args.n // 100)  # 1% of the rows, at least one
    specs = [
        _usage(SynthSpec, n_normal=args.n - anomalies, n_anomalies=anomalies, d=d,
               root_feature=0, shift=4.0, seed=seed)
        for d in ([args.d] if background else args.dims)
    ]
    coalitions = _usage(coalition_budget, args.coalitions, args.d) if background else None
    records: list[bench.TimingRecord] = []
    for spec in specs:
        data, detector, threshold, x = _bench_workload(spec, args.trees)
        grid = build_quantile_grid(data, args.quantiles)
        records.append(bench.time_explain(
            detector.score, x, grid, threshold, data.n_rows, repeats
        ))
        if background:
            records.extend(bench.background_sweep(
                detector.score, x, data, args.fractions, coalitions, seed, repeats
            ))
    _write_text(args.out, bench.records_to_csv(records))
    print(bench.format_table(records), end="")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from anomex.synth import SynthSpec, generate

    seed = _require_seed(args)
    spec = _usage(SynthSpec, args.n, args.anomalies, args.dims, args.root, args.shift, seed)
    data = generate(spec)
    save_csv(data, args.out)
    print(f"wrote {data.n_rows} rows x {data.n_features} features to {args.out}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "score": _cmd_score,
    "explain": _cmd_explain,
    "overall": _cmd_overall,
    "shap": _cmd_shap,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"anomex: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"anomex: data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"anomex: model error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"anomex: numeric error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
