"""Aggregate local rankings over every detected anomaly into one chart.

Run from the repository root:

    python3 demos/04_overall_importance.py

Writes demos/out/rank_bars.svg.
"""

from pathlib import Path

import numpy as np

from anomex import (
    IsolationForest,
    SynthSpec,
    Weights,
    build_quantile_grid,
    fit_threshold,
    generate,
    merge_others,
    overall_importance,
    render_rank_bars,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

data = generate(SynthSpec(n_normal=3000, n_anomalies=60, d=8,
                          root_feature=4, shift=5.0, seed=21))
model = IsolationForest.fit(data, trees=300, subsample=256, seed=1)
tau = fit_threshold(model.score(data.rows), contamination=0.02)
grid = build_quantile_grid(data, k_levels=51)

# Every flagged point gets a local explanation; the rank positions are
# then histogrammed. Position 1 = most important.
hist = overall_importance(model.score, data, grid, Weights(), tau, top_positions=5)
print(f"explained {hist.n_anomalies} detected anomalies")

print("\nshare of rank positions (rows: features, columns: positions 1-5):")
header = "  ".join(f"pos{k}" for k in range(1, hist.n_positions + 1))
print(f"{'feature':>8}  {header}")
for j, name in enumerate(hist.feature_names):
    cells = "  ".join(f"{v:4.0%}" for v in hist.matrix[j])
    print(f"{name:>8}  {cells}")

leader = hist.feature_names[int(np.argmax(hist.matrix[:, 0]))]
print(f"\nmost frequent rank-1 feature: {leader} "
      f"(injected root cause was f4)")

# Fold rarely-ranked features into 'others' for the chart.
merged = merge_others(hist, cutoff=0.05)
svg_path = OUT / "rank_bars.svg"
svg_path.write_text(render_rank_bars(merged))
print(f"wrote {svg_path} ({len(merged.feature_names)} legend rows)")
