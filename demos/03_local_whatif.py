"""Explain one detected anomaly and render its what-if chart.

Run from the repository root:

    python3 demos/03_local_whatif.py

Writes demos/out/whatif.svg.
"""

from pathlib import Path

import numpy as np

from anomex import (
    IsolationForest,
    SynthSpec,
    Weights,
    build_quantile_grid,
    explain,
    fit_threshold,
    generate,
    render_whatif,
)

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

data = generate(SynthSpec(n_normal=3000, n_anomalies=60, d=8,
                          root_feature=4, shift=5.0, seed=21))
model = IsolationForest.fit(data, trees=100, subsample=256, seed=1)
scores = model.score(data.rows)
tau = fit_threshold(scores, contamination=0.02)

# Pick the most anomalous point and explain it over a 51-level grid.
target = int(np.argmax(scores))
grid = build_quantile_grid(data, k_levels=51)
expl = explain(model.score, data.rows[target], grid, Weights(), tau,
               feature_names=data.feature_names)

print(f"point {target}: score {expl.score:.3f} ({expl.classification.value}), "
      f"threshold {tau:.3f}")
print(f"\n{'feature':>8} {'D':>6} {'R':>6} {'C':>4} {'Q':>6} {'importance':>11}")
for j in expl.ranking:
    m = expl.metrics[j]
    print(f"{expl.feature_names[j]:>8} {m.delta:6.3f} {m.ratio:6.3f} "
          f"{int(m.class_change):>4} {m.change_distance:6.3f} {expl.importance[j]:11.3f}")

top = expl.ranking[0]
flip_scores = expl.sweep[top] <= tau
if flip_scores.any():
    lv = float(expl.levels[flip_scores][0])
    print(f"\nmoving {expl.feature_names[top]} to its level-{lv:.2f} quantile "
          f"would classify the point as normal")

svg_path = OUT / "whatif.svg"
svg_path.write_text(render_whatif(expl, top_k=8))
print(f"wrote {svg_path}")
