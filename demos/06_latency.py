"""Time a single explanation for both methods and sweep the background.

Run from the repository root:

    python3 demos/06_latency.py

Desk-scale workload (n=6000, d=30) so the demo finishes in well under a
minute; the full-size sweeps live in the bench CLI suite and the
acceptance tests.
"""

import numpy as np

from anomex import (
    IsolationForest,
    SynthSpec,
    background_sweep,
    build_quantile_grid,
    fit_threshold,
    format_table,
    generate,
    linear_fit,
    time_explain,
)

data = generate(SynthSpec(n_normal=5940, n_anomalies=60, d=30,
                          root_feature=0, shift=4.0, seed=33))
model = IsolationForest.fit(data, trees=100, subsample=256, seed=3)
scores = model.score(data.rows)
tau = fit_threshold(scores, contamination=0.01)
x = data.rows[int(np.argmax(scores))]
grid = build_quantile_grid(data, k_levels=51)

records = [time_explain(model.score, x, grid, tau, data.n_rows, repeats=3)]
records += background_sweep(model.score, x, data, (0.05, 0.1, 0.25, 0.5),
                            coalitions=256, seed=3, repeats=3)
print(format_table(records))

sweep = records[1:]
sizes = [r.background_size for r in sweep]
times = [r.seconds for r in sweep]
slope, intercept, r2 = linear_fit(sizes, times)
print(f"background sweep fit: {slope * 1e3:.3f} ms per background row, R2={r2:.3f}")
speedup = records[1].seconds / records[0].seconds
print(f"quantile sweep vs kernelshap at 5% background: {speedup:.0f}x faster")
