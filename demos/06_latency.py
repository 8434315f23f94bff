"""Time a single explanation for both methods and sweep the background.

Run from the repository root:

    python3 demos/06_latency.py

Desk-scale workload (n=6000, d=30) so the demo finishes in well under a
minute; the full-size sweeps live in the bench CLI suite and the
acceptance tests.
"""

from dataclasses import replace

import numpy as np

from anomex import (
    BenchSetup,
    IsolationForest,
    SynthSpec,
    Weights,
    background_sweep,
    build_quantile_grid,
    fit_threshold,
    format_table,
    generate,
    linear_fit,
    sample_background,
    time_single_explanation,
)

data = generate(SynthSpec(n_normal=5940, n_anomalies=60, d=30,
                          root_feature=0, shift=4.0, seed=33))
model = IsolationForest.fit(data, trees=100, subsample=256, seed=3)
scores = model.score(data.rows)
tau = fit_threshold(scores, contamination=0.01)
x = data.rows[int(np.argmax(scores))]
grid = build_quantile_grid(data, k_levels=51)

setup = BenchSetup(grid=grid, weights=Weights(), threshold=tau,
                   n=data.n_rows, seed=3, coalitions=256)

records = [time_single_explanation("acme_ad", model.score, x, setup, repeats=3)]
records += background_sweep(model.score, x, data, (0.05, 0.1, 0.25, 0.5),
                            setup, repeats=3)
print(format_table(records))

sweep = records[1:]
sizes = [r.background_size for r in sweep]
times = [r.seconds for r in sweep]
slope, intercept, r2 = linear_fit(sizes, times)
print(f"background sweep fit: {slope * 1e3:.3f} ms per background row, R2={r2:.3f}")
speedup = records[1].seconds / records[0].seconds
print(f"quantile sweep vs kernelshap at 5% background: {speedup:.0f}x faster")
