#!/usr/bin/env python3
"""Binary feature selection over the 34 measurement channels.

A wrapper setup: candidate masks are scored by the validation accuracy of a
KNN trained on the masked columns. All three searchers (binary cuckoo
search, binary PSO, genetic algorithm) run on the same fitness context,
which caches mask evaluations, so identical masks are never refit.
"""

import numpy as np

from fdilab import (
    NoiseModel,
    build_jacobian,
    fitness,
    generate_dataset,
    load_builtin,
    make_fitness_context,
    run_search,
)

sys14 = load_builtin("ieee14")
jac = build_jacobian(sys14)
ds = generate_dataset(sys14, 600, 0.5, NoiseModel(0.01), 0.1, None, seed=0)

ctx = make_fitness_context(ds.X, ds.y, seed=0)
full = fitness(np.ones(ctx.n_features, dtype=bool), ctx)
print(f"wrapper baseline: all {ctx.n_features} channels -> "
      f"validation accuracy {full:.3f}\n")

for method in ("bcs", "bpso", "ga"):
    res = run_search(method, ctx, None, rng=np.random.default_rng(1))
    picked = [jac.row_labels[i] for i in np.flatnonzero(res.best_mask)]
    print(f"{method:>4}: fitness {res.best_fitness:.3f} with "
          f"{res.n_selected}/{ctx.n_features} channels "
          f"({res.evaluations} evaluations)")
    print(f"      kept: {', '.join(picked[:6])}"
          + (f", ... +{len(picked) - 6} more" if len(picked) > 6 else ""))
    climb = " -> ".join(f"{v:.3f}" for v in res.trace[:5])
    print(f"      trace: {climb} ...\n")

print(f"cache stats: {ctx.evals} mask evaluations, "
      f"only {ctx.trainings} actual fits")
