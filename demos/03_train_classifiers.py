#!/usr/bin/env python3
"""Train the three detectors on simulated 14-bus data.

The residual test is blind to structured injections, so detection moves to
supervised learning on raw measurement vectors. This script simulates a
labeled dataset (half the samples carry a stealthy injection), trains the
Gaussian-kernel SVM, KNN and the one-hidden-layer network, and compares
test accuracy.
"""

from fdilab import (
    AnnConfig,
    KnnConfig,
    NoiseModel,
    SvmConfig,
    accuracy,
    generate_dataset,
    load_builtin,
    predict,
    train_model,
)

sys14 = load_builtin("ieee14")
noise = NoiseModel(sigma=0.01)

train = generate_dataset(sys14, 800, 0.5, noise, 0.1, None, seed=0)
test = generate_dataset(sys14, 200, 0.5, noise, 0.1, None, seed=1)
print(f"train: {train.n_samples} x {train.n_features} "
      f"({int(train.y.sum())} attacked), test: {test.n_samples} samples")
print()

configs = {"svm": SvmConfig(), "knn": KnnConfig(), "ann": AnnConfig()}
for kind, cfg in configs.items():
    model = train_model(train.X, train.y, kind, cfg)
    acc = accuracy(predict(model, test.X), test.y)
    extra = ""
    if kind == "svm":
        extra = f", {len(model.params['sv_alpha'])} support vectors"
    if kind == "ann":
        extra = f", hidden layer of {model.params['W1'].shape[0]} nodes"
    print(f"{kind:>4}: test accuracy {acc:.3f}{extra}")
