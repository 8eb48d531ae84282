#!/usr/bin/env python3
"""A reduced end-to-end benchmark run, in library calls.

Same pipeline as `fdilab benchmark`, scaled down so it finishes in about a
minute: one system, NO-FS baseline plus GA selection, SVM and KNN. The
printed report has one block per system with FS methods as rows.

Every number below is a pure function of the ExperimentSpec: rerunning
this script reproduces it bit for bit (search times aside).
"""

from fdilab import ExperimentSpec, GaParams, render_report, run_matrix
from fdilab.bench import subseed

spec = ExperimentSpec(
    systems=("ieee14",),
    fs_methods=("none", "ga"),
    classifiers=("svm", "knn"),
    n_train=400,
    n_test=200,
    seed=0,
    ga=GaParams(population=20, iterations=10),
)

print(f"derived stream for the GA search: "
      f"{subseed(spec.seed, 'ieee14', 'ga', 'search')}")
print("running ...\n")

fs_log = {}
rows = run_matrix(spec, fs_log=fs_log)
print(render_report(rows))

for (system, method), (res, seconds) in sorted(fs_log.items()):
    print(f"{system}/{method}: best wrapper fitness {res.best_fitness:.3f}, "
          f"{res.evaluations} evaluations in {seconds:.1f}s")

print("\nfor the file-producing version of this run, put the searcher params")
print("in a config file (ga_population = 20, ga_iterations = 10) and:")
print("  fdilab benchmark --config small.cfg --systems ieee14 --fs none,ga \\")
print("      --classifier svm,knn --n-train 400 --n-test 200 --seed 0 \\")
print("      --out-dir bench_out")
