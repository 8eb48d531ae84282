"""The ten acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities (visible
with pytest -s, or in captured output on failure) and enforces its runtime
budget. Criteria 4, 8 and 9 share one desk-scale benchmark run through a
session fixture; its cost is charged to the first test that uses it.
"""

import time

import numpy as np
import pytest

from fdilab import (
    AnnConfig,
    ExperimentSpec,
    NoiseModel,
    SvmConfig,
    build_jacobian,
    calibrate_threshold,
    generate_dataset,
    load_builtin,
    run_matrix,
    stealthiness_report,
    train_model,
    wls_estimate,
)
from fdilab.attack import batch_residuals
from fdilab.classify import _gram, ann_init
from fdilab.cli import main as cli_main
from fdilab.featsel import fitness, make_fitness_context, run_search

from oracles import (
    ann_loss_fd,
    ann_loss_grads,
    duality_gap,
    exhaustive_best_mask,
    random_connected_system,
    svm_dual_objective as dual_obj_loops,
    svm_model_dual_objective,
    wls_oracle,
)
from test_classify import full_alpha
from test_featsel import synthetic_dataset


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


@pytest.fixture(scope="session")
def desk_matrix():
    """Default-config 14-bus benchmark at 2000/500, SVM + KNN, all FS methods."""
    spec = ExperimentSpec(classifiers=("svm", "knn"))
    fs_log = {}
    t0 = time.perf_counter()
    rows = run_matrix(spec, fs_log=fs_log)
    return rows, fs_log, time.perf_counter() - t0


def test_criterion_01_stealth_identity():
    t0 = time.perf_counter()
    sys = load_builtin("ieee14")
    noise = NoiseModel(0.01)
    ds = generate_dataset(sys, 2000, 0.5, noise, 0.1, None, seed=2025)
    clean_X = generate_dataset(sys, 2000, 0.0, noise, 0.1, None, seed=2025).X
    jac = build_jacobian(sys)
    attacked = ds.y == 1
    assert int(attacked.sum()) == 1000
    var = noise.sigma ** 2
    res_bad = batch_residuals(ds.X[attacked], jac, var)
    res_clean = batch_residuals(clean_X[attacked], jac, var)
    worst = float(np.max(np.abs(res_bad - res_clean)))
    thr = calibrate_threshold(sys, noise, n_samples=500, quantile=0.95, seed=7)
    clean_rate, attacked_rate = stealthiness_report(ds, jac, var, thr)
    delta_pts = abs(clean_rate - attacked_rate) * 100.0
    ok = worst < 1e-8 and delta_pts < 2.0
    report(1, ok, f"max |d residual| = {worst:.2e} over 1000 attacked samples, "
                  f"flag-rate delta = {delta_pts:.2f} pts "
                  f"(clean {clean_rate:.3f} vs attacked {attacked_rate:.3f})",
           time.perf_counter() - t0, 30.0)


def test_criterion_02_wls_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_est = 0.0
    worst_rec = 0.0
    for _ in range(100):
        sys = random_connected_system(rng, 3, 10)
        jac = build_jacobian(sys)
        x = rng.normal(0.0, 0.2, sys.n_states)
        z_clean = jac.matrix @ x
        z = z_clean + rng.normal(0.0, 0.02, jac.n_measurements)
        got = wls_estimate(jac, 1e-4, z)
        want = wls_oracle(jac.matrix, 1e-4, z)
        worst_est = max(worst_est, float(np.max(np.abs(got - want))))
        rec = wls_estimate(jac, 1e-4, z_clean)
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - x))))
    ok = worst_est < 1e-10 and worst_rec < 1e-10
    report(2, ok, f"100 random 3-10 bus systems: max oracle gap {worst_est:.2e}, "
                  f"max noiseless recovery error {worst_rec:.2e}",
           time.perf_counter() - t0, 10.0)


def test_criterion_03_measurement_dimensions():
    t0 = time.perf_counter()
    dims = {}
    for name in ("ieee14", "ieee57", "ieee118"):
        sys = load_builtin(name)
        jac = build_jacobian(sys)
        ds = generate_dataset(sys, 5, 0.5, NoiseModel(0.01), 0.1, None, seed=0)
        assert ds.n_features == jac.n_measurements
        dims[name] = jac.n_measurements
    ok = dims == {"ieee14": 34, "ieee57": 137, "ieee118": 304}
    report(3, ok, f"measurement dimensions {dims}", time.perf_counter() - t0, 60.0)


def test_criterion_04_classifier_quality_band(desk_matrix):
    rows, _, setup_s = desk_matrix
    t0 = time.perf_counter()
    by = {(r.fs_method, r.classifier): r.accuracy for r in rows}
    svm_acc = by[("none", "svm")]
    knn_acc = by[("none", "knn")]
    ok = svm_acc >= 0.85 and knn_acc >= 0.75
    report(4, ok, f"full-feature 14-bus at 2000/500: SVM {svm_acc:.4f} (>= 0.85), "
                  f"KNN {knn_acc:.4f} (>= 0.75)",
           time.perf_counter() - t0 + setup_s, 300.0)


def test_criterion_05_ann_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(2, 7))
        B = int(rng.integers(2, 8))
        params = ann_init(L, 2, seed=int(rng.integers(0, 10_000)))
        for key in params:
            params[key] = params[key] + rng.normal(0.0, 0.3, params[key].shape)
        X = rng.normal(0.0, 1.0, (B, L))
        Y = np.zeros((B, 2))
        Y[np.arange(B), rng.integers(0, 2, B)] = 1.0
        _, grads = ann_loss_grads(params, X, Y)
        fd = ann_loss_fd(lambda p: ann_loss_grads(p, X, Y)[0], params, h=1e-5)
        for key in params:
            num = np.abs(grads[key] - fd[key])
            den = np.maximum(np.maximum(np.abs(grads[key]), np.abs(fd[key])), 1.0)
            worst = max(worst, float((num / den).max()))
    ok = worst < 1e-4
    report(5, ok, f"backprop vs central differences over 20 draws: "
                  f"max relative error {worst:.2e}", time.perf_counter() - t0, 10.0)


def test_criterion_06_svm_dual_feasibility_and_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(515)
    worst_gap = 0.0
    worst_eq = 0.0
    worst_dual = 0.0
    for _ in range(20):
        n = int(rng.integers(12, 51))
        X = rng.normal(0.0, 1.0, (n, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = SvmConfig(C=1.5, gamma=0.5, tol=1e-4, max_sweeps=8000)
        model = train_model(X, y, "svm", cfg, standardize=False)
        a = model.params["sv_alpha"]
        ysv = model.params["sv_y"]
        assert np.all(a > 0.0) and np.all(a <= cfg.C + 1e-9), "box constraint violated"
        worst_eq = max(worst_eq, abs(float(a @ ysv)))
        K = _gram(X, X, cfg.gamma)
        y_pm = np.where(y == 1, 1.0, -1.0)
        alpha = full_alpha(model, X)
        # the model's support vectors carry the whole dual
        dual = svm_model_dual_objective(model)
        worst_dual = max(worst_dual, abs(dual - dual_obj_loops(alpha, K, y_pm)))
        # P - D bounds the distance of the dual objective from the optimum
        worst_gap = max(worst_gap, duality_gap(alpha, K, y_pm, cfg.C))
    ok = worst_gap < 1e-3 and worst_eq < 1e-8 and worst_dual < 1e-9
    report(6, ok, f"20 instances <= 50 samples: KKT box held on every model, "
                  f"max |sum alpha_i y_i| = {worst_eq:.1e}, "
                  f"max |D(model) - D(alpha)| = {worst_dual:.1e}, "
                  f"max duality gap P - D {worst_gap:.2e} (< 1e-3)",
           time.perf_counter() - t0, 60.0)


def test_criterion_07_metaheuristic_small_scale_optimality():
    t0 = time.perf_counter()
    X, y = synthetic_dataset(n=160, n_noise=4, seed=0)
    ctx = make_fitness_context(X, y, seed=1)
    best_fit, _ = exhaustive_best_mask(lambda m: fitness(m, ctx), ctx.n_features)
    hits = {}
    for method in ("bcs", "bpso", "ga"):
        hits[method] = sum(
            run_search(method, ctx, None, seed).best_fitness == best_fit
            for seed in range(20))
    ok = all(v >= 18 for v in hits.values())
    report(7, ok, f"exhaustive optimum {best_fit:.4f} on 6 features hit in "
                  f"{hits['bcs']}/20 (BCS), {hits['bpso']}/20 (BPSO), "
                  f"{hits['ga']}/20 (GA) seeded runs (need >= 18)",
           time.perf_counter() - t0, 300.0)


def test_criterion_08_ga_reduction_analogue(desk_matrix):
    rows, _, _ = desk_matrix
    t0 = time.perf_counter()
    by = {(r.fs_method, r.classifier): r for r in rows}
    nf = by[("ga", "svm")].n_features
    svm_drop = (by[("none", "svm")].accuracy - by[("ga", "svm")].accuracy) * 100.0
    knn_drop = (by[("none", "knn")].accuracy - by[("ga", "knn")].accuracy) * 100.0
    ok = (nf <= 0.6 * 34) and svm_drop <= 3.0 + 1e-9 and knn_drop <= 3.0 + 1e-9
    report(8, ok, f"GA selected {nf}/34 features (<= 20); accuracy drop vs NO-FS: "
                  f"SVM {svm_drop:+.2f} pts, KNN {knn_drop:+.2f} pts (<= 3)",
           time.perf_counter() - t0, 900.0)


def test_criterion_09_monotone_traces(desk_matrix):
    _, fs_log, _ = desk_matrix
    t0 = time.perf_counter()
    checked = 0
    for (system, method), (res, _) in sorted(fs_log.items()):
        assert all(b >= a for a, b in zip(res.trace, res.trace[1:])), \
            f"{system}/{method} trace decreased"
        checked += 1
    X, y = synthetic_dataset(seed=5)
    ctx = make_fitness_context(X, y, seed=2)
    for method in ("bcs", "bpso", "ga"):
        for seed in range(5):
            res = run_search(method, ctx, None, seed)
            assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
            checked += 1
    report(9, checked >= 18, f"{checked} FS traces checked, all non-decreasing",
           time.perf_counter() - t0, 120.0)


def test_criterion_10_benchmark_rerun_byte_identical(tmp_path, capsys):
    t0 = time.perf_counter()
    args = ["benchmark", "--seed", "7", "--systems", "ieee14",
            "--fs", "none,bcs", "--classifier", "svm,knn",
            "--n-train", "400", "--n-test", "200"]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(dir_a)]) == 0
    assert cli_main(args + ["--out-dir", str(dir_b)]) == 0
    bytes_a1 = (dir_a / "results.csv").read_bytes()
    # independent fresh runs agree on everything except wall time
    strip = lambda raw: [",".join(line.split(",")[:5]) for line in raw.decode().splitlines()]
    fresh_agree = strip(bytes_a1) == strip((dir_b / "results.csv").read_bytes())
    # the rerun in the same output directory is byte-identical
    assert cli_main(args + ["--out-dir", str(dir_a)]) == 0
    rerun_identical = (dir_a / "results.csv").read_bytes() == bytes_a1
    capsys.readouterr()
    ok = fresh_agree and rerun_identical
    report(10, ok, f"cmd_benchmark --seed 7 twice: rerun byte-identical = "
                   f"{rerun_identical}, fresh runs agree on all non-timing "
                   f"columns = {fresh_agree}", time.perf_counter() - t0, 900.0)
