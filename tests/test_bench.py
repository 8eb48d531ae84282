"""Harness behavior: sub-seeding, grid search, calibration, the experiment
matrix, and result serialization."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdilab import (
    AttackConfig,
    ExperimentResult,
    ExperimentSpec,
    KnnConfig,
    NoiseModel,
    build_jacobian,
    calibrate_threshold,
    default_grid,
    export_results,
    generate_dataset,
    grid_search,
    load_builtin,
    load_results,
    render_report,
    resolve_case,
    run_matrix,
    train_model,
)
from fdilab import bench, classify, featsel
from fdilab.attack import batch_residuals
from fdilab.bench import RESULTS_HEADER, _experiment_datasets, subseed
from fdilab.classify import AnnConfig, SvmConfig
from fdilab.featsel import BcsParams, BpsoParams, GaParams

from oracles import grid_search_oracle


TRIANGLE_CSV = (
    "BUS,1,1.5\nBUS,2,-0.5\nBUS,3,-1.0\n"
    "BRANCH,1,2,0.1\nBRANCH,2,3,0.1\nBRANCH,1,3,0.1\n"
)


def small_spec(**overrides):
    base = dict(systems=("ieee14",), fs_methods=("none", "ga"), classifiers=("knn",),
                n_train=120, n_test=60, seed=3,
                ga=GaParams(population=8, iterations=3))
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSubseed:
    def test_deterministic_and_token_sensitive(self):
        assert subseed(7, "a", "b") == subseed(7, "a", "b")
        assert subseed(7, "a", "b") != subseed(7, "a", "c")
        assert subseed(7, "a", "b") != subseed(8, "a", "b")

    def test_fits_in_63_bits(self):
        for master in (0, 7, 2 ** 40):
            s = subseed(master, "train")
            assert 0 <= s < 2 ** 63


class TestDefaultGrids:
    def test_svm_grid_covers_default(self):
        grid = default_grid("svm")
        assert len(grid) == 25
        assert SvmConfig(C=10.0, gamma=0.1) in grid

    def test_every_svm_grid_point_converges(self):
        train, _ = _experiment_datasets(small_spec(n_train=500), load_builtin("ieee14"))
        for cfg in default_grid("svm"):
            model = train_model(train.X, train.y, "svm", cfg)
            assert model.converged, cfg

    def test_knn_grid_covers_default(self):
        grid = default_grid("knn")
        assert [cfg.k for cfg in grid] == list(range(1, 21))
        assert KnnConfig(k=12) in grid

    def test_ann_grid_decades(self):
        alphas = [cfg.alpha for cfg in default_grid("ann")]
        assert alphas == [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        assert AnnConfig() in default_grid("ann")

    def test_every_other_field_comes_from_the_base(self):
        svm = SvmConfig(C=3.0, gamma=0.3, tol=1e-2, max_sweeps=7)
        assert default_grid("svm", svm) == tuple(
            dataclasses.replace(cfg, tol=1e-2, max_sweeps=7) for cfg in default_grid("svm"))
        assert default_grid("knn", KnnConfig(k=5)) == default_grid("knn")
        ann = AnnConfig(alpha=0.3, epochs=1, batch=8, seed=4)
        assert default_grid("ann", ann) == tuple(
            dataclasses.replace(cfg, epochs=1, batch=8, seed=4) for cfg in default_grid("ann"))

    def test_unknown_classifier(self):
        with pytest.raises(ValueError):
            default_grid("forest")


def tiny_dataset(seed=0):
    sys = load_builtin("ieee14")
    ds = generate_dataset(sys, 150, 0.5, NoiseModel(0.01), 0.1, None, seed=seed)
    return ds.X, ds.y


def grid_context(X, y, spec=ExperimentSpec()):
    """The holdout context `gridsearch` scores every grid on, from spec."""
    return featsel.make_fitness_context(X, y, val_fraction=spec.val_fraction, seed=spec.seed,
                                        standardize=spec.standardize)


class TestGridSearch:
    def test_tie_prefers_earliest_grid_point(self):
        # perfectly separated blobs: every k is 100% accurate, first k wins
        rng = np.random.default_rng(1)
        X = np.concatenate([rng.normal(-10, 0.1, (30, 2)), rng.normal(10, 0.1, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        grid = (KnnConfig(k=7), KnnConfig(k=1), KnnConfig(k=3))
        res = grid_search(grid_context(X, y, ExperimentSpec(seed=0)), grid)
        assert res.best_accuracy == 1.0
        assert res.best_config.k == 7

    def test_failing_cell_recorded_not_fatal(self):
        X, y = tiny_dataset()
        grid = (KnnConfig(k=5), KnnConfig(k=10 ** 6))
        res = grid_search(grid_context(X, y), grid)
        assert res.best_config.k == 5
        cfg, acc, err = res.rows[1]
        assert acc is None and "exceeds" in err

    def test_all_cells_failing_raises(self):
        X, y = tiny_dataset()
        grid = (KnnConfig(k=10 ** 6), KnnConfig(k=10 ** 6 + 1), KnnConfig(k=10 ** 6))
        with pytest.raises(ValueError, match=r"every grid point failed: k=1000000 exceeds "
                                             r"training size \d+; k=1000001 exceeds "
                                             r"training size \d+$"):
            grid_search(grid_context(X, y), grid)

    def test_labels_outside_zero_one_fail_every_point(self):
        # no grid point is scored: the context every grid scores on is never built
        X, y = tiny_dataset()
        with pytest.raises(ValueError, match=r"^labels must be 0 or 1$"):
            grid_context(X, 2 * y)

    def test_fractional_label_fails_every_point(self):
        # the labels reach the context as given, not truncated to integers first
        X, y = tiny_dataset()
        with pytest.raises(ValueError, match=r"^labels must be 0 or 1$"):
            grid_context(X, np.where(np.arange(len(y)) == 7, 0.5, y))

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("kind", ["knn", "svm", "ann"])
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.2, 0.35, 0.5]))
    @example(data_seed=0, seed=0, holdout=0.2)
    @example(data_seed=1, seed=7, holdout=0.35)
    def test_rows_equal_per_point_oracle(self, kind, standardize, data_seed, seed, holdout):
        # columns of unequal offset and scale, so that scaling moves every value;
        # k = 10**6 fails on its own
        rng = np.random.default_rng(data_seed)
        y = rng.integers(0, 2, 50)
        X = (rng.normal(0.0, 1.0, (50, 5)) + 0.8 * y[:, None]) * rng.uniform(0.2, 5.0, 5) \
            + rng.uniform(-3.0, 3.0, 5)
        grid = {"knn": tuple(KnnConfig(k=k) for k in (1, 4, 7, 10 ** 6)),
                "svm": tuple(SvmConfig(C=c, gamma=g, max_sweeps=2000)
                             for c, g in ((1.0, 0.1), (100.0, 0.01), (10.0, 1.0))),
                "ann": (AnnConfig(alpha=0.1, epochs=3), AnnConfig(alpha=1e-3, epochs=2),
                        AnnConfig(alpha=1.0, epochs=1, batch=8))}[kind]
        spec = ExperimentSpec(val_fraction=holdout, seed=seed, standardize=standardize)
        assert (repr(grid_search(grid_context(X, y, spec), grid).rows)
                == repr(grid_search_oracle(X, y, kind, grid, spec)))

    def test_holdout_validation(self):
        with pytest.raises(ValueError, match="val_fraction must be in"):
            ExperimentSpec(val_fraction=0.0)
        X, y = tiny_dataset()
        with pytest.raises(ValueError, match="grid must be non-empty"):
            grid_search(grid_context(X, y), ())


class TestCalibration:
    def test_quantile_rate_on_fresh_clean_data(self):
        sys = load_builtin("ieee14")
        noise = NoiseModel(0.01)
        thr = calibrate_threshold(sys, noise, n_samples=600, quantile=0.95, seed=0)
        assert thr > 0
        fresh = generate_dataset(sys, 600, 0.0, noise, 0.1, None, seed=1)
        res = batch_residuals(fresh.X, build_jacobian(sys), noise.sigma ** 2)
        below = float((res < thr).mean())
        assert 0.90 < below < 0.99

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            calibrate_threshold(load_builtin("ieee14"), quantile=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threshold_matches_chi_square_quantile(self, seed):
        # With W = sigma^2 I the WLS residual ||r||^2 / sigma^2 is chi-square
        # with m - n degrees of freedom (Abur & Exposito, Power System State
        # Estimation, 2004); its 95% quantile from the Wilson-Hilferty form.
        sys = load_builtin("ieee14")
        sigma = 0.01
        thr = calibrate_threshold(sys, NoiseModel(sigma), n_samples=2000, seed=seed)
        dof = sys.n_measurements - sys.n_states
        z95 = 1.6448536269514722
        q95 = dof * (1 - 2 / (9 * dof) + z95 * math.sqrt(2 / (9 * dof))) ** 3
        assert abs(thr / sigma ** 2 / q95 - 1) < 0.06


class TestExperimentSpec:
    @pytest.mark.parametrize("field, value, message", [
        ("classifiers", ("knn", "forest"), "unknown classifier 'forest'"),
        ("fs_methods", ("none", "tabu"), "unknown FS method 'tabu'"),
        ("threads", 0, "threads must be a positive integer, got 0"),
        ("systems", ("ieee14", "ieee57", "ieee14"), "repeated system: ieee14,ieee57,ieee14"),
        ("fs_methods", ("none", "none"), "repeated FS method: none,none"),
        ("classifiers", ("knn", "knn"), "repeated classifier: knn,knn"),
        ("systems", (), "no system given"),
        ("fs_methods", (), "no FS method given"),
        ("classifiers", (), "no classifier given"),
    ], ids=["classifier", "fs_method", "threads", "repeated system", "repeated fs_method",
            "repeated classifier", "no system", "no fs_method", "no classifier"])
    def test_rejects_unknown_names_and_threads_below_one(self, field, value, message):
        # at construction, not as a KeyError inside run_matrix
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**{field: value})

    @pytest.mark.parametrize("make, field", [
        (make, f.name) for make in (ExperimentSpec, SvmConfig, AnnConfig, BcsParams,
                                    BpsoParams, GaParams, NoiseModel, AttackConfig)
        for f in dataclasses.fields(make) if isinstance(f.default, float)
    ], ids=lambda v: getattr(v, "__name__", v))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_setting_is_rejected(self, make, field, value):
        # nan fails every comparison and inf passes a one-sided one, so each
        # range check is closed on both sides
        required = {"max_targets": 3} if make is AttackConfig else {}
        with pytest.raises(ValueError):
            make(**required, **{field: value})

    def test_resolve_builtin_and_path(self, tmp_path):
        assert resolve_case("ieee14").n_buses == 14
        p = tmp_path / "tri.csv"
        p.write_text(TRIANGLE_CSV)
        assert resolve_case(str(p)).n_buses == 3
        with pytest.raises(FileNotFoundError, match="case file not found"):
            resolve_case(str(tmp_path / "x.csv"))
        with pytest.raises(FileNotFoundError, match="no bundled case named 'ieee99'"):
            resolve_case("ieee99")

    def test_train_test_streams_differ(self):
        spec = small_spec()
        train, test = _experiment_datasets(spec, load_builtin("ieee14"))
        assert train.n_samples == 120 and test.n_samples == 60
        assert not np.array_equal(train.X[:test.n_samples], test.X)


class TestRunMatrix:
    def test_rows_cardinality_and_order(self):
        spec = small_spec()
        fs_log = {}
        rows = run_matrix(spec, fs_log=fs_log)
        assert [(r.fs_method, r.classifier) for r in rows] == [("none", "knn"), ("ga", "knn")]
        assert rows[0].n_features == 34
        assert 1 <= rows[1].n_features <= 34
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
        assert all(r.seed == 3 for r in rows)
        assert ("ieee14", "ga") in fs_log
        fs_res, seconds = fs_log[("ieee14", "ga")]
        assert fs_res.n_selected == rows[1].n_features
        assert seconds > 0

    def test_deterministic_across_calls(self):
        a = run_matrix(small_spec())
        b = run_matrix(small_spec())
        assert [(r.accuracy, r.n_features) for r in a] == [(r.accuracy, r.n_features) for r in b]

    def test_threads_do_not_change_results(self, tmp_path):
        tri = tmp_path / "tri.csv"
        tri.write_text(TRIANGLE_CSV)
        spec = small_spec(systems=("ieee14", str(tri)), n_train=80, n_test=40)
        serial = run_matrix(spec)
        threaded = run_matrix(dataclasses.replace(spec, threads=2))
        assert [(r.system, r.fs_method, r.accuracy, r.n_features) for r in serial] == \
               [(r.system, r.fs_method, r.accuracy, r.n_features) for r in threaded]

    def test_default_ann_quality_band_at_detect_size(self):
        # the detect-ieee57 benchmark size and matrix seeds: the default ANN
        # (alpha 1.0, 50 epochs) scores a mean of 0.812 here, alpha 0.1 for
        # 200 epochs only 0.762
        accs = [run_matrix(ExperimentSpec(systems=("ieee57",), fs_methods=("none",),
                                          classifiers=("ann",), n_train=600, n_test=300,
                                          seed=seed))[0].accuracy for seed in (0, 1)]
        assert np.mean(accs) >= 0.79, accs

    def test_one_wrapper_context_and_only_for_a_search(self, monkeypatch):
        calls = []
        make = featsel.make_fitness_context

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return make(*args, **kwargs)

        monkeypatch.setattr(featsel, "make_fitness_context", counted)
        run_matrix(small_spec(fs_methods=("none",)))
        assert calls == []
        run_matrix(small_spec(fs_methods=("none", "ga", "bpso"),
                              bpso=BpsoParams(population=4, iterations=2)))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_wrapper_knn_needs_no_fallback(self, monkeypatch, seed):
        # the fs-ieee14 wrapper: 400 ieee14 training rows, BCS 15 x 5, BPSO 15 x 5
        # and GA 20 x 10; every label of every search is certified
        rows = []
        direct = classify._knn_votes_direct

        def counted(Q, *args):
            rows.append(len(Q))
            return direct(Q, *args)

        monkeypatch.setattr(classify, "_knn_votes_direct", counted)
        spec = small_spec(n_train=400, n_test=200, seed=seed,
                          bcs=BcsParams(population=15, iterations=5),
                          bpso=BpsoParams(population=15, iterations=5),
                          ga=GaParams(population=20, iterations=10))
        train, _ = _experiment_datasets(spec, resolve_case("ieee14"))
        search = bench.wrapper_searches(spec, "ieee14", train.X, train.y)
        for method in ("bcs", "bpso", "ga"):
            assert search(method)[0].evaluations > 0
        assert rows == []

    def test_mask_shared_across_classifiers(self):
        spec = small_spec(classifiers=("knn", "ann"), ann=AnnConfig(epochs=10))
        rows = run_matrix(spec)
        ga_rows = [r for r in rows if r.fs_method == "ga"]
        assert len(ga_rows) == 2
        assert ga_rows[0].n_features == ga_rows[1].n_features

    @staticmethod
    def _fresh_run(code: str) -> str:
        """Stdout of `code` run in a new interpreter with only src/ on the path."""
        src = str(Path(bench.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_leaves_numpy_ma_unimported(self):
        # importing numpy.ma costs 14-18 ms once per process; np.unique pulls it in
        code = ("import sys\n"
                "from fdilab import ExperimentSpec, run_matrix\n"
                "from fdilab.featsel import GaParams\n"
                "run_matrix(ExperimentSpec(systems=('ieee14',), fs_methods=('none', 'ga'),\n"
                "    classifiers=('knn',), n_train=120, n_test=60, seed=3, threads=1,\n"
                "    ga=GaParams(population=8, iterations=3)))\n"
                "print('numpy.ma' in sys.modules)\n")
        assert self._fresh_run(code) == "False"

    def test_serial_run_leaves_concurrent_futures_unimported(self):
        # the thread pool (concurrent.futures, which imports logging) costs about
        # 0.7 MB and 8 ms; only a run with threads > 1 and several systems uses it
        code = ("import sys\n"
                "from fdilab import ExperimentSpec, run_matrix\n"
                "run_matrix(ExperimentSpec(systems=('ieee14',), fs_methods=('none',),\n"
                "    classifiers=('svm', 'knn'), n_train=120, n_test=60, seed=3, threads=1))\n"
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n")
        assert self._fresh_run(code) == "[]"


class TestResultsIO:
    def test_export_load_round_trip(self, tmp_path):
        rows = run_matrix(small_spec())
        p = tmp_path / "results.csv"
        export_results(rows, p)
        header = p.read_text().splitlines()[0]
        assert header == "system,fs_method,classifier,n_features,accuracy,seed,converged"
        back = load_results(p)
        assert [(r.system, r.fs_method, r.classifier, r.n_features, r.accuracy, r.seed,
                 r.converged) for r in back] == \
               [(r.system, r.fs_method, r.classifier, r.n_features, r.accuracy, r.seed,
                 r.converged) for r in rows]

    def test_unconverged_row_round_trips(self, tmp_path):
        rows = run_matrix(small_spec(fs_methods=("none",), classifiers=("svm",),
                                     svm=SvmConfig(max_sweeps=1)))
        assert [r.converged for r in rows] == [False]
        p = export_results(rows, tmp_path / "results.csv")
        assert p.read_text().splitlines()[1].endswith(",0")
        assert [r.converged for r in load_results(p)] == [False]

    def test_identical_results_identical_bytes(self, tmp_path):
        rows = run_matrix(small_spec())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_results(rows, a)
        export_results(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_results([], tmp_path / "x.csv")

    def test_load_rejects_foreign_csv(self, tmp_path):
        p = tmp_path / "other.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not a results CSV"):
            load_results(p)
        p.write_text(RESULTS_HEADER + "\n")  # a header with no rows
        with pytest.raises(ValueError, match="not a results CSV"):
            load_results(p)
        p.write_text("system,fs_method,classifier,n_features,accuracy,wall_time_s,seed,"
                     "converged\nieee14,none,knn,34,0.9,0.100,0,1\n")  # the old 8 columns
        with pytest.raises(ValueError, match="not a results CSV"):
            load_results(p)
        row = "ieee14,none,knn,34,0.9,0,1"
        p.write_text(f"{RESULTS_HEADER}\n{row}\nieee14,none,svm,34,0.9\n")  # a short row
        with pytest.raises(ValueError, match=r"other\.csv line 3: expected 7 fields"):
            load_results(p)
        p.write_text(f"{RESULTS_HEADER}\n{row.replace('0.9', 'high')}\n")  # a bad number
        with pytest.raises(ValueError, match=r"other\.csv line 2: not a decimal number: 'high'"):
            load_results(p)
        p.write_text(f"{RESULTS_HEADER}\n{row[:-1]}yes\n")  # a converged flag not 0 or 1
        with pytest.raises(ValueError, match=r"other\.csv line 2: converged must be 0 or 1"):
            load_results(p)
        for bad, message in (("ieee14,none,knn,34,nan,0,1", r"accuracy must be in \[0, 1\]"),
                             ("ieee14,none,knn,34,1.5,0,1", r"accuracy must be in \[0, 1\]"),
                             ("ieee14,none,knn,-3,0.9,0,1", "n_features must be at least 1"),
                             ("ieee14,none,knn,0,0.9,0,1", "n_features must be at least 1"),
                             (",none,knn,34,0.9,0,1", "system must not be empty"),
                             ("ieee14,nofs,knn,34,0.9,0,1", "unknown FS method 'nofs'"),
                             ("ieee14,,knn,34,0.9,0,1", "unknown FS method ''"),
                             ("ieee14,none,forest,34,0.9,0,1", "unknown classifier 'forest'"),
                             ("ieee14,none,knn,34,0.9,-5,1", "seed must be non-negative"),
                             # int and float would read 34, 0.95 and 3
                             ("ieee14,none,knn,3_4,0.9,0,1", "not a decimal integer: '3_4'"),
                             ("ieee14,none,knn,34,0.9_5,0,1", "not a decimal number: '0.9_5'"),
                             ("ieee14,none,knn,34,0.9,\u0663,1",
                              "not a decimal integer: '\u0663'"),
                             ("ieee14,nofs,forest,34,0.9,-5,1", "unknown FS method")):
            p.write_text(f"{RESULTS_HEADER}\n{row}\n{bad}\n")
            with pytest.raises(ValueError, match=rf"other\.csv line 3: {message}"):
                load_results(p)


class TestReport:
    def fabricated(self):
        mk = lambda fs, cls, nf, acc: ExperimentResult(
            system="ieee14", fs_method=fs, classifier=cls, n_features=nf,
            accuracy=acc, seed=0)
        return [mk("none", "svm", 34, 0.99), mk("none", "knn", 34, 0.96),
                mk("ga", "svm", 8, 0.97), mk("ga", "knn", 8, 0.95)]

    def test_report_layout(self):
        text = render_report(self.fabricated())
        assert "=== ieee14 (seed 0) ===" in text
        assert "SVM" in text and "KNN" in text
        lines = text.splitlines()
        ga_line = next(l for l in lines if l.startswith("ga"))
        assert "8" in ga_line and "0.9700" in ga_line and "0.9500" in ga_line

    def test_missing_cell_renders_dash(self):
        rows = self.fabricated()[:3]  # drop the (ga, knn) cell
        text = render_report(rows)
        ga_line = next(l for l in text.splitlines() if l.startswith("ga"))
        assert "-" in ga_line

    def test_unconverged_cell_is_starred(self):
        rows = self.fabricated()
        assert "*" not in render_report(rows)
        rows[2] = dataclasses.replace(rows[2], converged=False)  # (ga, svm)
        text = render_report(rows)
        ga_line = next(l for l in text.splitlines() if l.startswith("ga"))
        assert "0.9700*" in ga_line and "0.9500*" not in ga_line
        assert "iteration cap" in text

    @pytest.mark.parametrize("edit", [{"seed": 1}, {}], ids=["two seeds", "repeated cell"])
    def test_ambiguous_cell_rejected(self, edit):
        # a repeated (none, knn) cell has no one accuracy to print
        rows = self.fabricated()
        rows.append(dataclasses.replace(rows[1], accuracy=0.8, **edit))
        with pytest.raises(ValueError, match="ieee14: "):
            render_report(rows)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            render_report([])
