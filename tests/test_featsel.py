"""Metaheuristic feature selection: primitives, exhaustive-search optimality,
trace and caching behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdilab import (
    BcsParams,
    BpsoParams,
    FsResult,
    GaParams,
    export_fs_result,
    fitness,
    make_fitness_context,
    run_search,
)
from fdilab.classify import (CONFIGS, AnnConfig, KnnConfig, SvmConfig, accuracy, predict,
                             standardize_apply, standardize_fit, stratified_split, train_model)
from fdilab.featsel import (FitnessContext, _improves, binarize, fitness_batch,
                            holdout_accuracies, levy_step, repair_mask)

from oracles import exhaustive_best_mask, knn_fitness_oracle, wrapper_fitness_oracle


def synthetic_dataset(n=160, n_noise=4, seed=0):
    """Binary labels, two strongly informative columns (0 and 3), noise elsewhere.

    Column order: [informative, noise, noise, informative, noise, noise] for
    n_noise = 4, so mask searches have something real to find.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    cols = [None] * (n_noise + 2)
    cols[0] = y + rng.normal(0.0, 0.35, n)
    cols[3] = (1 - y) + rng.normal(0.0, 0.35, n)
    noise_slots = [i for i in range(n_noise + 2) if i not in (0, 3)]
    for slot in noise_slots:
        cols[slot] = rng.normal(0.0, 1.0, n)
    return np.column_stack(cols), y


@pytest.fixture()
def ctx():
    X, y = synthetic_dataset()
    return make_fitness_context(X, y, config=KnnConfig(k=5), val_fraction=0.2, seed=1)


class TestLevy:
    def test_lambda_validation(self):
        rng = np.random.default_rng(0)
        for bad in (1.0, 0.5, 3.0, 3.5):
            with pytest.raises(ValueError):
                levy_step(bad, rng)

    def test_scalar_and_vector_shapes(self):
        rng = np.random.default_rng(1)
        assert np.isscalar(levy_step(1.5, rng)) or np.asarray(levy_step(1.5, rng)).shape == ()
        assert levy_step(1.5, rng, size=7).shape == (7,)

    def test_roughly_symmetric(self):
        rng = np.random.default_rng(2)
        s = levy_step(1.5, rng, size=200_000)
        assert abs(float((s > 0).mean()) - 0.5) < 0.01

    def test_tail_density_slope(self):
        # |step| density falls like s^-lam: log-log histogram slope ~ -1.5
        rng = np.random.default_rng(3)
        s = np.abs(levy_step(1.5, rng, size=2_000_000))
        edges = np.logspace(1, 4, 25)
        hist, _ = np.histogram(s, bins=edges)
        widths = np.diff(edges)
        centers = np.sqrt(edges[:-1] * edges[1:])
        keep = hist > 50  # only well-populated bins
        density = hist[keep] / widths[keep]
        slope = np.polyfit(np.log(centers[keep]), np.log(density), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.3)

    def test_heavier_tail_for_smaller_lambda(self):
        rng = np.random.default_rng(4)
        frac_heavy = lambda lam: float((np.abs(levy_step(lam, rng, size=400_000)) > 100).mean())
        assert frac_heavy(1.3) > frac_heavy(2.0)


class TestBinarize:
    def test_probability_matches_sigmoid(self):
        rng = np.random.default_rng(5)
        pos = np.full(200_000, 0.8)
        rate = float(binarize(pos, rng).mean())
        assert rate == pytest.approx(1.0 / (1.0 + np.exp(-0.8)), abs=0.01)

    def test_scalar_returns_bool(self):
        rng = np.random.default_rng(6)
        out = binarize(0.0, rng)
        assert isinstance(out, bool)

    def test_extreme_positions_do_not_overflow(self):
        # exp underflow to 0.0 is fine; overflow or nan would not be
        rng = np.random.default_rng(7)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            hi = binarize(np.full(1000, 1e9), rng)
            lo = binarize(np.full(1000, -1e9), rng)
        assert hi.all()
        assert not lo.any()


class TestRepair:
    def test_all_zero_gets_exactly_one_bit(self):
        rng = np.random.default_rng(8)
        fixed = repair_mask(np.zeros(10, dtype=bool), rng)
        assert fixed.sum() == 1

    def test_nonzero_untouched(self):
        rng = np.random.default_rng(9)
        mask = np.array([False, True, False])
        assert np.array_equal(repair_mask(mask, rng), mask)


class TestParams:
    def test_bcs_validation(self):
        with pytest.raises(ValueError):
            BcsParams(alpha=0.0)
        with pytest.raises(ValueError):
            BcsParams(pa=1.5)
        with pytest.raises(ValueError):
            BcsParams(lam=1.0)
        with pytest.raises(ValueError, match="1 < lambda < 3"):
            BcsParams(lam=3.0)
        with pytest.raises(ValueError):
            BcsParams(population=1)

    def test_bpso_validation(self):
        with pytest.raises(ValueError):
            BpsoParams(v_max=0.0)
        with pytest.raises(ValueError):
            BpsoParams(c1=-1.0)

    def test_ga_validation(self):
        with pytest.raises(ValueError):
            GaParams(mutation_rate=1.5)
        with pytest.raises(ValueError):
            GaParams(tournament=0)
        with pytest.raises(ValueError):
            GaParams(elite=50, population=50)


class TestFitness:
    def test_cache_counts_evals_vs_trainings(self, ctx):
        mask = np.array([True, False, False, True, False, False])
        v1 = fitness(mask, ctx)
        v2 = fitness(mask, ctx)
        assert v1 == v2
        assert ctx.evals == 2
        assert ctx.trainings == 1

    def test_mask_validation(self, ctx):
        with pytest.raises(ValueError, match="length"):
            fitness(np.ones(5, dtype=bool), ctx)
        with pytest.raises(ValueError, match="empty"):
            fitness(np.zeros(6, dtype=bool), ctx)

    def test_informative_beats_noise(self, ctx):
        informative = np.array([True, False, False, True, False, False])
        noise_only = np.array([False, True, True, False, True, True])
        assert fitness(informative, ctx) > fitness(noise_only, ctx)

    def test_improves_tie_rule(self):
        two = np.array([True, True, False])
        one = np.array([True, False, False])
        assert _improves(0.9, two, 0.8, one)         # better fitness wins
        assert _improves(0.9, one, 0.9, two)         # tie: fewer features wins
        assert not _improves(0.9, two, 0.9, one)
        assert _improves(0.5, two, 0.5, None)        # first offer always lands


def raw_splits(X, y, seed, val_fraction=0.2):
    """The raw (X_train, y_train, X_val, y_val) that make_fitness_context splits
    from X and y with the same seed; a context keeps only their scaled copies."""
    tr, va = stratified_split(y, val_fraction, seed)
    return X[tr], y[tr], X[va], y[va]


def random_masks(rng, n_masks, m):
    masks = rng.random((n_masks, m)) < 0.5
    masks[np.arange(n_masks), rng.integers(0, m, n_masks)] = True
    return masks


class TestBatchedFitness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.integers(1, 15), st.integers(1, 12))
    def test_batch_equals_per_mask_oracle(self, seed, integer_data, k, n_masks):
        rng = np.random.default_rng(seed)
        if integer_data:
            # unscaled small integers: exact distance ties at the k-th place
            X = rng.integers(0, 3, (60, 5)).astype(float)
        else:
            X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, 60)
        ctx = make_fitness_context(X, y, config=KnnConfig(k=k), seed=seed,
                                   standardize=not integer_data)
        masks = random_masks(rng, n_masks, 5)
        masks = np.concatenate([masks, masks[:2]])  # duplicates in one batch
        got = fitness_batch(masks, ctx)
        want = [knn_fitness_oracle(mask, *raw_splits(X, y, seed), k,
                                   standardize=not integer_data) for mask in masks]
        assert got == want
        assert ctx.evals == len(masks)
        assert ctx.trainings == len({mask.tobytes() for mask in masks})

    def test_batched_and_one_by_one_agree(self):
        X, y = synthetic_dataset(seed=3)
        masks = random_masks(np.random.default_rng(0), 40, 6)
        batched = make_fitness_context(X, y, config=KnnConfig(k=5), seed=1)
        single = make_fitness_context(X, y, config=KnnConfig(k=5), seed=1)
        # the second batch repeats ten masks of the first: cache hits across calls
        values = fitness_batch(masks[:25], batched) + fitness_batch(masks[15:], batched)
        stream = np.concatenate([masks[:25], masks[15:]])
        assert values == [fitness(mask, single) for mask in stream]
        assert (batched.evals, batched.trainings) == (single.evals, single.trainings)
        assert batched.trainings == len(batched.cache) < batched.evals

    def test_other_wrappers_train_per_mask(self):
        X, y = synthetic_dataset(n=80, seed=4)
        ctx = make_fitness_context(X, y, config=SvmConfig(), seed=1)
        masks = random_masks(np.random.default_rng(1), 3, 6)
        X_train, y_train, X_val, y_val = raw_splits(X, y, 1)
        want = [accuracy(predict(train_model(X_train, y_train, "svm", SvmConfig(), mask=mask),
                                 X_val), y_val)
                for mask in masks]
        assert fitness_batch(masks, ctx) == want

    def test_empty_batch_scores_nothing(self):
        X, y = synthetic_dataset(n=80, seed=4)
        ctx = make_fitness_context(X, y, seed=1)
        for config in (KnnConfig(), SvmConfig(), AnnConfig(epochs=1)):
            assert holdout_accuracies(ctx, config, []) == []

    @pytest.mark.parametrize("classifier, config", [("svm", SvmConfig()), ("ann", AnnConfig())])
    def test_config_type_names_the_classifier(self, classifier, config):
        X, y = synthetic_dataset(n=80, seed=4)
        assert make_fitness_context(X, y, seed=1).config == KnnConfig()
        ctx = make_fitness_context(X, y, config=config, seed=1)
        mask = np.array([True, False, False, True, True, False])
        X_train, y_train, X_val, y_val = raw_splits(X, y, 1)
        model = train_model(X_train, y_train, classifier, config, mask=mask)
        assert fitness(mask, ctx) == accuracy(predict(model, X_val), y_val)

    def test_unknown_classifier_rejected(self):
        # a config of no known classifier fails at its first score
        X, y = synthetic_dataset(n=80, seed=4)
        ctx = make_fitness_context(X, y, config={"k": 5}, seed=1)
        masks = np.ones((1, 6), dtype=bool)
        for score in (lambda: fitness(masks[0], ctx),
                      lambda: holdout_accuracies(ctx, "forest", masks)):
            with pytest.raises(ValueError, match="^unknown classifier for config "):
                score()

    def test_scores_under_any_config_and_lays_out_knn_only_for_knn(self):
        X, y = synthetic_dataset(n=80, seed=4)
        masks = random_masks(np.random.default_rng(2), 3, 6)
        ctx = make_fitness_context(X, y, seed=1)
        for kind, config in (("svm", SvmConfig()), ("ann", AnnConfig(epochs=3))):
            assert holdout_accuracies(ctx, config, masks) == [
                wrapper_fitness_oracle(mask, *raw_splits(X, y, 1), kind, config)
                for mask in masks]
        assert "knn" not in vars(ctx)  # no KNN layout until a KNN config scores
        assert holdout_accuracies(ctx, KnnConfig(k=3), masks) == [
            knn_fitness_oracle(mask, *raw_splits(X, y, 1), 3) for mask in masks]
        assert "knn" in vars(ctx)

    def test_invalid_mask_counts_nothing(self, ctx):
        good = np.array([True, False, False, True, False, False])
        with pytest.raises(ValueError, match="empty"):
            fitness_batch([good, np.zeros(6, dtype=bool)], ctx)
        assert (ctx.evals, ctx.trainings, ctx.cache) == (0, 0, {})

    def test_context_holds_read_only_copies(self):
        # the context keeps read-only scaled splits of its own, not the raw rows
        X, y = synthetic_dataset()
        stats = standardize_fit(X[:100])
        rows = (np.arange(100), np.arange(100, len(X)))
        for standardize in (True, False):
            data = X.copy()
            ctx = FitnessContext(data, y, rows, config=KnnConfig(k=5), standardize=standardize)
            data[:] = 0.0
            assert not hasattr(ctx, "X") and not hasattr(ctx, "X_train")
            assert np.array_equal(ctx.y_train, y[:100]) and np.array_equal(ctx.y_val, y[100:])
            for arr, raw in ((ctx.scaled_train, X[:100]), (ctx.scaled_val, X[100:])):
                want = standardize_apply(stats, raw) if standardize else raw
                assert arr.tobytes() == want.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 100.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["svm", "ann", "knn"]), st.booleans())
    def test_scaled_splits_score_as_the_raw_split_oracle(self, seed, kind, standardize):
        # columns of unequal offset and scale, so that scaling moves every value
        rng = np.random.default_rng(seed)
        X, y = synthetic_dataset(n=80, seed=seed)
        X = X * rng.uniform(0.2, 5.0, 6) + rng.uniform(-3.0, 3.0, 6)
        cfg = {"svm": SvmConfig(max_sweeps=5000), "ann": AnnConfig(epochs=3, seed=seed % 97),
               "knn": KnnConfig(k=5)}[kind]
        ctx = make_fitness_context(X, y, config=cfg, seed=seed, standardize=standardize)
        masks = np.concatenate([np.ones((1, 6), dtype=bool), np.eye(6, dtype=bool),
                                random_masks(rng, 4, 6)])
        want = [wrapper_fitness_oracle(mask, *raw_splits(X, y, seed), kind, cfg, standardize)
                for mask in masks]
        assert fitness_batch(masks, ctx) == want

    @pytest.mark.parametrize("classifier", ["knn", "svm", "ann"])
    @pytest.mark.parametrize("bad, standardize, message", [
        ("labels", True, "labels must be 0 or 1"),
        ("nan validation row", True, "features must be finite"),
        ("inf training row", False, "features must be finite"),
    ])
    def test_bad_input_rejected_at_build(self, classifier, bad, standardize, message):
        X, y = synthetic_dataset(n=80, seed=4)
        train_rows, val_rows = stratified_split(y, 0.2, 1)
        if bad == "labels":
            y = 2 * y
        elif bad == "nan validation row":
            X[val_rows[3], 2] = np.nan
        else:
            X[train_rows[5], 4] = np.inf
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_fitness_context(X, y, config=CONFIGS[classifier](), seed=1,
                                 standardize=standardize)

    def test_k_larger_than_wrapper_training_rows(self):
        # the context builds under any k; the first KNN score checks it
        X, y = synthetic_dataset(n=40)
        n_train = len(stratified_split(y, 0.2, 0)[0])
        mask = np.ones(6, dtype=bool)
        ctx = make_fitness_context(X, y, config=KnnConfig(k=50), seed=0)
        with pytest.raises(ValueError, match=f"^k=50 exceeds training size {n_train}$"):
            fitness(mask, ctx)
        assert (ctx.evals, ctx.trainings, ctx.cache) == (0, 0, {})
        fitness(mask, make_fitness_context(X, y, config=KnnConfig(k=n_train), seed=0))


class TestSearchers:
    @pytest.mark.parametrize("method,params", [
        ("bcs", BcsParams()),
        ("bpso", BpsoParams()),
        ("ga", GaParams(population=20, iterations=15)),
    ])
    def test_finds_exhaustive_optimum(self, ctx, method, params):
        best_fit, _ = exhaustive_best_mask(lambda m: fitness(m, ctx), ctx.n_features)
        hits = 0
        runs = 8
        for seed in range(runs):
            res = run_search(method, ctx, params, seed)
            hits += res.best_fitness == best_fit
        assert hits >= runs - 1, f"{method}: {hits}/{runs} runs reached {best_fit}"

    def test_traces_monotone_and_sized(self, ctx):
        for method, params in (("bcs", BcsParams()), ("bpso", BpsoParams()),
                               ("ga", GaParams())):
            res = run_search(method, ctx, params, 3)
            assert len(res.trace) == params.iterations + 1
            assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
            assert res.trace[-1] == res.best_fitness

    def test_evaluation_counts_pin_population_loops(self, ctx):
        # initial population + per-iteration proposals (+ BCS abandonments)
        res = run_search("bcs", ctx, BcsParams(), 0)
        assert res.evaluations == 30 + 10 * (30 + 7)
        res = run_search("bpso", ctx, BpsoParams(), 0)
        assert res.evaluations == 30 + 10 * 30
        res = run_search("ga", ctx, GaParams(), 0)
        assert res.evaluations == 50 + 30 * 50

    def test_deterministic_given_seed(self, ctx):
        for method in ("bcs", "bpso", "ga"):
            a = run_search(method, ctx, None, 11)
            b = run_search(method, ctx, None, 11)
            assert np.array_equal(a.best_mask, b.best_mask)
            assert a.trace == b.trace

    def test_generator_rng_accepted(self, ctx):
        res = run_search("ga", ctx, GaParams(population=6, iterations=2),
                         np.random.default_rng(0))
        assert res.n_selected >= 1

    def test_cache_soundness(self):
        X, y = synthetic_dataset(seed=42)
        ctx = make_fitness_context(X, y, config=KnnConfig(k=5), seed=2)
        run_search("ga", ctx, GaParams(population=10, iterations=5), 0)
        assert ctx.trainings == len(ctx.cache)
        assert ctx.evals >= ctx.trainings

    def test_unknown_method(self, ctx):
        with pytest.raises(ValueError, match="unknown FS"):
            run_search("tabu", ctx, None, 0)

    def test_zero_iterations_returns_initial_best(self, ctx):
        res = run_search("bpso", ctx, BpsoParams(iterations=0), 4)
        assert len(res.trace) == 1
        assert res.evaluations == 30


class TestFsResult:
    def test_decreasing_trace_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            FsResult(best_mask=np.ones(3, dtype=bool), best_fitness=0.5,
                     trace=(0.6, 0.5), evaluations=2)

    def test_n_selected(self):
        res = FsResult(best_mask=np.array([True, False, True]), best_fitness=0.9,
                       trace=(0.9,), evaluations=1)
        assert res.n_selected == 2


class TestExport:
    def test_files_and_contents(self, tmp_path, ctx):
        res = run_search("ga", ctx, GaParams(population=8, iterations=3), 0)
        labels = [f"m{i}" for i in range(6)]
        txt, trace = export_fs_result(res, labels, tmp_path / "ga")
        body = txt.read_text()
        assert f"n_selected = {res.n_selected}" in body
        assert f"evaluations = {res.evaluations}" in body
        for idx in np.flatnonzero(res.best_mask):
            assert f"{idx} m{idx}" in body
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,best_fitness"
        assert len(lines) == 1 + len(res.trace)

    @pytest.mark.parametrize("method", ["bcs", "bpso", "ga"])
    def test_fitness_lines_parse_as_floats(self, tmp_path, ctx, method):
        # every searcher reports plain floats, so the exports hold bare reprs
        res = run_search(method, ctx, None, 0)
        txt, trace = export_fs_result(res, [f"m{i}" for i in range(6)], tmp_path / method)
        fit_line = txt.read_text().splitlines()[0]
        assert float(fit_line.removeprefix("best_fitness = ")) == res.best_fitness
        values = [float(line.split(",")[1]) for line in trace.read_text().splitlines()[1:]]
        assert values == list(res.trace)

    def test_label_count_mismatch(self, tmp_path, ctx):
        res = run_search("ga", ctx, GaParams(population=8, iterations=2), 0)
        with pytest.raises(ValueError, match="label count"):
            export_fs_result(res, ["only", "two"], tmp_path / "x")
