"""Classifier correctness: hand values, brute-force oracles, gradient checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdilab import (
    AnnConfig,
    KnnConfig,
    SvmConfig,
    TrainedModel,
    accuracy,
    load_model,
    predict,
    save_model,
    train_model,
)
from fdilab import classify
from fdilab.featsel import FitnessContext, fitness_batch, make_fitness_context
from fdilab.classify import (
    _gram,
    _smo,
    ann_forward,
    ann_hidden_size,
    ann_init,
    knn_votes,
    standardize_apply,
    standardize_fit,
    stratified_split,
    svm_decision,
)

from oracles import (
    ann_fit_oracle,
    ann_loss_fd,
    ann_loss_grads,
    duality_gap,
    gram_oracle,
    kernel_gaussian,
    knn_oracle,
    knn_votes_class_split_oracle,
    knn_votes_union_oracle,
    sigmoid_oracle,
    svm_dual_objective as dual_obj_loops,
    svm_dual_oracle,
    svm_model_dual_objective,
)
from test_attack import _traced_peak


def blobs(n_per=20, spread=0.6, dim=4, seed=0):
    """Two Gaussian clusters, labels 0/1, interleaved row order."""
    rng = np.random.default_rng(seed)
    a = rng.normal(-1.0, spread, (n_per, dim))
    b = rng.normal(+1.0, spread, (n_per, dim))
    X = np.empty((2 * n_per, dim))
    X[0::2] = a
    X[1::2] = b
    y = np.zeros(2 * n_per, dtype=np.int64)
    y[1::2] = 1
    return X, y


def full_alpha(model, X):
    """The dual vector over every training row of an SVM fitted on X unscaled;
    rows that are not support vectors get 0."""
    is_sv = (X[:, None, :] == model.params["sv"][None, :, :]).all(axis=2).any(axis=1)
    alpha = np.zeros(len(X))
    alpha[is_sv] = model.params["sv_alpha"]
    return alpha


class TestScaler:
    def test_hand_values_and_constant_column(self):
        X = np.array([[0.0, 5.0], [2.0, 5.0]])
        stats = standardize_fit(X)
        assert np.allclose(stats.mean, [1.0, 5.0])
        assert np.allclose(stats.std, [1.0, 1.0])  # constant column falls back to 1
        assert stats.constant.tolist() == [False, True]
        out = standardize_apply(stats, X)
        assert np.allclose(out, [[-1.0, 0.0], [1.0, 0.0]])

    def test_feature_count_check(self):
        stats = standardize_fit(np.ones((3, 2)))
        with pytest.raises(ValueError):
            standardize_apply(stats, np.ones((3, 4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standardize_fit(np.empty((0, 3)))

    def test_stats_depend_on_neither_layout_nor_other_columns(self):
        # a wrapper context scales every column once and slices masks from it,
        # so its stats must be bit for bit those of each mask's own columns
        X = np.random.default_rng(3).normal(5.0, 3.0, (1600, 54))
        X[:, 9] = 2.5
        stats = standardize_fit(np.ascontiguousarray(X))
        cols = np.array([0, 7, 9, 30, 53])
        for other in (standardize_fit(np.asfortranarray(X)), standardize_fit(X[:, cols]),
                      standardize_fit(np.ascontiguousarray(X[:, cols]))):
            picked = slice(None) if other.mean.shape == stats.mean.shape else cols
            for name in ("mean", "std", "constant"):
                assert getattr(other, name).tobytes() == getattr(stats, name)[picked].tobytes()


class TestStratifiedSplit:
    def test_sizes_and_disjointness(self):
        y = np.array([0] * 40 + [1] * 10)
        tr, va = stratified_split(y, 0.2, seed=0)
        assert len(va) == 8 + 2
        assert len(tr) == 40
        assert set(tr) & set(va) == set()
        assert sorted(set(tr) | set(va)) == list(range(50))
        assert (y[va] == 0).sum() == 8 and (y[va] == 1).sum() == 2

    def test_minimum_one_per_class(self):
        y = np.array([0] * 30 + [1] * 2)
        _, va = stratified_split(y, 0.1, seed=1)
        assert (y[va] == 1).sum() == 1

    def test_deterministic_and_sorted(self):
        y = np.array([0, 1] * 25)
        tr1, va1 = stratified_split(y, 0.2, seed=7)
        tr2, va2 = stratified_split(y, 0.2, seed=7)
        assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
        assert np.all(np.diff(va1) > 0) and np.all(np.diff(tr1) > 0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1]), 1.0, seed=0)


class TestKernel:
    def test_unit_distance_value(self):
        assert kernel_gaussian([0.0, 0.0], [1.0, 0.0], 1.0) == pytest.approx(math.exp(-1.0))

    def test_same_point_is_one(self):
        assert kernel_gaussian([0.3, -0.2], [0.3, -0.2], 2.5) == 1.0

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        K = _gram(A, B, 0.7)
        for i in range(5):
            for j in range(4):
                assert K[i, j] == pytest.approx(kernel_gaussian(A[i], B[j], 0.7), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kernel_gaussian([1.0], [1.0, 2.0], 1.0)


def _block_rows(m):
    """Rows of _gram's |a|^2 + |b|^2 block for m columns of K: 64 KB, at least one."""
    return max(1, 8192 // m)


@st.composite
def _gram_shapes(draw):
    """(n, m, same): K's shape, with n around one and two blocks of rows; when
    same, A is B, so n = m and K is 1 block up to n = 90, 2 at 91-128, 3 at 129."""
    if draw(st.booleans()):
        n = draw(st.one_of(st.integers(1, 200), st.sampled_from([89, 90, 91, 92, 128, 129])))
        return n, n, True
    m = draw(st.sampled_from([1, 2, 3, 34, 137, 1000, 4096, 8191, 8192, 8193]))
    rows = _block_rows(m)
    edges = [max(1, rows * k + e) for k in (1, 2) for e in (-1, 0, 1)]
    return draw(st.one_of(st.sampled_from(edges), st.integers(1, 2 * rows + 2))), m, False


class TestGramMatchesOracle:
    """_gram builds K in place in row blocks; tests/oracles.gram_oracle is the
    one-expression form it replaced, and the two agree byte for byte."""

    @given(shape=_gram_shapes(), d=st.integers(1, 6), gamma=st.floats(1e-5, 2.0),
           strided=st.booleans(), dup=st.booleans(), offset=st.sampled_from([0.0, 1e3]),
           seed=st.integers(0, 2 ** 16))
    @example(shape=(91, 91, True), d=3, gamma=2.0, strided=True, dup=True, offset=1e3, seed=0)
    @example(shape=(8193, 1, False), d=1, gamma=1e-5, strided=False, dup=True, offset=0.0,
             seed=1)
    @settings(max_examples=80, deadline=None)
    def test_bytes_equal_oracle(self, shape, d, gamma, strided, dup, offset, seed):
        n, m, same = shape
        rng = np.random.default_rng(seed)
        wide = rng.normal(offset, 1.0, (n, 2 * d))
        A = wide[:, ::2] if strided else np.ascontiguousarray(wide[:, :d])
        B = A if same else rng.normal(offset, 1.0, (m, d))
        if dup:   # repeated rows: distances of exactly 0, which the clamp at 0 meets
            A[n // 2:] = A[0]
            B[m // 2:] = A[0]
        assert _gram(A, B, gamma).tobytes() == gram_oracle(A, B, gamma).tobytes()

    def test_duplicate_rows_hit_the_clamp(self):
        A = np.random.default_rng(4).normal(1e3, 1.0, (200, 7))
        A[100:] = A[:100]
        sq = (A * A).sum(axis=1)[:, None] + (A * A).sum(axis=1)[None, :] - 2.0 * (A @ A.T)
        assert (sq < 0).any()   # rounding makes some squared distances negative
        K = _gram(A, A, 0.5)
        assert K.tobytes() == gram_oracle(A, A, 0.5).tobytes()
        assert (K[sq < 0] == 1.0).all()

    def test_fit_decision_and_dual_objective_on_the_oracle_kernel(self):
        X, y = blobs(n_per=60, spread=1.2, dim=5, seed=8)
        cfg = SvmConfig(C=10.0, gamma=0.3)
        model = train_model(X, y, "svm", cfg)
        p = model.params
        Xs = classify._prepare(model, X)   # the masked, scaled rows train_model fitted on
        y_pm = np.where(y == 1, 1.0, -1.0)
        alpha, b, _ = _smo(gram_oracle(Xs, Xs, cfg.gamma), y_pm, cfg)
        assert p["sv_alpha"].tobytes() == alpha[alpha > 1e-12].tobytes() and p["b"] == b
        coef = p["sv_alpha"] * p["sv_y"]
        Q = np.random.default_rng(9).normal(size=(300, 5))
        want = coef @ gram_oracle(p["sv"], classify._prepare(model, Q), p["gamma"]) + b
        assert svm_decision(model, Q).tobytes() == want.tobytes()
        K = gram_oracle(p["sv"], p["sv"], p["gamma"])
        assert svm_model_dual_objective(model) == float(p["sv_alpha"].sum() - 0.5 * coef @ K @ coef)


class TestSvm:
    def test_separable_blobs_fit(self):
        X, y = blobs(seed=4)
        model = train_model(X, y, "svm", SvmConfig(C=1.0, gamma=0.5))
        assert model.converged
        assert accuracy(predict(model, X), y) == 1.0

    def test_decision_tie_goes_to_class_zero(self):
        # two mirrored support vectors with equal weight: the decision at the
        # midpoint is exactly 0.0 and the tie rule labels it 0
        params = {
            "sv": np.array([[1.0, 0.0], [-1.0, 0.0]]),
            "sv_alpha": np.array([0.5, 0.5]),
            "sv_y": np.array([1.0, -1.0]),
            "b": 0.0,
            "C": 1.0,
            "gamma": 0.3,
            "tol": 1e-3,
        }
        model = TrainedModel(kind="svm", params=params, scaler=None,
                             mask=np.ones(2, dtype=bool))
        mid = np.array([0.0, 0.0])
        assert svm_decision(model, mid)[0] == 0.0
        assert predict(model, mid) == 0

    def test_dual_feasibility(self):
        for seed in range(5):
            X, y = blobs(n_per=15, spread=1.0, seed=seed)
            cfg = SvmConfig(C=2.0, gamma=0.4)
            model = train_model(X, y, "svm", cfg)
            a = model.params["sv_alpha"]
            ysv = model.params["sv_y"]
            assert np.all(a > 0.0) and np.all(a <= cfg.C + 1e-9)
            assert abs(float(a @ ysv)) < 1e-8  # dropped alphas are exact zeros

    def test_margin_condition_on_free_vectors(self):
        # KKT: y_i f(x_i) = 1 on support vectors strictly inside the box
        X, y = blobs(n_per=15, spread=1.0, seed=9)
        cfg = SvmConfig(C=2.0, gamma=0.4, tol=1e-4)
        model = train_model(X, y, "svm", cfg)
        p = model.params
        a, ysv = p["sv_alpha"], p["sv_y"]
        free = (a > 1e-6) & (a < cfg.C - 1e-6)
        assert free.any()
        K = _gram(p["sv"], p["sv"], cfg.gamma)
        f = (a * ysv) @ K + p["b"]
        assert np.max(np.abs(ysv[free] * f[free] - 1.0)) < 10 * cfg.tol

    def test_dual_matches_projected_gradient_oracle(self):
        # where the oracle converges, D(oracle) is D* to about 1e-8, so the
        # duality gap, which bounds D* - D(alpha), must cover the measured |dD|
        rng = np.random.default_rng(12)
        for trial in range(6):
            n = int(rng.integers(12, 50))
            X = rng.normal(0.0, 1.0, (n, 3))
            y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            cfg = SvmConfig(C=1.5, gamma=0.5, tol=1e-4, max_sweeps=8000)
            model = train_model(X, y, "svm", cfg, standardize=False)
            K = _gram(X, X, cfg.gamma)
            y_pm = np.where(y == 1, 1.0, -1.0)
            a_star = svm_dual_oracle(K, y_pm, cfg.C)
            want = dual_obj_loops(a_star, K, y_pm)
            got = svm_model_dual_objective(model)
            assert abs(got - want) < 1e-3, f"trial {trial}: {got} vs {want}"
            gap = duality_gap(full_alpha(model, X), K, y_pm, cfg.C)
            assert gap >= abs(got - want), f"trial {trial}: gap {gap} < |dD| {abs(got - want)}"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(8, 40), st.floats(0.1, 1e4), st.floats(1e-3, 2.0),
           st.integers(0, 2 ** 31 - 1))
    def test_solution_is_feasible_kkt_and_optimal(self, n, C, gamma, seed):
        """A converged fit is certified within n C tol / 2 of the optimal dual.

        With v = -y * grad, the solver stops when m - M < tol, where m is the
        largest v over I_up and M the smallest over I_low. At b = (m + M) / 2
        and u_i = y_i (v_i - b), the duality gap is sum_i t_i with
        t_i = (C - alpha_i) max(0, u_i) + alpha_i max(0, -u_i). A positive u_i
        with alpha_i < C, or a negative one with alpha_i > 0, puts i in I_up
        or I_low on the side that bounds |u_i| by (m - M) / 2. So every
        t_i <= C tol / 2, and P - D <= n C tol / 2 at the best bias too.
        """
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, (n, 3))
        y_pm = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y_pm[:2] = (1.0, -1.0)
        K = _gram(X, X, gamma)
        cfg = SvmConfig(C=C, gamma=gamma, tol=1e-4)
        a, _b, converged = _smo(K, y_pm, cfg)
        assert converged
        assert np.all(a >= 0.0) and np.all(a <= C)
        assert abs(float(a @ y_pm)) < 1e-8
        # maximal violating pair of -y * grad over I_up and I_low
        v = -y_pm * (y_pm * (K @ (a * y_pm)) - 1.0)
        up = np.where(y_pm > 0, a < C, a > 0)
        low = np.where(y_pm > 0, a > 0, a < C)
        assert v[up].max() - v[low].min() <= cfg.tol
        gap = duality_gap(a, K, y_pm, C)
        assert -1e-9 * max(1.0, C) <= gap <= n * C * cfg.tol / 2

    def test_unconverged_flag(self):
        X, y = blobs(seed=5)
        model = train_model(X, y, "svm", SvmConfig(max_sweeps=1))
        assert model.converged is False

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="both classes"):
            train_model(X, np.zeros(10, dtype=int), "svm", SvmConfig())


class TestMemoryBounds:
    """Peak traced memory of the SVM kernel path at n = 1,000, in units of the
    n x n Gram K (8 MB), which is the only full-size array it holds, of the
    training rows' copies in train_model, and of one knn_votes call and one
    KNN wrapper context at 118-bus width."""

    X, y = blobs(n_per=500, spread=1.5, dim=34, seed=10)

    def test_gram_peak(self):
        K, peak = _traced_peak(lambda: _gram(self.X, self.X, 0.1))
        assert peak <= 1.1 * K.nbytes

    def test_train_svm_peak(self):
        _, peak = _traced_peak(lambda: train_model(self.X, self.y, "svm", SvmConfig()))
        assert peak <= 1.4 * 8 * len(self.X) ** 2

    @pytest.mark.parametrize("kind, cfg", [("knn", KnnConfig()), ("ann", AnnConfig(epochs=1))],
                             ids=["knn", "ann"])
    def test_train_scales_one_copy_of_the_masked_rows(self, kind, cfg):
        # the masked copy of X is scaled into one new array and then freed; an
        # ANN epoch adds its shuffled rows
        _, peak = _traced_peak(lambda: train_model(self.X, self.y, kind, cfg))
        assert peak <= 2.5 * self.X.nbytes

    def test_knn_votes_peak(self):
        # the 118-bus wrapper split: 1,600 training and 400 query rows of 304
        # columns; masks of 110 columns whose union is every column from 3 masks on
        rng = np.random.default_rng(11)
        n_b, n_q, n_f = 1600, 400, 304
        B, Q = rng.normal(size=(n_b, n_f)), rng.normal(size=(n_q, n_f))
        y = rng.integers(0, 2, n_b)
        masks = np.zeros((20, n_f), dtype=bool)
        for p in range(20):
            masks[p, (110 * p + np.arange(110)) % n_f] = True
        peaks = [_traced_peak(lambda: knn_votes(Q, B, y, 12, masks[:P]))[1] for P in (5, 20)]
        # the class-sorted training rows over U (8 n_f n_b bytes), then a few
        # budgets: the Gram chunk, the query rows over U, one mask's columns
        assert peaks[1] <= 4 * classify.KNN_WORK_BYTES + 8 * n_f * n_b
        # 15 more masks add only their 15 rows of labels
        assert peaks[1] - peaks[0] <= 2 * 8 * 15 * n_q

    def test_knn_context_holds_one_training_block(self):
        # a KNN wrapper context at 118-bus width holds its scaled splits, which
        # its blocks read by reference, and one class-sorted copy of the training
        # rows; the query block is a view
        rng = np.random.default_rng(12)
        n_b, n_q, n_f = 1600, 400, 304
        X, y = rng.normal(size=(n_b + n_q, n_f)), rng.integers(0, 2, n_b + n_q)
        rows = (np.arange(n_b), np.arange(n_b, n_b + n_q))
        tracemalloc.start()
        try:
            ctx = FitnessContext(X, y, rows, config=KnnConfig(k=12))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.knn.B is ctx.scaled_train and ctx.knn.Q is ctx.scaled_val
        arrays = {id(a): a for a in (ctx.scaled_train, ctx.scaled_val, ctx.knn.B, ctx.knn.Q)}
        splits = sum(a.nbytes for a in arrays.values())
        block = 8 * n_f * n_b
        assert held <= splits + block + 64 * 1024
        # the copy is made a row block of about KNN_WORK_BYTES at a time
        assert peak <= splits + block + 1.1 * classify.KNN_WORK_BYTES

    def test_knn_context_build(self):
        # make_fitness_context on 2,000 rows of 118-bus width keeps the scaled
        # splits and the class-sorted training rows, 2.25 blocks of 8 n_f n_b
        # (n_b the 1,600 wrapper training rows), and no raw copy of a split
        rng = np.random.default_rng(13)
        X, y = rng.normal(size=(2000, 304)), rng.integers(0, 2, 2000)
        tracemalloc.start()
        try:
            ctx = make_fitness_context(X, y, config=KnnConfig(k=12))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 8 * X.shape[1] * len(ctx.y_train)
        assert held <= 2.3 * block
        # at the layout: the scaled splits, the class-sorted rows and one row
        # block of them (2.53 measured); each raw split is freed once scaled
        assert peak <= 2.6 * block


def knn_labels(train_X, train_y, k, X):
    """KNN labels of the rows X on every column: knn_votes with one all-ones mask."""
    train_X = np.asarray(train_X, dtype=float)
    return knn_votes(X, train_X, train_y, k, np.ones((1, train_X.shape[1]), dtype=bool))[0]


class TestKnn:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        train_X = rng.normal(size=(40, 3))
        train_y = rng.integers(0, 2, 40)
        queries = rng.normal(size=(15, 3))
        for k in (1, 3, 5, 12):
            got = knn_labels(train_X, train_y, k, queries)
            want = [knn_oracle(train_X, train_y, k, q) for q in queries]
            assert got.tolist() == want

    def test_distance_tie_keeps_lowest_index(self):
        train_X = np.array([[0.0], [2.0]])
        train_y = np.array([1, 0])
        assert knn_labels(train_X, train_y, 1, np.array([1.0]))[0] == 1

    def test_vote_tie_goes_to_class_zero(self):
        train_X = np.array([[0.0], [2.0]])
        train_y = np.array([1, 0])
        assert knn_labels(train_X, train_y, 2, np.array([1.0]))[0] == 0

    def test_k_larger_than_training_set(self):
        with pytest.raises(ValueError, match="exceeds"):
            knn_labels(np.ones((3, 2)), np.ones(3, dtype=int), 4, np.ones(2))
        with pytest.raises(ValueError, match="exceeds"):
            train_model(np.ones((3, 2)), np.ones(3, dtype=int), "knn", KnnConfig(k=4),
                        standardize=False)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_model(np.empty((0, 2)), np.empty(0, dtype=int), "knn", KnnConfig(k=1))

    def test_single_vector_and_batch_agree(self):
        rng = np.random.default_rng(22)
        train_X = rng.normal(size=(20, 4))
        train_y = rng.integers(0, 2, 20)
        q = rng.normal(size=4)
        model = train_model(train_X, train_y, "knn", KnnConfig(k=3), standardize=False)
        single = predict(model, q)
        batch = predict(model, q[None, :])
        assert single == batch[0] == knn_labels(train_X, train_y, 3, q[None, :])[0]

    def test_tie_heavy_integer_data_matches_oracle(self):
        # a 3 x 3 grid of points: exact distance ties at the k-th place abound
        for seed in range(30):
            rng = np.random.default_rng(seed)
            train_X = rng.integers(0, 3, (30, 2)).astype(float)
            train_y = rng.integers(0, 2, 30)
            queries = rng.integers(0, 3, (10, 2)).astype(float)
            k = int(rng.integers(1, 16))
            got = knn_labels(train_X, train_y, k, queries)
            want = [knn_oracle(train_X, train_y, k, q) for q in queries]
            assert got.tolist() == want, f"seed {seed}, k={k}"

    @pytest.mark.parametrize("work_bytes", [1, 3 * 8 * 25 * 9, 1 << 20])
    def test_votes_per_mask_equal_column_slices(self, monkeypatch, work_bytes):
        # Gram chunks of 1 and 4 query rows (the last one partial) and a single chunk
        monkeypatch.setattr(classify, "KNN_WORK_BYTES", work_bytes)
        rng = np.random.default_rng(23)
        train_X = rng.integers(0, 3, (25, 6)).astype(float)
        train_y = rng.integers(0, 2, 25)
        queries = rng.integers(0, 3, (10, 6)).astype(float)
        masks = rng.random((3, 6)) < 0.5
        masks[:, 0] = True
        got = knn_votes(queries, train_X, train_y, 7, masks)
        assert got.shape == (3, 10)
        for mask, row in zip(masks, got):
            want = [knn_oracle(train_X[:, mask], train_y, 7, q) for q in queries[:, mask]]
            assert row.tolist() == want

    @staticmethod
    def _case(kind, seed, n_b, n_f, n_q):
        """Training and query rows of one tie regime."""
        rng = np.random.default_rng(seed)
        if kind in ("grid", "scaled grid"):
            B = rng.integers(0, 3, (n_b, n_f)).astype(float)
            Q = rng.integers(0, 3, (n_q, n_f)).astype(float)
            if kind == "scaled grid":  # exact ties become rounding-level near ties
                stats = standardize_fit(B)
                B, Q = standardize_apply(stats, B), standardize_apply(stats, Q)
            return B, Q
        Q = rng.normal(size=(n_q, n_f))
        if kind == "continuous":
            return rng.normal(size=(n_b, n_f)), Q
        # a few base rows, each repeated: the k-th place falls inside a group
        B = rng.normal(size=(3, n_f))[rng.integers(0, 3, n_b)]
        if kind == "near duplicates":  # copies a few ulps apart
            B = B + B * rng.integers(-3, 4, B.shape) * 2.0 ** -52
        return B, Q

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["continuous", "grid", "scaled grid", "duplicates",
                                 "near duplicates"]),
           seed=st.integers(0, 2**32 - 1), k=st.integers(1, 25), extra=st.integers(0, 15),
           n_f=st.integers(1, 5), n_q=st.integers(1, 7), n_masks=st.integers(1, 3),
           work_bytes=st.sampled_from([1, 3000, classify.KNN_WORK_BYTES]),
           p_one=st.sampled_from([0.5, 0.15, 0.85]))
    def test_gram_ranking_equals_direct_kernel_and_oracle(self, kind, seed, k, extra, n_f,
                                                          n_q, n_masks, work_bytes, p_one):
        n_b = k + extra
        B, Q = self._case(kind, seed, n_b, n_f, n_q)
        rng = np.random.default_rng(seed + 1)
        y = (rng.random(n_b) < p_one).astype(np.int64)  # skewed: small class blocks
        masks = rng.random((n_masks, n_f)) < 0.6
        masks[np.arange(n_masks), rng.integers(0, n_f, n_masks)] = True
        calls = []
        direct = classify._knn_votes_direct

        def counted(Qr, *args):
            calls.append(len(Qr))
            return direct(Qr, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "KNN_WORK_BYTES", work_bytes)
            mp.setattr(classify, "_knn_votes_direct", counted)
            got = knn_votes(Q, B, y, k, masks)
        self._assert_labels(got, Q, B, y, k, masks, work_bytes)
        if kind == "continuous" or k == n_b:
            assert calls == []

    @staticmethod
    def _assert_labels(got, Q, B, y, k, masks, work_bytes=classify.KNN_WORK_BYTES):
        """got equals the direct kernel, the class-split and union-Gram kernels
        it replaced and the brute-force oracle on each mask."""
        assert got.tolist() == classify._knn_votes_direct(Q, B, y, k, masks).tolist()
        assert got.tolist() == knn_votes_class_split_oracle(Q, B, y, k, masks,
                                                            work_bytes).tolist()
        assert got.tolist() == knn_votes_union_oracle(Q, B, y, k, masks, work_bytes).tolist()
        for mask, row in zip(masks, got):
            assert row.tolist() == [knn_oracle(B[:, mask], y, k, q) for q in Q[:, mask]]

    @pytest.mark.parametrize("kind", ["continuous", "grid"])
    @pytest.mark.parametrize("n_ones", [0, 3, 7, 8, 17, 20])
    def test_class_blocks_of_any_size(self, kind, n_ones):
        # k = 7 of 20 rows: a class may be empty, smaller than k + 1, or all rows
        B, Q = self._case(kind, 26, 20, 3, 8)
        y = np.zeros(20, dtype=np.int64)
        y[np.random.default_rng(n_ones).permutation(20)[:n_ones]] = 1
        masks = np.array([[True, True, True], [True, False, True], [False, True, False]])
        got = knn_votes(Q, B, y, 7, masks)
        self._assert_labels(got, Q, B, y, 7, masks)
        if n_ones in (0, 20):
            assert (got == n_ones // 20).all()

    @pytest.mark.parametrize("kind", ["continuous", "grid"])
    @pytest.mark.parametrize("k, n_ones", [
        (7, 3), (7, 4), (7, 16), (7, 17),           # h = k - h + 1 = 4
        (8, 4), (8, 5), (8, 15), (8, 16), (8, 17),  # h = 5, k - h + 1 = 4
    ])
    def test_class_blocks_at_the_vote_orders(self, kind, k, n_ones):
        # a label 1 is the h-th nearest class-1 row (h = k // 2 + 1) ranking
        # before the (k - h + 1)-th nearest class-0 row; each block just
        # below, at or above that order
        B, Q = self._case(kind, 29, 20, 3, 8)
        y = np.zeros(20, dtype=np.int64)
        y[np.random.default_rng(n_ones).permutation(20)[:n_ones]] = 1
        masks = np.array([[True, True, True], [True, False, True], [False, True, False]])
        got = knn_votes(Q, B, y, k, masks)
        self._assert_labels(got, Q, B, y, k, masks)
        h = k // 2 + 1
        if n_ones < h:
            assert (got == 0).all()
        elif 20 - n_ones < k - h + 1:
            assert (got == 1).all()

    def test_rounding_level_ties_are_recomputed(self):
        # each query q has the rows q - e (class 0, lower index) and q + e (class 1)
        # at exactly equal distances, so the lowest index gives label 0; the Gram
        # form rounds |b|^2 - 2<q, b> of the two apart, and only the certificate
        # keeps that rounding from deciding the tie
        rng = np.random.default_rng(30)
        n_q, n_f = 40, 3
        Q = rng.integers(500, 1000, (n_q, n_f)) + rng.integers(0, 2 ** 30, (n_q, n_f)) * 2.0 ** -30
        E = rng.integers(1, 8, (n_q, n_f)) * 2.0 ** -20
        B = np.concatenate([Q - E, Q + E])
        y = np.repeat([0, 1], n_q)
        masks = np.array([[True, True, True], [True, False, True]])
        for k in (1, 3):
            got = knn_votes(Q, B, y, k, masks)
            if k == 1:
                assert (got == 0).all()
            self._assert_labels(got, Q, B, y, k, masks)

    def test_empty_mask_row_votes_the_lowest_indices(self):
        # every training row is at distance 0: all tie, so rows 0..k-1 vote
        B, Q = self._case("continuous", 27, 20, 3, 6)
        y = np.array([0, 0, 1, 1, 1] + [1, 0] * 7 + [0])
        for masks in ([[False, False, False], [True, False, True]], [[False, False, False]]):
            masks = np.array(masks)
            for k, label in ((3, 0), (5, 1)):
                got = knn_votes(Q, B, y, k, masks)
                assert (got[0] == label).all()
                self._assert_labels(got, Q, B, y, k, masks)

    @pytest.mark.parametrize("integer_data", [False, True])
    def test_disjoint_masks_score_as_alone(self, integer_data):
        rng = np.random.default_rng(28)
        X = rng.integers(0, 3, (80, 6)).astype(float) if integer_data else rng.normal(size=(80, 6))
        y = rng.integers(0, 2, 80)
        masks = np.repeat(np.eye(3, dtype=bool), 2, axis=1)  # columns {0, 1}, {2, 3}, {4, 5}

        def ctx():
            return make_fitness_context(X, y, config=KnnConfig(k=5), seed=1,
                                        standardize=not integer_data)
        assert fitness_batch(masks, ctx()) == [fitness_batch([m], ctx())[0] for m in masks]

    @pytest.mark.parametrize("kind", ["grid", "scaled grid", "duplicates", "near duplicates"])
    def test_ties_fall_back_to_direct_kernel(self, monkeypatch, kind):
        B, Q = self._case(kind, 24, 30, 2, 10)
        y = np.random.default_rng(25).integers(0, 2, 30)
        calls = []
        direct = classify._knn_votes_direct

        def counted(Qr, *args):
            calls.append(len(Qr))
            return direct(Qr, *args)

        monkeypatch.setattr(classify, "_knn_votes_direct", counted)
        masks = np.array([[True, True], [True, False]])
        got = knn_votes(Q, B, y, 5, masks)
        assert calls and sum(calls) <= len(Q)
        assert got.tolist() == direct(Q, B, y, 5, masks).tolist()

    def test_knn_model_roundtrip_predicts_training_data(self):
        X, y = blobs(seed=6)
        model = train_model(X, y, "knn", KnnConfig(k=1))
        assert accuracy(predict(model, X), y) == 1.0


class TestAnnStructure:
    @pytest.mark.parametrize("L,M", [(34, 18), (304, 153), (1, 2), (137, 70)])
    def test_hidden_size(self, L, M):
        assert ann_hidden_size(L) == M

    def test_hidden_size_validation(self):
        with pytest.raises(ValueError):
            ann_hidden_size(0)

    def test_init_bounds_and_zero_biases(self):
        params = ann_init(L=10, N=2, seed=3)
        M = ann_hidden_size(10)
        assert params["W1"].shape == (M, 10)
        assert params["W2"].shape == (2, M)
        r1 = math.sqrt(6.0 / (10 + M))
        r2 = math.sqrt(6.0 / (M + 2))
        assert np.all(np.abs(params["W1"]) <= r1)
        assert np.all(np.abs(params["W2"]) <= r2)
        assert np.all(params["th1"] == 0.0) and np.all(params["th2"] == 0.0)

    def test_init_deterministic(self):
        a = ann_init(5, 2, seed=9)
        b = ann_init(5, 2, seed=9)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_forward_hand_chain(self):
        # one input, one hidden node (chosen shapes), two outputs; every node
        # computes f(w . x - theta)
        params = {
            "W1": np.array([[2.0]]),
            "th1": np.array([1.0]),
            "W2": np.array([[1.0], [-1.0]]),
            "th2": np.array([0.5, -0.5]),
        }
        x = np.array([1.0])
        a1 = 1.0 / (1.0 + math.exp(-(2.0 * 1.0 - 1.0)))
        s = [1.0 / (1.0 + math.exp(-(a1 - 0.5))),
             1.0 / (1.0 + math.exp(-(-a1 + 0.5)))]
        e = [math.exp(v - max(s)) for v in s]
        want = [v / sum(e) for v in e]
        got = ann_forward(params, x)
        assert np.allclose(got, want, atol=1e-12)
        assert got.shape == (2,)

    def test_forward_rows_sum_to_one(self):
        params = ann_init(6, 2, seed=1)
        X = np.random.default_rng(2).normal(size=(9, 6))
        P = ann_forward(params, X)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert np.all(P > 0.0)

    def test_forward_feature_mismatch(self):
        params = ann_init(6, 2, seed=1)
        with pytest.raises(ValueError):
            ann_forward(params, np.ones(5))


class TestAnnGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(20):
            L = int(rng.integers(2, 6))
            B = int(rng.integers(2, 7))
            params = ann_init(L, 2, seed=int(rng.integers(0, 1000)))
            # move off the zero-bias init so threshold gradients are generic
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
        assert worst < 1e-4

    def test_loss_decreases_in_training(self):
        X, y = blobs(n_per=30, seed=7)
        Xs = standardize_apply(standardize_fit(X), X)
        Y = np.zeros((60, 2))
        Y[np.arange(60), y] = 1.0
        params0 = ann_init(X.shape[1], 2, seed=0)
        loss0, _ = ann_loss_grads(params0, Xs, Y)
        model = train_model(X, y, "ann", AnnConfig(alpha=0.5, epochs=100, seed=0))
        loss1, _ = ann_loss_grads(model.params, Xs, Y)
        assert loss1 < loss0
        assert accuracy(predict(model, X), y) >= 0.95

    def test_training_deterministic(self):
        X, y = blobs(seed=8)
        cfg = AnnConfig(alpha=0.2, epochs=30, seed=5)
        m1 = train_model(X, y, "ann", cfg)
        m2 = train_model(X, y, "ann", cfg)
        assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)

    def test_nonfinite_loss_raises_with_epoch(self):
        # train_model rejects non-finite features, so the loops get them
        # directly; finite features, even near 1e300, saturate the sigmoids
        for bad in (np.nan, np.inf, -np.inf):
            X, y = blobs(n_per=5, seed=9)
            X[0, :2] = bad
            for fit in (classify._ann_fit, ann_fit_oracle):
                with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="epoch 0"):
                    fit(X, y, AnnConfig(epochs=3))


class TestAnnFitMatchesOracle:
    @given(n=st.integers(1, 40), L=st.integers(1, 9), batch=st.integers(1, 50),
           alpha=st.floats(1e-3, 5.0), seed=st.integers(0, 2**16), epochs=st.integers(1, 4))
    @example(n=17, L=3, batch=1, alpha=0.1, seed=0, epochs=2)
    @example(n=17, L=3, batch=17, alpha=0.1, seed=1, epochs=2)
    @example(n=17, L=3, batch=40, alpha=0.1, seed=2, epochs=2)
    @example(n=37, L=5, batch=8, alpha=0.7, seed=3, epochs=3)
    @settings(max_examples=60, deadline=None)
    def test_weights_bit_identical(self, n, L, batch, alpha, seed, epochs):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, (n, L))
        y = rng.integers(0, 2, n)
        cfg = AnnConfig(alpha=alpha, epochs=epochs, batch=batch, seed=seed)
        got, converged = classify._ann_fit(X, y, cfg)
        want = ann_fit_oracle(X, y, cfg)
        assert converged and got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_sigmoid_matches_the_two_branch_form(self):
        tiny = np.finfo(float).smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
                            745.0, -745.0, 800.0, -800.0, 36.7, -36.7])
        rand = np.random.default_rng(0).normal(0.0, 20.0, 10_000)
        for z in (special, rand, special.reshape(3, 5)):
            assert np.array_equal(classify._sigmoid(z), sigmoid_oracle(z), equal_nan=True)
        assert classify._sigmoid(np.float64(-2.0)) == sigmoid_oracle(np.float64(-2.0))


class TestCommonSurface:
    def test_accuracy_hand_value_and_validation(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])
        with pytest.raises(ValueError):
            accuracy([], [])

    @pytest.mark.parametrize("kind, cfg", [
        ("svm", SvmConfig(C=1.0, gamma=0.5)),
        ("knn", KnnConfig(k=3)),
        ("ann", AnnConfig(epochs=5)),
    ])
    def test_nonfinite_features_rejected(self, kind, cfg):
        X, y = blobs(seed=18)
        bad = X.copy()
        bad[2, 1] = np.nan
        for standardize in (True, False):
            with pytest.raises(ValueError, match="training features must be finite"):
                train_model(bad, y, kind, cfg, standardize=standardize)
        model = train_model(X, y, kind, cfg)
        query = X[:3].copy()
        query[1, 0] = np.inf
        with pytest.raises(ValueError, match="query features must be finite"):
            predict(model, query)
        # a non-finite value outside the mask is never read
        mask = np.array([True, False, True, True])
        assert predict(train_model(bad, y, kind, cfg, mask=mask), X).shape == y.shape

    @pytest.mark.parametrize("kind, cfg", [
        ("svm", SvmConfig(C=1.0, gamma=0.5)),
        ("knn", KnnConfig(k=3)),
        ("ann", AnnConfig(epochs=5)),
    ])
    def test_labels_outside_zero_one_rejected(self, kind, cfg):
        X, y = blobs(seed=19)
        for bad in (2 * y, y - 1, y + 0.5):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                train_model(X, bad, kind, cfg)

    def test_full_and_premasked_queries_round_alike(self):
        # one layout for every caller: before, 171 of these 300 SVM values
        # differed in the last bits between full-width and C-ordered queries
        rng = np.random.default_rng(34)
        X = rng.normal(size=(300, 34))
        y = (X[:, 0] + 0.5 * rng.normal(size=300) > 0).astype(np.int64)
        mask = rng.random(34) < 0.6
        Q = rng.normal(size=(300, 34))
        svm = train_model(X, y, "svm", SvmConfig(C=1.0, gamma=0.1), mask=mask)
        ann = train_model(X, y, "ann", AnnConfig(epochs=5), mask=mask)
        want_svm = svm_decision(svm, Q).tobytes()
        want_ann = ann_forward(ann.params, classify._prepare(ann, Q)).tobytes()
        for rows in (np.ascontiguousarray(Q[:, mask]), np.asfortranarray(Q[:, mask])):
            assert svm_decision(svm, rows).tobytes() == want_svm
            assert ann_forward(ann.params, classify._prepare(ann, rows)).tobytes() == want_ann

    def test_unknown_kind(self):
        X, y = blobs(seed=1)
        with pytest.raises(ValueError, match="unknown classifier"):
            train_model(X, y, "forest", None)

    def test_mask_full_and_premasked_prediction(self):
        X, y = blobs(dim=6, seed=10)
        mask = np.array([True, False, True, True, False, False])
        model = train_model(X, y, "knn", KnnConfig(k=3), mask=mask)
        full = predict(model, X)
        pre = predict(model, X[:, mask])
        assert np.array_equal(full, pre)
        with pytest.raises(ValueError, match="feature count"):
            predict(model, X[:, :4])

    def test_empty_mask_rejected(self):
        X, y = blobs(seed=11)
        with pytest.raises(ValueError, match="at least one feature"):
            train_model(X, y, "knn", KnnConfig(k=1), mask=np.zeros(4, dtype=bool))

    def test_no_standardize_path(self):
        X, y = blobs(seed=12)
        model = train_model(X, y, "knn", KnnConfig(k=1), standardize=False)
        assert model.scaler is None
        assert accuracy(predict(model, X), y) == 1.0

    def test_prediction_row_order_invariance(self):
        X, y = blobs(seed=13)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(X))
        for kind, cfg in (("svm", SvmConfig(C=1.0, gamma=0.5)),
                          ("knn", KnnConfig(k=3)),
                          ("ann", AnnConfig(epochs=20))):
            model = train_model(X, y, kind, cfg)
            assert np.array_equal(predict(model, X[perm]), predict(model, X)[perm])


class TestPersistence:
    @pytest.mark.parametrize("kind,cfg", [
        ("svm", SvmConfig(C=1.0, gamma=0.5)),
        ("knn", KnnConfig(k=3)),
        ("ann", AnnConfig(epochs=15)),
    ])
    def test_round_trip_preserves_predictions(self, tmp_path, kind, cfg):
        X, y = blobs(seed=14)
        model = train_model(X, y, kind, cfg)
        path = save_model(model, tmp_path / f"{kind}.npz")
        back = load_model(path)
        assert back.kind == kind
        assert back.converged == model.converged
        assert np.array_equal(back.mask, model.mask)
        assert np.array_equal(predict(back, X), predict(model, X))

    def test_suffix_appended(self, tmp_path):
        X, y = blobs(seed=15)
        model = train_model(X, y, "knn", KnnConfig(k=1))
        path = save_model(model, tmp_path / "model")
        assert path.name == "model.npz"
        assert path.exists()

    def test_unsupported_version(self, tmp_path):
        X, y = blobs(seed=16)
        model = train_model(X, y, "knn", KnnConfig(k=1))
        path = save_model(model, tmp_path / "m.npz")
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.array(99)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_model(path)
