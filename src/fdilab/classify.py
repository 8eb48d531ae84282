"""From-scratch binary classifiers: Gaussian-kernel SVM, KNN and a one-hidden-
layer neural net, behind a common train/predict interface.

All three work on standardized features by default; standardization stats are
fitted on training data only and stored on the model together with the
feature mask that was applied. Scaling is float64 for every kind; the ANN then
trains and runs in ANN_DTYPE (float32), which halves its matrix traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ------------------------------------------------------------ standardization

@dataclass(frozen=True)
class ScalerStats:
    """Per-feature mean/std fitted on training data.

    Zero-variance columns get std 1 (their transform is just centering).
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if not np.all(self.std > 0):
            raise ValueError("std entries must be positive")


def standardize_fit(X: np.ndarray) -> ScalerStats:
    """Per-column stats of the training rows X, reduced in Fortran order: each
    column is one contiguous run, so its mean and std depend neither on X's
    layout nor on the other columns, and the stats of X[:, cols] are those of
    X at cols. X[:, mask] is in Fortran order already and is not copied."""
    X = np.asfortranarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need a non-empty 2-D training matrix")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    return ScalerStats(mean=mean, std=np.where(std == 0.0, 1.0, std))


def standardize_apply(stats: ScalerStats, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != stats.mean.shape[0]:
        raise ValueError("feature count does not match scaler stats")
    out = X - stats.mean  # (X - mean) / std, dividing in place: one new array
    out /= stats.std
    return out


def stratified_split(y: np.ndarray, val_fraction: float, seed: int):
    """Indices (train_idx, val_idx) of a per-class holdout split.

    Each class contributes round(val_fraction * class_size) validation rows
    (at least 1 when the class is non-empty). Index arrays are sorted so
    downstream tie-breaking by row order is reproducible.
    """
    if not 0 < val_fraction < 1:
        raise ValueError("val_fraction must be in (0, 1)")
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    val = []
    for cls in sorted(set(y.tolist())):   # np.unique would import numpy.ma
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        val.append(idx[:max(1, int(round(val_fraction * len(idx))))])
    val_idx = np.sort(np.concatenate(val))
    mask = np.ones(len(y), dtype=bool)
    mask[val_idx] = False
    return np.flatnonzero(mask), val_idx


# ------------------------------------------------------------------- configs

@dataclass(frozen=True)
class SvmConfig:
    """Soft-margin Gaussian-kernel SVM hyperparameters.

    tol bounds the maximal KKT violation at convergence. max_sweeps caps the
    solver's iterations (one working pair each); a fit that reaches it is
    returned with converged=False.
    """

    C: float = 10.0
    gamma: float = 0.1
    tol: float = 1e-3
    max_sweeps: int = 100_000

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.C, self.gamma, self.tol)):
            raise ValueError("C, gamma and tol must be positive and finite")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 12

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class AnnConfig:
    alpha: float = 1.0
    epochs: int = 50
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


CONFIGS = {"svm": SvmConfig, "knn": KnnConfig, "ann": AnnConfig}


@dataclass(frozen=True)
class TrainedModel:
    """Fitted classifier state plus the preprocessing it was fitted with."""

    kind: str
    params: dict
    scaler: ScalerStats | None
    mask: np.ndarray
    converged: bool = True


# -------------------------------------------------------------------- kernel

def _gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix between rows of A and rows of B.

    K = exp(-gamma max(|a|^2 + |b|^2 - 2 <a, b>, 0)) is built in place, so K is
    the only (n, m) array: each element takes the same operations in the same
    order as the one-expression form (tests/oracles.gram_oracle), bit for bit.
    Only |a|^2 + |b|^2 is formed apart, for a block of rows of about 64 KB.
    """
    an = (A * A).sum(axis=1)
    bn = (B * B).sum(axis=1)
    K = A @ B.T
    K *= 2.0
    rows = max(1, 8192 // max(1, K.shape[1]))
    for start in range(0, K.shape[0], rows):
        blk = K[start:start + rows]
        np.subtract(an[start:start + rows, None] + bn, blk, out=blk)
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


# ----------------------------------------------------------------------- SVM

_TAU = 1e-12  # curvature used when K_ii + K_jj - 2 K_ij <= 0


def _smo(K: np.ndarray, y_pm: np.ndarray, cfg: SvmConfig):
    """SMO with second-order working-set selection (WSS2) on a precomputed kernel.

    This is the LIBSVM solver of Fan, Chen & Lin, "Working Set Selection Using
    Second Order Information for Training SVM", JMLR 2005. It minimises
    1/2 a'Qa - sum(a) with Q_st = y_s y_t K_st over 0 <= a <= C, y'a = 0,
    tracking v = -y * G where G = Qa - 1 is the gradient. Each iteration picks
    i = argmax v over I_up, then j over I_low minimising -b^2/a with
    b = v_i - v_j > 0 and a = K_ii + K_jj - 2 K_ij, and takes the clipped
    Newton step along y_i e_i - y_j e_j. Alphas that reach a bound are set to
    it exactly, so dropped alphas are exact zeros. It stops when
    max_{I_up} v - min_{I_low} v < tol; cfg.max_sweeps caps the iterations.
    Ties go to the lowest index. Returns (alpha, b, converged).
    """
    n = K.shape[0]
    C = float(cfg.C)
    y = np.asarray(y_pm, dtype=float)
    pos = y > 0
    diag = K.diagonal().copy()
    alpha = np.zeros(n)
    v = y.copy()        # -y * G at alpha = 0, where G = -1
    up = pos.copy()     # I_up: y_t a_t can still grow
    low = ~pos          # I_low: y_t a_t can still shrink
    converged = False
    for it in range(cfg.max_sweeps + 1):
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        m = v_up[i]
        if m - np.min(v, where=low, initial=np.inf) < cfg.tol:
            converged = True
            break
        if it == cfg.max_sweeps:
            break
        b = m - v
        a = diag[i] + diag - 2.0 * K[i]
        a[a <= 0] = _TAU
        j = int(np.argmin(np.where(low & (b > 0), -(b * b) / a, np.inf)))
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        alpha[i] = (C if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == room_j else alpha[j] - y[j] * t
        for k in (i, j):
            up[k] = alpha[k] < C if pos[k] else alpha[k] > 0.0
            low[k] = alpha[k] > 0.0 if pos[k] else alpha[k] < C
        v -= t * (K[i] - K[j])  # K is symmetric, so rows are columns
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        b0 = float(v[free].mean())
    else:
        # no free vector: midpoint of the bias interval the bound vectors allow
        b0 = 0.5 * float(np.max(v, where=up, initial=-np.inf)
                         + np.min(v, where=low, initial=np.inf))
    return alpha, b0, converged


def _svm_fit(X: np.ndarray, y: np.ndarray, cfg: SvmConfig):
    y_pm = np.where(np.asarray(y) == 1, 1.0, -1.0)
    K = _gram(X, X, cfg.gamma)
    alpha, b, converged = _smo(K, y_pm, cfg)
    keep = alpha > 1e-12
    params = {"sv": X[keep], "sv_alpha": alpha[keep], "sv_y": y_pm[keep], "b": b,
              "gamma": cfg.gamma}
    return params, converged


def svm_decision(model: TrainedModel, X) -> np.ndarray:
    """Raw decision values f(x) = sum_i alpha_i y_i K(x_i, x) + b."""
    if model.kind != "svm":
        raise ValueError("not an svm model")
    Xp = _prepare(model, X)
    p = model.params
    K = _gram(p["sv"], Xp, p["gamma"])
    return (p["sv_alpha"] * p["sv_y"]) @ K + p["b"]


# ----------------------------------------------------------------------- KNN

KNN_WORK_BYTES = 1 << 20  # one votes Gram chunk, or row block of the training copy


class KnnBlocks:
    """2-D query rows Q and training rows B of one width, one label per row of B,
    laid out once for any number of votes calls: BT holds B's columns as rows,
    class 1 first (the first n_1), copied a row block of about KNN_WORK_BYTES
    at a time; Q's columns are read through its transpose, a view. Q, B and
    train_y are kept for the fallback."""

    def __init__(self, Q, B, train_y):
        self.Q = np.asarray(Q, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.train_y = np.asarray(train_y)
        if (self.Q.ndim != 2 or self.Q.shape[1:] != self.B.shape[1:]
                or self.train_y.shape != self.B.shape[:1]):
            raise ValueError(f"query rows {self.Q.shape}, training rows {self.B.shape} and "
                             f"labels {self.train_y.shape} do not match")
        ones = self.train_y == 1
        self.n_1 = int(np.count_nonzero(ones))
        order = np.argsort(~ones, kind="stable")
        self.BT = np.empty(self.B.shape[::-1])
        step = max(1, KNN_WORK_BYTES // (8 * max(1, self.B.shape[1])))
        for start in range(0, len(order), step):
            self.BT[:, start:start + step] = self.B[order[start:start + step]].T

    def votes(self, k: int, masks) -> np.ndarray:
        """KNN labels, shape (P, n_q), of the query rows under each of the P
        feature masks of masks, shape (P, n_f); an empty batch returns at once.

        Rows with a distance tie at the k-th place keep the lowest training
        indices, and split votes go to class 0.

        Training rows b are ranked for a query q by g = |b|_w^2 - 2<q, b>_w,
        the squared distance under the 0/1 mask w less |q|_w^2: one matrix
        product [-2q, 1] . [b, |b|_w^2] per mask over its own columns, in
        chunks of about KNN_WORK_BYTES (at least one query row). Of the k
        nearest rows at least h = k // 2 + 1 are class 1 or at least
        k - h + 1 are class 0, never both, so the label is 1 iff a_1 < a_0:
        the h-th smallest g of the class-1 block and the (k - h + 1)-th of
        the class-0 block, each partitioned in place. Too few class-1
        (class-0) rows for that make every label 0 (1).

        A (mask, query) pair is certified when |a_0 - a_1| > 16 gamma M, with
        gamma = nu / (1 - nu), nu = (|U| + 3) 2^-53, U the union of the
        batch's columns and M = |q|_w^2 + max_b |b|_w^2. A computed g (at most
        |U| + 1 terms, one of them |b|_w^2 rounded) is within 3 gamma M of the
        exact g, and a distance d <= 2M that _knn_votes_direct sums over U is
        within 2 gamma M of the exact d (Higham, Accuracy and Stability of
        Numerical Algorithms, 2002, sec. 3.1), so nu is taken at |U|. An order
        statistic moves by at most its entries' largest error, so the direct
        kernel's two order statistics differ by a_0 - a_1 to within
        10 gamma M: the same sign, no tie, and by the rank argument the same
        label under any tie rule. Rows with an uncertified pair (exact ties,
        near-duplicate training rows) are recomputed by _knn_votes_direct, so
        the tie rules hold exactly.
        """
        n_b, n_f = self.B.shape
        n_1, n_q = self.n_1, self.Q.shape[0]
        masks = np.asarray(masks, dtype=bool)
        if masks.shape == (0,):  # an empty list of masks
            masks = masks.reshape(0, n_f)
        if masks.ndim != 2 or masks.shape[1] != n_f:
            raise ValueError(f"masks must have shape (P, {n_f}), got {masks.shape}")
        if k < 1:
            raise ValueError("k must be at least 1")
        if k > n_b:
            raise ValueError(f"k={k} exceeds training size {n_b}")
        P = masks.shape[0]
        h = k // 2 + 1  # the class-1 votes of a label 1
        if P == 0 or n_1 < h or n_b - n_1 < k - h + 1:
            return np.full((P, n_q), n_1 >= h, dtype=np.int64)
        nu = (np.count_nonzero(masks.any(axis=0)) + 3) * np.finfo(float).eps / 2
        rows = max(1, min(n_q, KNN_WORK_BYTES // (8 * n_b)))
        g = np.empty((rows, n_b))
        wide = np.count_nonzero(masks, axis=1).max() + 1
        Bbuf, Qbuf = np.empty((wide, n_b)), np.empty((wide, n_q))
        out = np.empty((P, n_q), dtype=np.int64)
        sure = np.ones(n_q, dtype=bool)
        for p, mask in enumerate(masks):
            # g = [-2q, 1] . [b, |b|_w^2] over the mask's c columns
            cols = np.flatnonzero(mask)
            c = len(cols)
            BmT, QmT = Bbuf[:c + 1], Qbuf[:c + 1]
            np.take(self.BT, cols, axis=0, out=BmT[:c], mode="clip")  # "raise" would buffer out
            np.take(self.Q.T, cols, axis=0, out=QmT[:c], mode="clip")
            np.einsum("ij,ij->j", BmT[:c], BmT[:c], out=BmT[c])
            margin = np.einsum("ij,ij->j", QmT[:c], QmT[:c]) + BmT[c].max()
            margin *= 16 * nu / (1 - nu)
            QmT[:c] *= -2.0
            QmT[c] = 1.0
            for start in range(0, n_q, rows):
                r = min(rows, n_q - start)
                gc = np.matmul(QmT[:, start:start + r].T, BmT, out=g[:r])
                gc[:, :n_1].partition(h - 1, axis=1)
                gc[:, n_1:].partition(k - h, axis=1)
                diff = gc[:, n_1 + k - h] - gc[:, h - 1]  # a_0 - a_1
                sure[start:start + r] &= np.abs(diff) > margin[start:start + r]
                out[p, start:start + r] = diff > 0
        redo = np.flatnonzero(~sure)
        if redo.size:
            out[:, redo] = _knn_votes_direct(self.Q[redo], self.B, self.train_y, k, masks)
        return out


def _knn_votes_direct(Q, B, train_y, k: int, masks) -> np.ndarray:
    """KnnBlocks.votes from the masked sums of squared coordinate differences,
    for 2-D float Q and B and 2-D bool masks as KnnBlocks checks them.

    One query row at a time: its (column, train) difference block over U is
    squared and multiplied by the 0/1 masks, and the first k of a stable
    argsort are the nearest rows, the lowest indices winning a tie.
    """
    ones = np.asarray(train_y) == 1
    U = np.flatnonzero(masks.any(axis=0))
    W = masks[:, U].astype(float)
    BuT = np.ascontiguousarray(B[:, U].T)
    out = np.empty((W.shape[0], Q.shape[0]), dtype=np.int64)
    for i, q in enumerate(Q[:, U]):
        dist = W @ np.square(q[:, None] - BuT)
        near = np.argsort(dist, axis=-1, kind="stable")[:, :k]
        out[:, i] = 2 * np.count_nonzero(ones[near], axis=-1) > k
    return out


# ----------------------------------------------------------------------- ANN

ANN_DTYPE = np.float32  # of the ANN's weights, and of the scaled rows it reads


def ann_hidden_size(L: int, N: int = 2) -> int:
    """Hidden node count M = ceil((N + L) / 2)."""
    if L < 1 or N < 2:
        raise ValueError("need L >= 1 inputs and N >= 2 classes")
    return math.ceil((N + L) / 2)


def _sigmoid(z):
    # exp never overflows here; the numerator is exactly 1 for z >= 0 and e^z below
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(np.copysign(z, -1.0)))


def _softmax(S):
    e = np.exp(S - S.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def ann_init(L: int, N: int, seed: int) -> dict:
    """Weights U[-r, r] with r = sqrt(6 / (fan_in + fan_out)); zero biases.

    Every node computes f(sum_j w_ij x_j - theta_i), so the thresholds theta
    enter with a minus sign.
    """
    rng = np.random.default_rng(seed)
    M = ann_hidden_size(L, N)
    r1 = math.sqrt(6.0 / (L + M))
    r2 = math.sqrt(6.0 / (M + N))
    return {
        "W1": rng.uniform(-r1, r1, (M, L)),
        "th1": np.zeros(M),
        "W2": rng.uniform(-r2, r2, (N, M)),
        "th2": np.zeros(N),
    }


def _ann_rows(X: np.ndarray) -> np.ndarray:
    """X cast to ANN_DTYPE; astype keeps its memory order. A finite value beyond
    ANN_DTYPE's range would become inf, so it is refused."""
    with np.errstate(over="ignore"):
        Xa = X.astype(ANN_DTYPE)
    if (np.isfinite(Xa) != np.isfinite(X)).any():
        raise ValueError(f"ann features must be within +-{np.finfo(ANN_DTYPE).max:.3g}")
    return Xa


def _ann_layers(params: dict, X: np.ndarray):
    """Hidden activations A1, output sigmoids S and softmax scores P of rows X."""
    Z1 = X @ params["W1"].T
    Z1 -= params["th1"]
    A1 = _sigmoid(Z1)
    Z2 = A1 @ params["W2"].T
    Z2 -= params["th2"]
    S = _sigmoid(Z2)
    return A1, S, _softmax(S)


def _ann_backward(W2: np.ndarray, Y: np.ndarray, A1, S, P):
    """Node errors (dZ1, dZ2) of a batch's mean cross-entropy, Y one-hot; P is
    overwritten with dZ2 = (P - Y) / B * S * (1 - S)."""
    P -= Y
    P /= Y.shape[0]
    P *= S
    P *= 1.0 - S
    dZ1 = P @ W2
    dZ1 *= A1
    dZ1 *= 1.0 - A1
    return dZ1, P


def _ann_fit(X: np.ndarray, y: np.ndarray, cfg: AnnConfig):
    """Minibatch gradient descent in place: W -= alpha dZ'A, theta += alpha sum(dZ)
    (= theta - alpha * grad bit for bit). A non-finite weight stays non-finite,
    so one check per epoch reports every divergence.

    The rows, the one-hot labels and the weights are cast to ANN_DTYPE, so every
    step runs in float32. The weights are drawn in float64 and then rounded, so
    the init and row-order streams are those of a float64 fit."""
    n, L = X.shape
    X = _ann_rows(X)
    params = {key: w.astype(ANN_DTYPE) for key, w in ann_init(L, 2, cfg.seed).items()}
    W1, th1, W2, th2 = params["W1"], params["th1"], params["W2"], params["th2"]
    Y = np.zeros((n, 2), dtype=ANN_DTYPE)
    Y[np.arange(n), y] = 1.0
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        Xo, Yo = X[order], Y[order]
        for start in range(0, n, cfg.batch):
            Xb = Xo[start:start + cfg.batch]
            A1, S, P = _ann_layers(params, Xb)
            dZ1, dZ2 = _ann_backward(W2, Yo[start:start + cfg.batch], A1, S, P)
            for W, th, dZ, A in ((W2, th2, dZ2, A1), (W1, th1, dZ1, Xb)):
                g = dZ.T @ A
                g *= cfg.alpha
                W -= g
                th += cfg.alpha * dZ.sum(axis=0)
        if not all(np.isfinite(w).all() for w in params.values()):
            raise ValueError(f"non-finite weights at epoch {epoch}")
    return params, True


# ------------------------------------------------------------ common surface

def accuracy(predictions, truth) -> float:
    """Fraction of matching labels."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or predictions.size == 0:
        raise ValueError("prediction/truth vectors must be non-empty and equal length")
    return float((predictions == truth).mean())


def train_model(X, y, kind: str, cfg, mask=None, standardize: bool = True) -> TrainedModel:
    """Mask features, fit the scaler on the training rows, train a classifier."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be 2-D with one label per row")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int64)
    mask = np.ones(X.shape[1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (X.shape[1],) or not mask.any():
        raise ValueError("mask must select at least one feature")
    Xs = X[:, mask]  # a copy of its own (boolean indexing), so a model may keep it
    if not np.isfinite(Xs).all():
        raise ValueError("training features must be finite")
    scaler = standardize_fit(Xs) if standardize else None
    if scaler is not None:
        Xs = standardize_apply(scaler, Xs)  # the unscaled copy is freed here
    if kind in ("svm", "ann") and (y == y[:1]).all():   # one class (np.unique imports numpy.ma)
        raise ValueError("training data must contain both classes")
    if kind == "svm":
        params, converged = _svm_fit(Xs, y, cfg)
    elif kind == "knn":
        if cfg.k > Xs.shape[0]:
            raise ValueError(f"k={cfg.k} exceeds training size {Xs.shape[0]}")
        params, converged = {"X": Xs, "y": y, "k": cfg.k}, True
    elif kind == "ann":
        params, converged = _ann_fit(Xs, y, cfg)
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return TrainedModel(kind=kind, params=params, scaler=scaler, mask=mask, converged=converged)


def _prepare(model: TrainedModel, X) -> np.ndarray:
    """Apply the model's feature mask and scaler to raw full-width feature rows.

    X[:, mask] is in Fortran order whatever X's layout, so every query
    reaches BLAS in one layout and rounds alike.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.mask.shape[0]:
        raise ValueError(f"query rows must be 2-D with the model's feature count "
                         f"{model.mask.shape[0]}, got shape {X.shape}")
    X = X[:, model.mask]
    if not np.isfinite(X).all():
        raise ValueError("query features must be finite")
    return standardize_apply(model.scaler, X) if model.scaler is not None else X


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predict labels for raw (unmasked, unscaled) 2-D feature rows."""
    if model.kind == "svm":
        return (svm_decision(model, X) > 0).astype(np.int64)
    if model.kind == "knn":
        p = model.params
        return KnnBlocks(_prepare(model, X), p["X"], p["y"]).votes(
            p["k"], np.ones((1, p["X"].shape[1]), dtype=bool))[0]
    if model.kind == "ann":
        P = _ann_layers(model.params, _ann_rows(_prepare(model, X)))[2]
        return (P[:, 1] > P[:, 0]).astype(np.int64)
    raise ValueError(f"unknown classifier kind {model.kind!r}")
