"""Reference implementations the tests check the package against, of two kinds.

The independent oracles are deliberately slow and dumb: explicit loops or
another formula, no np.linalg solver and no code shared with the package.
If a package routine and one of them agree, the agreement means something.
They are gaussian_elim_solve, wls_oracle, jacobian_oracle, knn_oracle,
knn_fitness_oracle, kernel_gaussian, svm_dual_objective, duality_gap,
svm_dual_oracle, sigmoid_oracle, ann_loss_fd, exhaustive_best_mask and
save_dataset_oracle.

The bit-level references are a fast path's slower predecessor: the same
arithmetic with every stage held whole, or done one item at a time, so the
package must match them bit for bit. They use numpy's solver or a package
piece on purpose, one that is not the path under test: np.linalg.solve in
wls_estimate_oracle, batch_residuals_oracle and generate_dataset_bulk_oracle
(whose reduced susceptance rows come from jacobian_oracle); the package's
build_jacobian and craft_attack in both dataset generators, and its measure
and per-sample solve_dc_state in generate_dataset_oracle; train_model and
predict in wrapper_fitness_oracle and grid_search_oracle; _knn_votes_direct
as the fallback of the knn vote oracles; _gram, ann_init, _ann_layers and
_ann_backward where a test checks the step around them. gram_oracle alone
uses neither.
"""

import math

import numpy as np


def gaussian_elim_solve(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting, in loops."""
    A = [list(map(float, row)) for row in np.asarray(A)]
    b = [float(v) for v in np.asarray(b)]
    n = len(A)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if abs(A[piv][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            if f == 0.0:
                continue
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r]
        for c in range(r + 1, n):
            s -= A[r][c] * x[c]
        x[r] = s / A[r][r]
    return np.array(x)


def wls_oracle(H, variance, z):
    """Dense normal-equation WLS solved with the hand eliminator above."""
    H = np.asarray(H, dtype=float)
    z = np.asarray(z, dtype=float)
    m, n = H.shape
    var = np.asarray(variance, dtype=float)
    if var.ndim == 0:
        var = np.full(m, float(var))
    w = np.where(var > 0, 1.0 / np.where(var > 0, var, 1.0), 1.0)
    G = np.zeros((n, n))
    rhs = np.zeros(n)
    for k in range(m):
        for i in range(n):
            rhs[i] += w[k] * H[k, i] * z[k]
            for j in range(n):
                G[i, j] += w[k] * H[k, i] * H[k, j]
    return gaussian_elim_solve(G, rhs)


def random_connected_system(rng, n_min=3, n_max=10):
    """Random small BusSystem: a spanning tree plus a few extra branches."""
    from fdilab import BusSystem

    n = int(rng.integers(n_min, n_max + 1))
    branches = []
    for bus in range(2, n + 1):
        other = int(rng.integers(1, bus))
        branches.append((other, bus, float(rng.uniform(0.05, 0.5))))
    for _ in range(int(rng.integers(0, n))):
        f = int(rng.integers(1, n + 1))
        t = int(rng.integers(1, n + 1))
        if f == t:
            continue
        branches.append((f, t, float(rng.uniform(0.05, 0.5))))
    buses = tuple((i, float(rng.uniform(-1.0, 1.0))) for i in range(1, n + 1))
    return BusSystem(name=f"rand{n}", buses=buses, branches=tuple(branches))


def jacobian_oracle(sys):
    """DC Jacobian rows the per-bus way: flows in branch order, then each bus's
    injection summed over the branches incident to it, in branch order."""
    ref = sys.reference_bus
    col = {b: j for j, b in enumerate(b for b in range(1, sys.n_buses + 1) if b != ref)}
    H = np.zeros((sys.n_branches + sys.n_buses, sys.n_buses - 1))
    for k, (f, t, x) in enumerate(sys.branches):
        if f != ref:
            H[k, col[f]] += 1.0 / x
        if t != ref:
            H[k, col[t]] -= 1.0 / x
    for bus in range(1, sys.n_buses + 1):
        r = sys.n_branches + bus - 1
        for f, t, x in sys.branches:
            if bus not in (f, t):
                continue
            sign = 1.0 if f == bus else -1.0
            if f != ref:
                H[r, col[f]] += sign * (1.0 / x)
            if t != ref:
                H[r, col[t]] -= sign * (1.0 / x)
    return H


def generate_dataset_oracle(sys, n, attack_ratio, noise, load_var, cfg, seed):
    """generate_dataset the per-sample way: for each sample draw its load
    factors, solve the DC flow for that one injection vector, draw the noisy
    measurement and, on an attacked row, add a freshly crafted attack.

    Returns (X, y, clean_X), clean_X holding the rows before their attacks.
    The random draws and their order are the package's; only the arithmetic
    is done one sample at a time.
    """
    from fdilab import AttackConfig, build_jacobian, craft_attack, measure, solve_dc_state

    jac = build_jacobian(sys)
    cfg = (cfg or AttackConfig()).on(jac.n_states)
    base = sys.injections()
    m = jac.n_measurements
    children = np.random.SeedSequence(seed).spawn(n + 1)
    master = np.random.default_rng(children[0])
    n_attacked = int(math.floor(n * attack_ratio))
    order = master.permutation(n)
    attacked = np.zeros(n, dtype=bool)
    attacked[order[:n_attacked]] = True
    X = np.empty((n, m))
    clean = np.empty((n, m))
    for i in range(n):
        rng = np.random.default_rng(children[i + 1])
        factors = rng.uniform(1.0 - load_var, 1.0 + load_var, size=sys.n_buses)
        x_true = solve_dc_state(sys, jac, base * factors)
        z = measure(jac, x_true, noise, rng)
        clean[i] = z
        if attacked[i]:
            z = z + craft_attack(jac, cfg, rng).a
        X[i] = z
    return X, attacked.astype(np.int64), clean


def generate_dataset_bulk_oracle(sys, n, attack_ratio, noise, load_var, cfg, seed):
    """generate_dataset with every stage held in full: the whole (n, m) noise
    matrix E, the list of attack images a = H c, then X = H S + E and the
    attacked rows X[i] += a one at a time. The states S come from one
    np.linalg.solve of the reduced susceptance rows (the state buses'
    injection rows of jacobian_oracle) on the whole (n, n_states) block of
    state-bus injections, where the package solves one row block at a time.
    Returns (X, y, clean_X), clean_X holding the rows before their attacks.

    The package adds the same terms into one X in row blocks, so the two must
    agree bit for bit.
    """
    from fdilab import AttackConfig, build_jacobian, craft_attack

    jac = build_jacobian(sys)
    cfg = (cfg or AttackConfig()).on(jac.n_states)
    state_buses = [b for b in range(1, sys.n_buses + 1) if b != sys.reference_bus]
    B_red = jacobian_oracle(sys)[[sys.n_branches + b - 1 for b in state_buses]]
    base = sys.injections()
    m = jac.n_measurements
    children = np.random.SeedSequence(seed).spawn(n + 1)
    master = np.random.default_rng(children[0])
    n_attacked = int(math.floor(n * attack_ratio))
    order = master.permutation(n)
    attacked = np.zeros(n, dtype=bool)
    attacked[order[:n_attacked]] = True
    P = np.empty((n, sys.n_buses))
    E = np.empty((n, m)) if noise.sigma > 0 else None
    attacks = []
    for i in range(n):
        rng = np.random.default_rng(children[i + 1])
        P[i] = base * rng.uniform(1.0 - load_var, 1.0 + load_var, size=sys.n_buses)
        if E is not None:
            E[i] = rng.normal(0.0, noise.sigma, m)
        if attacked[i]:
            attacks.append(craft_attack(jac, cfg, rng).a)
    S = np.ascontiguousarray(np.linalg.solve(B_red, P[:, [b - 1 for b in state_buses]].T).T)
    X = np.matmul(jac.matrix, S[:, :, None])[:, :, 0]
    if E is not None:
        X += E
    clean = X.copy()
    for i, a in zip(np.flatnonzero(attacked), attacks):
        X[i] += a
    return X, attacked.astype(np.int64), clean


def wls_estimate_oracle(H, variance, z):
    """wls_estimate with the whole right-hand side solved in one
    np.linalg.solve call: the normal equations G x = Hw^T z for one vector
    (m,) or a block (m, k), with Hw = W^-1 H and unit weights where a
    variance is 0. The package solves a block one column block at a time, so
    the two must agree bit for bit."""
    m = H.n_measurements
    var = np.broadcast_to(np.asarray(variance, dtype=float), (m,))
    w = np.ones(m)
    w[var > 0] = 1.0 / var[var > 0]
    Hw = H.matrix * w[:, None]
    return np.linalg.solve(H.matrix.T @ Hw, Hw.T @ np.asarray(z, dtype=float))


def batch_residuals_oracle(Z, H, variance):
    """Squared residual norms with every estimate solved in one piece
    (wls_estimate_oracle) and the full residual matrix Z - X_hat H^T."""
    Z = np.asarray(Z, dtype=float)
    Xhat = wls_estimate_oracle(H, variance, Z.T).T
    R = Z - Xhat @ H.matrix.T
    return np.einsum("ij,ij->i", R, R)


def save_dataset_oracle(X, y, path):
    """The dataset CSV written one value at a time: header f1..fm,label, then
    each feature as repr(float) and the label as an int."""
    with open(path, "w") as fh:
        fh.write(",".join([f"f{j + 1}" for j in range(X.shape[1])] + ["label"]) + "\n")
        for row, label in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def knn_oracle(train_X, train_y, k, x):
    """Predict one point by exhaustive search mirroring the documented rules:
    distance ties keep the lowest training index, vote ties go to class 0."""
    d = [(float(sum((a - b) ** 2 for a, b in zip(row, x))), i)
         for i, row in enumerate(np.asarray(train_X, dtype=float))]
    d.sort()
    votes = [int(train_y[i]) for _, i in d[:k]]
    ones = sum(votes)
    zeros = len(votes) - ones
    return 1 if ones > zeros else 0


def knn_votes_union_oracle(Q, B, train_y, k, masks, work_bytes=1 << 20):
    """KnnBlocks.votes as one Gram product per query chunk over U, the union of
    the masks' columns: every mask's g = |b|_w^2 - 2<q, b>_w comes from one GEMM
    whose zero weights drop the unselected columns, a partition copy gives
    the k-th and (k+1)-th smallest g, and a second pass over the class-1
    prefix counts the votes. Same certificate and the same fallback to
    _knn_votes_direct as the package kernel, so the labels agree."""
    from fdilab.classify import _knn_votes_direct

    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    B = np.asarray(B, dtype=float)
    ones = np.asarray(train_y) == 1
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    n_b = B.shape[0]
    P, n_q = masks.shape[0], Q.shape[0]
    if k == n_b:
        return np.full((P, n_q), 2 * np.count_nonzero(ones) > k, dtype=np.int64)
    U = np.flatnonzero(masks.any(axis=0))
    W = masks[:, U].astype(float)
    n_ones = np.count_nonzero(ones)
    BuT = np.ascontiguousarray(B[np.argsort(~ones, kind="stable")][:, U].T)
    Qu = Q[:, U]
    bn = W @ (BuT * BuT)
    nu = (len(U) + 3) * np.finfo(float).eps / 2
    margin = 16 * nu / (1 - nu) * (np.square(Qu) @ W.T + bn.max(axis=1))
    rows = max(1, min(n_q, work_bytes // (16 * P * n_b)))
    out = np.empty((P, n_q), dtype=np.int64)
    redo = []
    for start in range(0, n_q, rows):
        r = min(rows, n_q - start)
        g = (Qu[start:start + r, None, :] * (-2.0 * W)).reshape(r * P, -1) @ BuT
        g = g.reshape(r, P, n_b) + bn
        part = np.partition(g, k, axis=-1)
        kth = part[..., :k].max(axis=-1)
        sure = part[..., k] - kth > margin[start:start + r]
        votes = np.count_nonzero(g[..., :n_ones] <= kth[..., None], axis=-1)
        out[:, start:start + r] = (2 * votes > k).T
        redo.extend(start + np.flatnonzero(~sure.all(axis=1)))
    if redo:
        out[:, redo] = _knn_votes_direct(Q[redo], B, train_y, k, masks)
    return out


def knn_votes_class_split_oracle(Q, B, train_y, k, masks, work_bytes=1 << 20):
    """KnnBlocks.votes by an exact class-split selection: one product per mask over
    its own columns, both class blocks of g partitioned at k, the k-th and
    (k+1)-th smallest g from a partition of the two blocks' k + 1 smallest,
    and the class-1 candidates at or below the k-th counted as votes. The
    certificate is the gap between those two values; same fallback to
    _knn_votes_direct as the package kernel, so the labels agree."""
    from fdilab.classify import _knn_votes_direct

    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    B = np.asarray(B, dtype=float)
    ones = np.asarray(train_y) == 1
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    n_b = B.shape[0]
    P, n_q = masks.shape[0], Q.shape[0]
    if k == n_b:
        return np.full((P, n_q), 2 * np.count_nonzero(ones) > k, dtype=np.int64)
    U = np.flatnonzero(masks.any(axis=0))
    n_1 = np.count_nonzero(ones)
    BuT = np.ascontiguousarray(B[np.argsort(~ones, kind="stable")][:, U].T)
    QuT = Q.T[U]
    nu = (len(U) + 3) * np.finfo(float).eps / 2
    rows = max(1, min(n_q, work_bytes // (8 * n_b)))
    c1, c0 = min(n_1, k + 1), min(n_b - n_1, k + 1)
    out = np.empty((P, n_q), dtype=np.int64)
    sure = np.ones(n_q, dtype=bool)
    for p, mask in enumerate(masks[:, U]):
        BmT, QmT = BuT[mask], QuT[mask]
        bn = np.einsum("ij,ij->j", BmT, BmT)
        margin = 16 * nu / (1 - nu) * (np.einsum("ij,ij->j", QmT, QmT) + bn.max())
        for start in range(0, n_q, rows):
            r = min(rows, n_q - start)
            g = -2.0 * QmT[:, start:start + r].T @ BmT + bn
            for block in (g[:, :n_1], g[:, n_1:]):
                if block.shape[1] > k + 1:
                    block.partition(k, axis=1)
            cand = np.concatenate([g[:, :c1], g[:, n_1:n_1 + c0]], axis=1)
            sel = np.partition(cand, (k - 1, k), axis=1)
            kth = sel[:, k - 1]
            sure[start:start + r] &= sel[:, k] - kth > margin[start:start + r]
            out[p, start:start + r] = 2 * (cand[:, :c1] <= kth[:, None]).sum(axis=1) > k
    redo = np.flatnonzero(~sure)
    if redo.size:
        out[:, redo] = _knn_votes_direct(Q[redo], B, train_y, k, masks)
    return out


def knn_fitness_oracle(mask, X_train, y_train, X_val, y_val, k, standardize=True):
    """Wrapper fitness the per-mask way: slice the masked columns, fit the
    scaler on them, build the full val x train x features difference tensor
    and take the k nearest by a stable argsort (lowest index wins a distance
    tie); split votes go to class 0."""
    mask = np.asarray(mask, dtype=bool)
    Xt = np.asarray(X_train, dtype=float)[:, mask]
    Xv = np.asarray(X_val, dtype=float)[:, mask]
    if standardize:
        mean = Xt.mean(axis=0)
        std = Xt.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        Xt = (Xt - mean) / std
        Xv = (Xv - mean) / std
    diff = Xv[:, None, :] - Xt[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    ones = np.asarray(y_train)[nearest].sum(axis=1)
    pred = (2 * ones > k).astype(np.int64)
    return float((pred == np.asarray(y_val)).mean())


def wrapper_fitness_oracle(mask, X_train, y_train, X_val, y_val, kind, cfg, standardize=True):
    """Wrapper fitness from the raw splits, the way featsel.fitness_batch
    scored svm and ann masks before a context kept only scaled splits:
    train_model on the raw training rows fits the scaler on the masked
    columns, and predict scales the raw validation rows with it."""
    from fdilab import accuracy, predict, train_model

    model = train_model(X_train, y_train, kind, cfg, mask=mask, standardize=standardize)
    return accuracy(predict(model, X_val), y_val)


def grid_search_oracle(X, y, kind, grid, spec):
    """bench.grid_search's rows the per-point way, as it ran before it scored
    on one context: every grid point trains from the raw training rows (the
    scaler fitted anew) and predicts the raw validation rows. Returns the
    (config, accuracy or None, error or None) rows."""
    from fdilab import accuracy, predict, train_model
    from fdilab.classify import stratified_split

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    tr, va = stratified_split(y, spec.val_fraction, spec.seed)
    rows = []
    for cfg in grid:
        try:
            model = train_model(X[tr], y[tr], kind, cfg, standardize=spec.standardize)
            rows.append((cfg, accuracy(predict(model, X[va]), y[va]), None))
        except (ValueError, FloatingPointError) as exc:
            rows.append((cfg, None, str(exc)))
    return tuple(rows)


def kernel_gaussian(x1, x2, gamma):
    """exp(-gamma * ||x1 - x2||^2) for two feature vectors, summed in a loop."""
    if len(x1) != len(x2):
        raise ValueError("length mismatch")
    return math.exp(-gamma * sum((float(a) - float(b)) ** 2 for a, b in zip(x1, x2)))


def gram_oracle(A, B, gamma):
    """Gaussian kernel matrix in one expression, with every (n, m) temporary
    alive at once; classify._gram must equal it bit for bit."""
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def svm_dual_objective(alpha, K, y_pm):
    """W(alpha) = sum(alpha) - 0.5 sum_ij alpha_i alpha_j y_i y_j K_ij, in loops."""
    n = len(alpha)
    total = float(sum(alpha))
    quad = 0.0
    for i in range(n):
        for j in range(n):
            quad += alpha[i] * alpha[j] * y_pm[i] * y_pm[j] * K[i, j]
    return total - 0.5 * quad


def svm_model_dual_objective(model):
    """Dual objective sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij of a
    trained svm model, over its support vectors and with the package's _gram."""
    from fdilab.classify import _gram

    p = model.params
    coef = p["sv_alpha"] * p["sv_y"]
    K = _gram(p["sv"], p["sv"], p["gamma"])
    return float(p["sv_alpha"].sum() - 0.5 * coef @ K @ coef)


def duality_gap(alpha, K, y_pm, C):
    """Primal minus dual objective P - D of an SVM dual point, in loops.

    With g = K (alpha * y) and a'Qa = sum_i alpha_i y_i g_i, the primal value
    at the best bias is P = 1/2 a'Qa + C min_b sum_i max(0, 1 - y_i (g_i + b)).
    The hinge sum is convex and piecewise linear in b, so its minimum is at
    one of the n breakpoints b = y_i - g_i. D = sum(alpha) - 1/2 a'Qa. For a
    feasible alpha (0 <= alpha <= C, alpha . y = 0) weak duality gives
    P - D >= D* - D(alpha) >= 0, so the gap bounds the distance of alpha's
    dual objective from the optimum with no reference solver (Schoelkopf &
    Smola, Learning with Kernels, 2002, ch. 7).
    """
    n = len(alpha)
    g = [sum(alpha[j] * y_pm[j] * K[i, j] for j in range(n)) for i in range(n)]
    quad = sum(alpha[i] * y_pm[i] * g[i] for i in range(n))
    hinge = min(sum(max(0.0, 1.0 - y_pm[i] * (g[i] + b)) for i in range(n))
                for b in [y_pm[j] - g[j] for j in range(n)])
    return quad + C * hinge - sum(alpha)


def svm_dual_oracle(K, y_pm, C, steps=3000):
    """Projected-gradient ascent on the SVM dual.

    Projection onto {0 <= a <= C, a . y = 0} by bisection on the Lagrange
    multiplier of the equality constraint: clip(g - nu * y) has a monotone
    y-weighted sum in nu, so the feasible nu is found to machine tolerance.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y_pm, dtype=float)
    n = len(y)

    def project(v):
        lo, hi = -1e6, 1e6
        for _ in range(64):
            nu = (lo + hi) / 2.0
            a = np.clip(v - nu * y, 0.0, C)
            s = float(a @ y)
            if s > 0:
                lo = nu
            else:
                hi = nu
        return np.clip(v - (lo + hi) / 2.0 * y, 0.0, C)

    Q = (y[:, None] * y[None, :]) * K
    lip = float(np.abs(Q).sum(axis=1).max()) + 1e-12
    step = 1.0 / lip
    a = project(np.zeros(n))
    for _ in range(steps):
        grad = 1.0 - Q @ a
        a = project(a + step * grad)
    return a


def sigmoid_oracle(z):
    """The logistic function as two branches of exp(-|z|), chosen by np.where."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ann_fit_oracle(X, y, cfg):
    """_ann_fit one minibatch at a time: gather the batch rows, compute the
    loss and a fresh gradient dict, stop on a non-finite loss, and step every
    parameter by -alpha * grad. Same initial weights, row orders and
    arithmetic order as the package, so the weights agree bit for bit. It runs
    in the dtype of X: the weights and one-hot labels are cast to it, so float32
    rows check the package's float32 fit."""
    from fdilab.classify import ann_init

    def layers(params, Xb):
        A1 = sigmoid_oracle(Xb @ params["W1"].T - params["th1"])
        S = sigmoid_oracle(A1 @ params["W2"].T - params["th2"])
        e = np.exp(S - S.max(axis=1, keepdims=True))
        return A1, S, e / e.sum(axis=1, keepdims=True)

    def loss_grads(params, Xb, Yb):
        B = Xb.shape[0]
        A1, S, P = layers(params, Xb)
        loss = float(-(Yb * np.log(P)).sum() / B)
        dS = (P - Yb) / B
        dZ2 = dS * S * (1.0 - S)
        dA1 = dZ2 @ params["W2"]
        dZ1 = dA1 * A1 * (1.0 - A1)
        grads = {
            "W2": dZ2.T @ A1,
            "th2": -dZ2.sum(axis=0),
            "W1": dZ1.T @ Xb,
            "th1": -dZ1.sum(axis=0),
        }
        return loss, grads

    n, L = X.shape
    N = 2
    params = {key: w.astype(X.dtype) for key, w in ann_init(L, N, cfg.seed).items()}
    Y = np.zeros((n, N), dtype=X.dtype)
    Y[np.arange(n), y] = 1.0
    rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch):
            sel = order[start:start + cfg.batch]
            loss, grads = loss_grads(params, X[sel], Y[sel])
            if not math.isfinite(loss):
                raise ValueError(f"non-finite training loss at epoch {epoch}")
            for key in params:
                params[key] -= cfg.alpha * grads[key]
    return params


def ann_loss_grads(params, X, Y):
    """Mean cross-entropy loss of a batch and its gradients through the
    package's _ann_layers and _ann_backward, the two steps _ann_fit takes.

    Y is one-hot, shape (batch, N). Returns (loss, grads) with grads keyed
    like params.
    """
    from fdilab.classify import _ann_backward, _ann_layers

    A1, S, P = _ann_layers(params, X)
    loss = float(-(Y * np.log(P)).sum() / X.shape[0])
    dZ1, dZ2 = _ann_backward(params["W2"], Y, A1, S, P)
    grads = {"W2": dZ2.T @ A1, "th2": -dZ2.sum(axis=0),
             "W1": dZ1.T @ X, "th1": -dZ1.sum(axis=0)}
    return loss, grads


def ann_loss_fd(loss_fn, params, h=1e-5):
    """Central finite-difference gradients of loss_fn over a dict of arrays."""
    grads = {}
    for key, arr in params.items():
        g = np.zeros_like(arr, dtype=float)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn(params)
            flat[idx] = orig - h
            down = loss_fn(params)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads


def exhaustive_best_mask(fitness_fn, n_bits):
    """Enumerate every non-empty mask; return (best_fitness, best_masks set).

    best_masks holds every argmax as a bytes key so stochastic searchers can
    be checked against the full optimum set, not one arbitrary member.
    """
    best = -math.inf
    best_masks = set()
    for code in range(1, 2 ** n_bits):
        mask = np.array([(code >> b) & 1 for b in range(n_bits)], dtype=bool)
        f = fitness_fn(mask)
        if f > best + 1e-12:
            best = f
            best_masks = {mask.tobytes()}
        elif abs(f - best) <= 1e-12:
            best_masks.add(mask.tobytes())
    return best, best_masks
