"""Stealthy false-data injection: attack crafting and labeled dataset generation.

An attack a = H c shifts the estimated state by exactly c while leaving the
measurement residual unchanged, so the residual-based bad data test cannot
see it. Datasets mix clean and attacked samples for supervised detection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .powergrid import (
    BusSystem,
    DcJacobian,
    NoiseModel,
    _solve_state_block,
    bad_data_test,
    build_jacobian,
    solve_dc_state,  # unused here; perfbench's traced pass wraps attack.solve_dc_state
    wls_estimate,
)


@dataclass(frozen=True)
class AttackConfig:
    """How attack vectors c are drawn.

    A crafted attack perturbs t ~ uniform{1..max_targets} state variables,
    each by s*u with s ~ uniform{-1,+1} and u ~ U[magnitude_low, magnitude_high]
    (radians).
    """

    max_targets: int
    magnitude_low: float = 0.01
    magnitude_high: float = 0.1

    def __post_init__(self):
        if self.max_targets < 1:
            raise ValueError("max_targets must be at least 1")
        if not 0 < self.magnitude_low <= self.magnitude_high:
            raise ValueError("need 0 < magnitude_low <= magnitude_high")


def default_attack_config(n_states: int, max_targets: int = 0, magnitude_low: float = 0.01,
                          magnitude_high: float = 0.1) -> AttackConfig:
    """Up to max_targets targets, 0 meaning ceil(n_states / 3), magnitudes
    U[magnitude_low, magnitude_high] rad."""
    return AttackConfig(max_targets or math.ceil(n_states / 3), magnitude_low, magnitude_high)


@dataclass(frozen=True)
class AttackVector:
    """c over states (mostly zeros) and its measurement image a = H c."""

    c: np.ndarray
    a: np.ndarray


def craft_attack(H: DcJacobian, cfg: AttackConfig, rng: np.random.Generator) -> AttackVector:
    """Draw a sparse state perturbation c and return (c, a = H c)."""
    c = _draw_state_shift(H.n_states, cfg, rng)
    return AttackVector(c=c, a=H.matrix @ c)


def _draw_state_shift(n: int, cfg: AttackConfig, rng: np.random.Generator) -> np.ndarray:
    """The c of craft_attack, drawn from rng in the same order, without its image."""
    if cfg.max_targets > n:
        raise ValueError(f"max_targets {cfg.max_targets} exceeds {n} states")
    t = int(rng.integers(1, cfg.max_targets + 1))
    targets = rng.choice(n, size=t, replace=False)
    mags = rng.uniform(cfg.magnitude_low, cfg.magnitude_high, size=t)
    signs = rng.integers(0, 2, size=t) * 2 - 1
    c = np.zeros(n)
    c[targets] = signs * mags
    return c


def inject(z: np.ndarray, atk: AttackVector) -> np.ndarray:
    """Z_bad = Z + a."""
    z = np.asarray(z, dtype=float)
    if z.shape != atk.a.shape:
        raise ValueError("measurement/attack dimension mismatch")
    return z + atk.a


@dataclass(frozen=True)
class Dataset:
    """Labeled measurement samples: X rows are feature vectors, y in {0, 1}.

    clean_X, when kept, holds the pre-attack measurements (equal to X on
    clean rows), which makes residual-invariance checks cheap. X need not be
    C-contiguous: load_dataset returns it as a strided view of the parsed file.
    """

    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)
    clean_X: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be 2-D with one label per row")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("non-finite features")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be 0 (clean) or 1 (attacked)")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def generate_dataset(sys: BusSystem, n: int, attack_ratio: float, noise: NoiseModel,
                     load_var: float, cfg: AttackConfig | None, seed: int,
                     keep_clean: bool = False) -> Dataset:
    """Simulate n labeled samples on one system.

    Per sample: every base injection is scaled by an independent factor
    U[1 - load_var, 1 + load_var], the DC flow is solved for the state, and
    the measurement vector is drawn with Gaussian noise. Exactly
    floor(n * attack_ratio) samples (positions shuffled) then get a fresh
    stealthy attack added on top of the noisy measurement and label 1.

    Reproducible: each sample uses its own child stream of the master seed,
    so results do not depend on evaluation order. A sample's stream draws its
    load factors, then its noise (straight into its row of X), then its
    attack's state shift c. Each row keeps its injections at the state buses
    only, in one (n, n_states) block; the DC solve then runs once for the
    whole dataset, with one LU of the reduced susceptance matrix, and the
    block is freed. The transposed solution becomes rows one row block at a
    time, just before that block's H x is added into X; H c is added the same
    way, so X is the only full-size array left (besides clean_X).
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 0 <= attack_ratio <= 1:
        raise ValueError("attack_ratio must be in [0, 1]")
    if not 0 <= load_var < 1:
        raise ValueError("load_var must be in [0, 1)")
    jac = build_jacobian(sys)
    if cfg is None:
        cfg = default_attack_config(jac.n_states)
    base = sys.injections()
    m = jac.n_measurements

    # child k of ss is ss.spawn(n + 1)[k]; spawning one at a time holds none of the others
    ss = np.random.SeedSequence(seed)
    master = np.random.default_rng(ss.spawn(1)[0])
    n_attacked = int(math.floor(n * attack_ratio))
    order = master.permutation(n)
    attacked = np.zeros(n, dtype=bool)
    attacked[order[:n_attacked]] = True

    cols = np.array(jac.state_buses) - 1
    P = np.empty((n, jac.n_states))            # injections at the state buses only
    X = np.empty((n, m))
    C = np.empty((n_attacked, jac.n_states))   # c of each attacked row, in row order
    j = 0
    for i in range(n):
        rng = np.random.default_rng(ss.spawn(1)[0])
        P[i] = (base * rng.uniform(1.0 - load_var, 1.0 + load_var, size=sys.n_buses))[cols]
        if noise.sigma > 0:
            X[i] = rng.normal(0.0, noise.sigma, m)
        if attacked[i]:
            C[j] = _draw_state_shift(jac.n_states, cfg, rng)
            j += 1
    ST = _solve_state_block(sys, jac, P)       # (n_states, n): column i is row i's state
    del P
    # each stacked row is the gemv H @ S[i]; noise + H x equals H x + noise bit for bit
    for rows in _row_blocks(n):
        S = np.ascontiguousarray(ST[:, rows].T)
        Hx = np.matmul(jac.matrix, S[:, :, None])[:, :, 0]
        if noise.sigma > 0:
            X[rows] += Hx
        else:
            X[rows] = Hx
    del ST
    clean = X.copy() if keep_clean else None
    attacked_rows = np.flatnonzero(attacked)
    for rows in _row_blocks(n_attacked):
        X[attacked_rows[rows]] += np.matmul(jac.matrix, C[rows, :, None])[:, :, 0]
    meta = {
        "system": sys.name,
        "n": n,
        "seed": seed,
        "noise_sigma": noise.sigma,
        "load_var": load_var,
        "attack_ratio": attack_ratio,
        "max_targets": cfg.max_targets,
        "magnitude_low": cfg.magnitude_low,
        "magnitude_high": cfg.magnitude_high,
    }
    return Dataset(X=X, y=attacked.astype(np.int64), meta=meta, clean_X=clean)


def stealthiness_report(ds: Dataset, H: DcJacobian, variance, threshold: float):
    """Fraction of each class flagged by the residual test.

    Returns (clean_flag_rate, attacked_flag_rate). With stealthy attacks the
    two rates coincide up to sampling noise: the detector cannot separate the
    classes.
    """
    if ds.n_features != H.n_measurements:
        raise ValueError("dataset does not match this Jacobian")
    flags = bad_data_test(batch_residuals(ds.X, H, variance), threshold)
    clean = ds.y == 0
    attacked = ds.y == 1
    clean_rate = float(flags[clean].mean()) if clean.any() else 0.0
    attacked_rate = float(flags[attacked].mean()) if attacked.any() else 0.0
    return clean_rate, attacked_rate


def batch_residuals(Z: np.ndarray, H: DcJacobian, variance) -> np.ndarray:
    """Squared residual norm of the WLS fit for every row of Z.

    The estimate is solved once for all rows; the residual H x_hat - z (the
    negated residual, so the same squares) is formed in blocks of at least
    _BLOCK rows, so no full-size temporary of Z's shape is made.
    """
    Z = np.asarray(Z, dtype=float)
    Xhat = wls_estimate(H, variance, Z.T).T
    out = np.empty(Z.shape[0])
    for b in _row_blocks(Z.shape[0]):
        R = Xhat[b] @ H.matrix.T
        R -= Z[b]
        out[b] = np.einsum("ij,ij->i", R, R)
    return out


_BLOCK = 256


def _row_blocks(n: int):
    """Slices cutting range(n) into max(1, n // _BLOCK) near-equal blocks, as
    np.array_split does: every block has at least _BLOCK rows unless n < _BLOCK."""
    k = max(1, n // _BLOCK)
    q, r = divmod(n, k)
    stop = 0
    for i in range(k):
        start, stop = stop, stop + q + (i < r)
        yield slice(start, stop)


# ------------------------------------------------------------- dataset files

def save_dataset(ds: Dataset, path) -> None:
    """Write samples as CSV (header f1..fm,label) plus a key = value sidecar.

    Features are written with repr, which round-trips every float exactly.
    """
    path = Path(path)
    m = ds.n_features
    with path.open("w") as fh:
        fh.write(",".join([f"f{j + 1}" for j in range(m)] + ["label"]) + "\n")
        for row, label in zip(ds.X, ds.y.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{label}\n")
    side = path.with_suffix(path.suffix + ".meta")
    with side.open("w") as fh:
        for key, val in ds.meta.items():
            fh.write(f"{key} = {val}\n")


def load_dataset(path) -> Dataset:
    """Read a dataset CSV (and its sidecar, when present) written by save_dataset.

    The body is parsed in one np.loadtxt call. Every row must hold m finite
    features and an integer label in {0, 1}; when the parse or a check fails,
    the rows are scanned one by one and the first bad line is named. X is the
    view data[:, :m] of the parsed array, not a contiguous copy.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        if not header or header[-1] != "label":
            raise ValueError(f"{path}: expected header f1,...,fm,label")
        m = len(header) - 1
        n_lines = 0

        def lines():
            nonlocal n_lines
            for line in fh:
                n_lines += 1
                yield line

        try:
            with warnings.catch_warnings():  # an empty body is checked below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(lines(), delimiter=",", comments=None,
                                  converters={m: int}, ndmin=2)
        except (ValueError, OverflowError):
            data = None
    # loadtxt skips blank lines, so a row count short of the line count fails too
    if (data is None or data.shape != (n_lines, m + 1) or n_lines == 0
            or not np.isfinite(data[:, :m]).all() or not np.isin(data[:, m], (0, 1)).all()):
        # scan the rows one by one and name the first bad line
        rows, labels = [], []
        with path.open() as fh:
            fh.readline()
            for lineno, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if len(parts) != m + 1:
                    raise ValueError(f"{path} line {lineno}: expected {m + 1} fields")
                try:
                    rows.append([float(v) for v in parts[:m]])
                    if not all(map(math.isfinite, rows[-1])):
                        raise ValueError("non-finite feature")
                    labels.append(int(parts[m]))
                    if labels[-1] not in (0, 1):
                        raise ValueError(f"label must be 0 or 1, got {labels[-1]}")
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: no data rows")
        X, y = np.array(rows), np.array(labels, dtype=np.int64)
    else:
        X, y = data[:, :m], data[:, m].astype(np.int64)
    meta = {}
    side = path.with_suffix(path.suffix + ".meta")
    if side.exists():
        for line in side.read_text().splitlines():
            if "=" in line:
                key, _, val = line.partition("=")
                meta[key.strip()] = _parse_meta_value(val.strip())
    return Dataset(X=X, y=y, meta=meta)


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text
