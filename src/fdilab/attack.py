"""Stealthy false-data injection: attack crafting and labeled dataset generation.

An attack a = H c shifts the estimated state by exactly c while leaving the
measurement residual unchanged, so the residual-based bad data test cannot
see it. Datasets mix clean and attacked samples for supervised detection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .powergrid import (
    BusSystem,
    DcJacobian,
    NoiseModel,
    _number,
    _row_blocks,
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
    (radians). max_targets 0 means ceil(n_states / 3) of the system drawn on.
    """

    max_targets: int = 0
    magnitude_low: float = 0.01
    magnitude_high: float = 0.1

    def __post_init__(self):
        if self.max_targets < 0:
            raise ValueError("max_targets must be non-negative")
        if not 0 < self.magnitude_low <= self.magnitude_high < math.inf:
            raise ValueError("need 0 < magnitude_low <= magnitude_high < inf")

    def on(self, n_states: int, system: str = "the system") -> AttackConfig:
        """This config on a system of n_states states, with max_targets 0
        resolved. Raise ValueError, naming the config key, when max_targets
        exceeds n_states."""
        if self.max_targets > n_states:
            raise ValueError(f"max_targets = {self.max_targets} exceeds the {n_states} "
                             f"states of {system}")
        return replace(self, max_targets=self.max_targets or math.ceil(n_states / 3))


@dataclass(frozen=True)
class AttackVector:
    """c over states (mostly zeros) and its measurement image a = H c."""

    c: np.ndarray
    a: np.ndarray


def craft_attack(H: DcJacobian, cfg: AttackConfig, rng: np.random.Generator) -> AttackVector:
    """Draw a sparse state perturbation c, with cfg resolved on H's states,
    and return (c, a = H c)."""
    c = _draw_state_shift(H.n_states, cfg.on(H.n_states), rng)
    return AttackVector(c=c, a=H.matrix @ c)


def _draw_state_shift(n: int, cfg: AttackConfig, rng: np.random.Generator) -> np.ndarray:
    """The c of craft_attack, drawn from rng in the same order, without its
    image; cfg is resolved on the n states (AttackConfig.on)."""
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

    X need not be C-contiguous: load_dataset returns it as a strided view of
    the parsed file.
    """

    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be 2-D with one label per row")
        if not _all_finite(self.X):
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
                     load_var: float, cfg: AttackConfig | None, seed: int) -> Dataset:
    """Simulate n labeled samples on one system.

    Per sample: every base injection is scaled by an independent factor
    U[1 - load_var, 1 + load_var], the DC flow is solved for the state, and
    the measurement vector is drawn with Gaussian noise. Exactly
    floor(n * attack_ratio) samples (positions shuffled) then get a fresh
    stealthy attack added on top of the noisy measurement and label 1. The
    attacks are drawn by cfg (None is AttackConfig()) resolved on the system,
    so a max_targets above its state count fails before any draw.

    Reproducible: each sample uses its own child stream of the master seed,
    so results do not depend on evaluation order. A sample's stream draws its
    load factors, then its noise (straight into its row of X), then its
    attack's state shift c. The rows are drawn and finished one _row_blocks
    block at a time: the block's injections at the state buses go into an
    (r, n_states) block, whose DC solve (one LU of the reduced susceptance
    matrix) gives the states, and the block's H x and then its H c are added
    into its rows of X. X is the only full-size array. Every block has at
    least 256 rows unless it is the whole dataset, so each row solves to the
    same bits as in one solve of all n rows. A row's attack draws come after
    its noise, and the attack order is drawn whatever the ratio, so the rows
    before their attacks are X of the same call with attack_ratio 0.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 0 <= attack_ratio <= 1:
        raise ValueError("attack_ratio must be in [0, 1]")
    if not 0 <= load_var < 1:
        raise ValueError("load_var must be in [0, 1)")
    jac = build_jacobian(sys)
    cfg = (cfg or AttackConfig()).on(jac.n_states, sys.name)
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
    X = np.empty((n, m))
    for rows in _row_blocks(n):
        hit = rows.start + np.flatnonzero(attacked[rows])
        P = np.empty((rows.stop - rows.start, jac.n_states))  # injections at the state buses
        C = np.empty((hit.size, jac.n_states))                # c of each attacked row
        j = 0
        for i in range(rows.start, rows.stop):
            rng = np.random.default_rng(ss.spawn(1)[0])
            P[i - rows.start] = (base * rng.uniform(1.0 - load_var, 1.0 + load_var,
                                                    size=sys.n_buses))[cols]
            if noise.sigma > 0:
                X[i] = rng.normal(0.0, noise.sigma, m)
            if attacked[i]:
                C[j] = _draw_state_shift(jac.n_states, cfg, rng)
                j += 1
        S = np.ascontiguousarray(_solve_state_block(sys, jac, P).T)
        # each stacked row is the gemv H @ S[i]; noise + H x equals H x + noise bit for bit
        Hx = np.matmul(jac.matrix, S[:, :, None])[:, :, 0]
        if noise.sigma > 0:
            X[rows] += Hx
        else:
            X[rows] = Hx
        X[hit] += np.matmul(jac.matrix, C[:, :, None])[:, :, 0]
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
    return Dataset(X=X, y=attacked.astype(np.int64), meta=meta)


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

    wls_estimate gives every row's estimate from one whole GEMM and a solve
    in column blocks of at least 256; the residual H x_hat - z (the negated
    residual, so the same squares) is formed in the same row blocks, so no
    full-size temporary of Z's shape is made.
    """
    Z = np.asarray(Z, dtype=float)
    Xhat = wls_estimate(H, variance, Z.T).T
    out = np.empty(Z.shape[0])
    for b in _row_blocks(Z.shape[0]):
        R = Xhat[b] @ H.matrix.T
        R -= Z[b]
        out[b] = np.einsum("ij,ij->i", R, R)
    return out


def _all_finite(A: np.ndarray) -> bool:
    """np.isfinite(A).all() for a 2-D A, one row block at a time, so no bool
    temporary of A's shape is made."""
    return all(np.isfinite(A[rows]).all() for rows in _row_blocks(A.shape[0]))


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
    features and a label field 0 or 1; when the parse or a check fails,
    the same parse runs on each line in turn to name the first bad line. X
    is the view data[:, :m] of the parsed array, not a contiguous copy.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        if len(header) < 2 or header[-1] != "label":  # at least one feature
            raise ValueError(f"{path}: expected header f1,...,fm,label")
        m = len(header) - 1
        n_lines = 0

        def parse(rows):  # one grammar for the body and for each line the scan reads
            return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                              converters={m: _parse_label})

        def lines():
            nonlocal n_lines
            for line in fh:
                n_lines += 1
                yield line

        try:
            with warnings.catch_warnings():  # an empty body is checked below
                warnings.simplefilter("ignore", UserWarning)
                data = parse(lines())
        except (ValueError, OverflowError):
            data = None
    meta = {}  # filled from the sidecar once the body is good
    try:  # loadtxt skips blank lines, so a row count short of the line count fails too
        if data is None or data.shape != (n_lines, m + 1) or n_lines == 0:
            raise ValueError("short body")
        # Dataset's check is the only finiteness scan of the features
        ds = Dataset(X=data[:, :m], y=data[:, m].astype(np.int64), meta=meta)
    except ValueError:  # a failed parse, a short body or a non-finite feature
        with path.open() as fh:
            fh.readline()
            for lineno, line in enumerate(fh, start=2):
                try:
                    if line.count(",") != m:
                        raise ValueError(f"expected {m + 1} fields")
                    _parse_label(line.rpartition(",")[2])  # loadtxt would say float64
                    if not np.isfinite(parse([line])[0, :m]).all():
                        raise ValueError("non-finite feature")
                except (ValueError, OverflowError) as exc:  # loadtxt counts rows from 0
                    raise ValueError(f"{path} line {lineno}: "
                                     f"{str(exc).replace('row 0, ', '')}") from None
        # no line is bad, so the body is empty
        raise ValueError(f"{path}: no data rows") from None
    side = path.with_suffix(path.suffix + ".meta")
    if side.is_file():
        for line in side.read_text().splitlines():
            if "=" in line:
                key, _, val = (part.strip() for part in line.partition("="))
                meta[key] = val if key in _NAME_KEYS else _parse_meta_value(val)
    return ds


def _parse_label(field: str) -> int:
    """A label field is 0 or 1 inside whitespace: int would also read 0_1 or \u0660."""
    text = field.strip()
    if text not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {text!r}")
    return int(text)


_NAME_KEYS = ("system", "case")  # their values are names: a case `01.csv` stays "01"


def _parse_meta_value(text: str):
    """An int, else a float, in powergrid's number grammar; else the text itself."""
    for kind in (int, float):
        try:
            return _number(text, kind)
        except ValueError:
            pass
    return text
