"""DC power-flow measurement model and weighted least-squares state estimation.

The model is the linear (DC) approximation: states are bus voltage angles,
measurements are active branch flows plus active bus injections. With the
reference angle fixed at zero, z = H x + noise for a constant Jacobian H.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class BusSystem:
    """Topology and branch reactances of a test system.

    Attributes:
        name: case identifier, e.g. "ieee14".
        buses: tuple of (bus_index, base_injection_pu), indices 1..n in order.
        branches: tuple of (from_bus, to_bus, reactance_pu).
        reference_bus: bus whose angle is fixed at zero.
    """

    name: str
    buses: tuple
    branches: tuple
    reference_bus: int = 1

    def __post_init__(self):
        n = len(self.buses)
        if n < 2:
            raise ValueError("a system needs at least two buses")
        for pos, (idx, _) in enumerate(self.buses, start=1):
            if idx != pos:
                raise ValueError(f"bus indices must be 1..{n} in order, got {idx} at position {pos}")
        if not 1 <= self.reference_bus <= n:
            raise ValueError(f"reference bus {self.reference_bus} out of range 1..{n}")
        for k, (f, t, x) in enumerate(self.branches):
            if not (1 <= f <= n and 1 <= t <= n):
                raise ValueError(f"branch {k}: endpoint ({f},{t}) out of range 1..{n}")
            if f == t:
                raise ValueError(f"branch {k}: self-loop at bus {f}")
            if not x > 0:
                raise ValueError(f"branch {k}: non-positive reactance {x}")
        if not _connected(n, self.branches):
            raise ValueError("branch graph is not connected")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def n_states(self) -> int:
        return len(self.buses) - 1

    @property
    def n_measurements(self) -> int:
        return len(self.branches) + len(self.buses)

    def injections(self) -> np.ndarray:
        """Base injection vector (per-unit), indexed by bus - 1."""
        return np.array([p for _, p in self.buses], dtype=float)


def _connected(n_buses, branches) -> bool:
    adj = {b: [] for b in range(1, n_buses + 1)}
    for f, t, _ in branches:
        adj[f].append(t)
        adj[t].append(f)
    seen = {1}
    queue = deque([1])
    while queue:
        for nxt in adj[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == n_buses


def load_case(path) -> BusSystem:
    """Parse a case CSV into a validated BusSystem.

    Format, one record per line, '#' starts a comment:
        BUS,<index>,<base_injection_pu>
        BRANCH,<from>,<to>,<reactance_pu>
    Bus indices are 1-based. Parse errors report the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"case file not found: {path}")
    buses = []
    branches = []
    branch_lines = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        kind = parts[0].upper()
        try:
            if kind == "BUS" and len(parts) == 3:
                buses.append((int(parts[1]), float(parts[2])))
            elif kind == "BRANCH" and len(parts) == 4:
                branches.append((int(parts[1]), int(parts[2]), float(parts[3])))
                branch_lines.append(lineno)
            else:
                raise ValueError(f"line {lineno}: expected BUS or BRANCH record, got {raw!r}")
        except ValueError as exc:
            if str(exc).startswith("line "):
                raise
            raise ValueError(f"line {lineno}: {exc}") from None
    n = len(buses)
    if n == 0:
        raise ValueError(f"{path}: no BUS records")
    seen_idx = sorted(i for i, _ in buses)
    if seen_idx != list(range(1, n + 1)):
        raise ValueError(f"{path}: bus indices must be exactly 1..{n}")
    buses.sort(key=lambda b: b[0])
    for k, (f, t, x) in enumerate(branches):
        if not (1 <= f <= n and 1 <= t <= n) or f == t:
            raise ValueError(f"line {branch_lines[k]}: bad bus index on branch ({f},{t})")
        if not x > 0:
            raise ValueError(f"line {branch_lines[k]}: non-positive reactance {x}")
    return BusSystem(name=path.stem, buses=tuple(buses), branches=tuple(branches))


def load_builtin(name: str) -> BusSystem:
    """Load a bundled case ("ieee14", "ieee57" or "ieee118")."""
    path = Path(__file__).parent / "cases" / f"{name}.csv"
    if not path.exists():
        raise FileNotFoundError(f"no bundled case named {name!r}")
    return load_case(path)


def resolve_case(name: str) -> BusSystem:
    """Load a case CSV path (suffix .csv) or a bundled case by name."""
    path = Path(name)
    if path.suffix == ".csv":
        return load_case(path)
    return load_builtin(name)


@dataclass(frozen=True)
class DcJacobian:
    """Constant measurement Jacobian of the DC model.

    matrix has shape (n_branches + n_buses) x (n_buses - 1); rows are branch
    flows in case order, then bus injections in bus order. The reference bus
    angle column is eliminated. row_labels[i] names measurement row i, e.g.
    "flow3:2-4" (4th branch, from bus 2 to bus 4) or "inj:7". state_buses[j]
    is the bus whose angle is state column j.
    """

    matrix: np.ndarray
    row_labels: tuple
    state_buses: tuple

    @property
    def n_measurements(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_states(self) -> int:
        return self.matrix.shape[1]


def build_jacobian(sys: BusSystem) -> DcJacobian:
    """Build H for the DC model.

    Flow on branch (i, j) is (theta_i - theta_j) / x_ij; injection at bus i is
    the sum of flows out of i over incident branches, so each flow row is added
    to the injection row of its from-bus and subtracted from that of its to-bus.
    """
    n = sys.n_buses
    ref = sys.reference_bus
    state_buses = tuple(b for b in range(1, n + 1) if b != ref)
    col = {b: j for j, b in enumerate(state_buses)}
    inj = sys.n_branches - 1       # row of bus i's injection is inj + i
    H = np.zeros((sys.n_branches + n, n - 1))
    labels = []
    for k, (f, t, x) in enumerate(sys.branches):
        b = 1.0 / x
        if f != ref:
            H[k, col[f]] += b
        if t != ref:
            H[k, col[t]] -= b
        H[inj + f] += H[k]
        H[inj + t] -= H[k]
        labels.append(f"flow{k}:{f}-{t}")
    labels += [f"inj:{bus}" for bus in range(1, n + 1)]
    jac = DcJacobian(matrix=H, row_labels=tuple(labels), state_buses=state_buses)
    if np.linalg.matrix_rank(H) != n - 1:
        raise ValueError("Jacobian is rank deficient; system not observable")
    H.setflags(write=False)
    return jac


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. Gaussian measurement noise with a single global sigma (per-unit).

    The covariance is W = sigma^2 * I.
    """

    sigma: float = 0.01

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def measure(H: DcJacobian, x: np.ndarray, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """z = H x + eps, eps ~ N(0, sigma^2) i.i.d. per entry."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n_states,):
        raise ValueError(f"state length {x.shape} does not match {H.n_states} columns")
    z = H.matrix @ x
    if noise.sigma > 0:
        z = z + rng.normal(0.0, noise.sigma, H.n_measurements)
    return z


def _weights(w, m: int) -> np.ndarray:
    """Per-measurement weights 1/variance from a scalar or vector variance.

    A zero variance (noiseless convention) yields unit weights; with W = s^2 I
    the estimate does not depend on s anyway.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        w = np.full(m, float(w))
    if w.shape != (m,):
        raise ValueError("variance must be scalar or length-m vector")
    if np.any(w < 0):
        raise ValueError("variances must be non-negative")
    out = np.ones(m)
    pos = w > 0
    out[pos] = 1.0 / w[pos]
    return out


def wls_estimate(H: DcJacobian, variance, z: np.ndarray) -> np.ndarray:
    """Weighted least-squares state estimate x_hat = G^-1 H^T W^-1 z.

    variance is the diagonal of W (scalar = uniform); z is one measurement
    vector (m,) or a block (m, k) of them. The model is linear, so the normal
    equations with gain G = H^T W^-1 H are solved directly, in one step.
    """
    z = np.asarray(z, dtype=float)
    m = H.n_measurements
    if z.ndim not in (1, 2) or z.shape[0] != m:
        raise ValueError(f"measurement length {z.shape} does not match {m} rows")
    Hw = H.matrix * _weights(variance, m)[:, None]      # W^-1 H
    try:
        return np.linalg.solve(H.matrix.T @ Hw, Hw.T @ z)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular gain matrix") from exc


def residual_norm(z: np.ndarray, H: DcJacobian, x_hat: np.ndarray) -> float:
    """Squared 2-norm ||z - H x_hat||^2 of the measurement residual."""
    z = np.asarray(z, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if z.shape != (H.n_measurements,) or x_hat.shape != (H.n_states,):
        raise ValueError("dimension mismatch")
    r = z - H.matrix @ x_hat
    return float(r @ r)


def bad_data_test(residual, threshold: float):
    """True iff bad data is flagged: residual >= threshold (boundary is bad).
    An array of residuals gives an array of flags."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    return residual >= threshold


def solve_dc_state(sys: BusSystem, jac: DcJacobian, injections: np.ndarray) -> np.ndarray:
    """Angles of the non-reference buses given bus injections (per-unit).

    Uses the injection rows of H restricted to non-reference buses, which is
    the reduced susceptance matrix of the DC flow equations. The reference bus
    injection is implied by the others (lossless balance). injections is one
    vector (n_buses,) or a block (k, n_buses) of them; a block is solved with
    one LU and gives a C-contiguous (k, n_states) block of angles.
    """
    p = np.asarray(injections, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != sys.n_buses:
        raise ValueError("injection vector length mismatch")
    rhs = p[..., [b - 1 for b in jac.state_buses]]
    return np.ascontiguousarray(_solve_state_block(sys, jac, rhs).T)


def _solve_state_block(sys: BusSystem, jac: DcJacobian, rhs: np.ndarray) -> np.ndarray:
    """The one-LU solve behind solve_dc_state, on injections given at the
    state buses only: rhs is one vector (n_states,) or a block (k, n_states),
    and the result is (n_states,) or the transposed (n_states, k) block, whose
    column i holds row i's angles. Only LAPACK's copy of rhs and the result
    are made, so a caller can free rhs and turn the columns into rows a block
    at a time; the values do not depend on rhs's memory layout."""
    B_red = jac.matrix[[sys.n_branches + b - 1 for b in jac.state_buses], :]
    return np.linalg.solve(B_red, rhs.T)
