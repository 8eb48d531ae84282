"""Binary metaheuristic wrapper feature selection: cuckoo search with Levy
flights, binary PSO and a genetic algorithm.

All three search the space of binary feature masks and score a mask by the
validation accuracy of a classifier trained on the selected columns. Fitness
values are cached per mask, ties between equally accurate masks prefer the
one with fewer features, and each searcher keeps its best-so-far, so the
per-iteration trace is non-decreasing by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .classify import (CONFIGS, KnnBlocks, KnnConfig, _sigmoid, accuracy, predict,
                       standardize_apply, standardize_fit, stratified_split, train_model)


# ----------------------------------------------------------- fitness wrapper

@dataclass
class FitnessContext:
    """The train/validation splits scaled once, the wrapper's config and a
    mask cache.

    X and y hold every row, and rows = (train_rows, val_rows) are integer
    index arrays into them. A context keeps only scaled_train and scaled_val,
    read-only arrays of its own: the two splits of X standardized with the
    training split's stats, or copied as they are when standardize is False.
    Each split is taken from X inside, one at a time, so a raw split is alive
    only while it is scaled, and the raw rows are not kept.
    standardize_fit reduces each column on its own, so a mask's columns of
    the scaled splits are, bit for bit, what train_model scales from the raw
    masked rows: svm and ann masks train on them with standardize=False, and
    the first KNN score lays them out once for its kernel (knn), which reads
    them by reference. Any classifier's config scores on a context; config,
    whose type names the classifier, is the one fitness_batch scores under.
    Labels outside {0, 1} and non-finite features fail the build.
    """

    X: InitVar[np.ndarray]
    y: InitVar[np.ndarray]
    rows: InitVar[tuple]
    config: object = KnnConfig()
    standardize: bool = True
    cache: dict = field(init=False, default_factory=dict)
    evals: int = field(init=False, default=0)      # fitness() calls, cache hits included
    trainings: int = field(init=False, default=0)  # actual classifier fits (cache misses)
    y_train: np.ndarray = field(init=False)
    y_val: np.ndarray = field(init=False)
    scaled_train: np.ndarray = field(init=False, repr=False)
    scaled_val: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, X, y, rows):
        X, y = np.asarray(X, dtype=float), np.asarray(y)
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        tr, va = (np.asarray(r, dtype=np.intp) for r in rows)
        self.y_train, self.y_val = y[tr].astype(np.int64), y[va].astype(np.int64)
        # the training rows are taken once for the stats, in the order they are
        # reduced in, and once more to scale: a raw split never sits beside a copy
        stats = standardize_fit(np.asfortranarray(X[tr])) if self.standardize else None
        self.scaled_train, self.scaled_val = (
            X[r] if stats is None else standardize_apply(stats, X[r]) for r in (tr, va))
        self.scaled_train.flags.writeable = self.scaled_val.flags.writeable = False

    @functools.cached_property
    def knn(self) -> KnnBlocks:
        return KnnBlocks(self.scaled_val, self.scaled_train, self.y_train)

    @property
    def n_features(self) -> int:
        return self.scaled_train.shape[1]


def make_fitness_context(X, y, config=KnnConfig(), val_fraction: float = 0.2, seed: int = 0,
                         standardize: bool = True) -> FitnessContext:
    """Stratified holdout split of the given training data for wrapper fitness."""
    return FitnessContext(X, y, stratified_split(y, val_fraction, seed), config=config,
                          standardize=standardize)


def holdout_accuracies(ctx: FitnessContext, config, masks) -> list:
    """Validation accuracy of the classifier config's type names, under config,
    trained on each mask's columns of ctx's scaled training split. KNN masks
    share one kernel call on the context's blocks, scored in one comparison
    (exact counts, so accuracy()'s values); svm and ann train per mask."""
    kind = next((name for name, cls in CONFIGS.items() if isinstance(config, cls)), None)
    if kind is None:
        raise ValueError(f"unknown classifier for config {config!r}")
    if kind == "knn":
        return (ctx.knn.votes(config.k, masks) == ctx.y_val).mean(axis=1).tolist()
    return [accuracy(predict(train_model(ctx.scaled_train, ctx.y_train, kind, config,
                                         mask=mask, standardize=False), ctx.scaled_val),
                     ctx.y_val) for mask in masks]


def fitness(mask: np.ndarray, ctx: FitnessContext) -> float:
    """Validation accuracy of ctx's classifier trained on the masked columns."""
    return fitness_batch([mask], ctx)[0]


def fitness_batch(masks, ctx: FitnessContext) -> list:
    """fitness() of each mask in order; the cache misses go to one holdout_accuracies call.

    Every mask counts as one evaluation and every distinct uncached mask as
    one training, as if the masks were scored one at a time.
    """
    masks = [np.asarray(mask, dtype=bool) for mask in masks]
    for mask in masks:
        if mask.shape != (ctx.n_features,):
            raise ValueError("mask length mismatch")
        if not mask.any():
            raise ValueError("empty feature mask")
    keys = [mask.tobytes() for mask in masks]
    misses = {key: mask for key, mask in zip(keys, masks) if key not in ctx.cache}
    if misses:
        ctx.cache.update(zip(misses, holdout_accuracies(ctx, ctx.config, list(misses.values()))))
    ctx.evals += len(masks)
    ctx.trainings += len(misses)
    return [ctx.cache[key] for key in keys]


def _rank(fit: float, mask: np.ndarray) -> tuple:
    """Order of scored masks, larger is better: higher fitness, then fewer features."""
    return fit, -int(np.count_nonzero(mask))


def _improves(new_fit: float, new_mask: np.ndarray, old_fit: float, old_mask) -> bool:
    """Strictly better fitness, or equal fitness with fewer selected features."""
    return old_mask is None or _rank(new_fit, new_mask) > _rank(old_fit, old_mask)


# ---------------------------------------------------------------- primitives

def levy_step(lam: float, rng: np.random.Generator, size=None):
    """Heavy-tailed random step(s) via Mantegna's algorithm.

    The density of |step| falls off like s^-lam, implemented with stability
    index beta = lam - 1. Symmetric about zero. lam = 3 is refused: the scale
    factor's sin(pi beta / 2) is then about 1e-16, so no step moves; the
    interesting range is lam around 1.5.
    """
    if not 1.0 < lam < 3.0:
        raise ValueError("lambda must satisfy 1 < lambda < 3")
    beta = lam - 1.0
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    sigma_u = (num / den) ** (1.0 / beta)
    u = rng.normal(0.0, sigma_u, size=size)
    v = rng.normal(0.0, 1.0, size=size)
    return u / np.abs(v) ** (1.0 / beta)


def binarize(position, rng: np.random.Generator):
    """Bit(s) from continuous state: 1 iff sigmoid(position) > sigma ~ U(0,1)."""
    position = np.asarray(position, dtype=float)
    s = _sigmoid(position)
    draw = rng.uniform(size=position.shape)
    bits = s > draw
    return bits if position.ndim else bool(bits)


def repair_mask(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Give an all-zero mask one random bit; leave anything else untouched."""
    mask = np.asarray(mask, dtype=bool)
    if mask.any():
        return mask
    fixed = mask.copy()
    fixed[int(rng.integers(0, mask.shape[0]))] = True
    return fixed


# -------------------------------------------------------------------- params

@dataclass(frozen=True)
class BcsParams:
    alpha: float = 0.1
    pa: float = 0.25
    lam: float = 1.5
    population: int = 30
    iterations: int = 10

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 <= self.pa <= 1.0:
            raise ValueError("pa must be in [0, 1]")
        if not 1.0 < self.lam < 3.0:
            raise ValueError("lambda must satisfy 1 < lambda < 3")
        if self.population < 2 or self.iterations < 0:
            raise ValueError("population must be >= 2 and iterations >= 0")


@dataclass(frozen=True)
class BpsoParams:
    c1: float = 2.0
    c2: float = 2.0
    w: float = 0.7
    v_max: float = 6.0
    population: int = 30
    iterations: int = 10

    def __post_init__(self):
        if not (all(0 <= v < math.inf for v in (self.c1, self.c2, self.w))
                and 0 < self.v_max < math.inf):
            raise ValueError("c1, c2, w must be finite and non-negative and v_max finite "
                             "and positive")
        if self.population < 2 or self.iterations < 0:
            raise ValueError("population must be >= 2 and iterations >= 0")


@dataclass(frozen=True)
class GaParams:
    mutation_rate: float = 0.018
    population: int = 50
    iterations: int = 30
    tournament: int = 3
    elite: int = 1

    def __post_init__(self):
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.population < 2 or self.iterations < 0:
            raise ValueError("population must be >= 2 and iterations >= 0")
        if self.tournament < 1:
            raise ValueError("tournament size must be >= 1")
        if not 0 <= self.elite < self.population:
            raise ValueError("elite count must be in [0, population)")


@dataclass(frozen=True)
class FsResult:
    """Best mask found, its fitness, the best-so-far trace and the eval count."""

    best_mask: np.ndarray
    best_fitness: float
    trace: tuple
    evaluations: int

    def __post_init__(self):
        if any(later < earlier for earlier, later in zip(self.trace, self.trace[1:])):
            raise ValueError("best-fitness trace must be non-decreasing")

    @property
    def n_selected(self) -> int:
        return int(np.asarray(self.best_mask).sum())


class _Best:
    """One search's bookkeeping on ctx: the best-so-far mask under the
    fewer-features tie rule, the per-iteration trace and the evaluations."""

    def __init__(self, ctx: FitnessContext):
        self.ctx, self.evals0 = ctx, ctx.evals
        self.fit, self.mask, self.trace = -1.0, None, []

    def offer(self, fits, masks):
        """Offer each (fitness, mask) pair in order; returns fits."""
        for fit, mask in zip(fits, masks):
            if _improves(fit, mask, self.fit, self.mask):
                self.fit, self.mask = float(fit), mask.copy()
        return fits

    def result(self) -> FsResult:
        return FsResult(self.mask, self.fit, tuple(self.trace), self.ctx.evals - self.evals0)


# ------------------------------------------------------------------ searches

def bcs_search(ctx: FitnessContext, p: BcsParams, rng) -> FsResult:
    """Binary cuckoo search.

    Nests carry continuous positions; each iteration every nest proposes a
    Levy-flight move x + alpha * levy (scaled per entry), the new egg replaces
    a randomly chosen nest if better, then the pa fraction of worst nests is
    abandoned and re-randomized.
    """
    rng = np.random.default_rng(rng)
    m = ctx.n_features
    best = _Best(ctx)
    pos = rng.uniform(-1.0, 1.0, (p.population, m))
    masks = [repair_mask(binarize(pos[i], rng), rng) for i in range(p.population)]
    fits = best.offer(fitness_batch(masks, ctx), masks)
    best.trace.append(best.fit)
    n_abandon = int(math.floor(p.pa * p.population))
    for _ in range(p.iterations):
        for i in range(p.population):
            new_pos = pos[i] + p.alpha * levy_step(p.lam, rng, size=m)
            new_mask = repair_mask(binarize(new_pos, rng), rng)
            new_fit = fitness(new_mask, ctx)
            j = int(rng.integers(0, p.population))
            if _improves(new_fit, new_mask, fits[j], masks[j]):
                pos[j] = new_pos
                masks[j] = new_mask
                fits[j] = new_fit
            best.offer([new_fit], [new_mask])
        if n_abandon:
            worst = sorted(range(p.population),
                           key=lambda i: _rank(fits[i], masks[i]))[:n_abandon]
            for i in worst:
                pos[i] = rng.uniform(-1.0, 1.0, m)
                masks[i] = repair_mask(binarize(pos[i], rng), rng)
            renewed = [masks[i] for i in worst]
            for i, fit in zip(worst, best.offer(fitness_batch(renewed, ctx), renewed)):
                fits[i] = fit
        best.trace.append(best.fit)
    return best.result()


def bpso_search(ctx: FitnessContext, p: BpsoParams, rng) -> FsResult:
    """Binary particle swarm optimization.

    Velocities follow w*v + c1*r1*(pBest - x) + c2*r2*(gBest - x), clamped to
    +-v_max; positions are re-drawn each step as bits with probability
    sigmoid(velocity). gBest updates synchronously at iteration end.
    """
    rng = np.random.default_rng(rng)
    m = ctx.n_features
    best = _Best(ctx)
    vel = rng.uniform(-1.0, 1.0, (p.population, m))
    x = np.stack([repair_mask(binarize(vel[i], rng), rng) for i in range(p.population)])
    pbest_x = x.copy()
    pbest_f = best.offer(np.array(fitness_batch(x, ctx)), pbest_x)
    best.trace.append(best.fit)
    for _ in range(p.iterations):
        gbest = best.mask.astype(float)
        for i in range(p.population):
            r1 = rng.uniform(size=m)
            r2 = rng.uniform(size=m)
            xi = x[i].astype(float)
            vel[i] = (p.w * vel[i]
                      + p.c1 * r1 * (pbest_x[i].astype(float) - xi)
                      + p.c2 * r2 * (gbest - xi))
            np.clip(vel[i], -p.v_max, p.v_max, out=vel[i])
            x[i] = repair_mask(binarize(vel[i], rng), rng)
        for i, f in enumerate(fitness_batch(x, ctx)):
            if _improves(f, x[i], pbest_f[i], pbest_x[i]):
                pbest_f[i] = f
                pbest_x[i] = x[i].copy()
        best.offer(pbest_f, pbest_x)
        best.trace.append(best.fit)
    return best.result()


def ga_search(ctx: FitnessContext, p: GaParams, rng) -> FsResult:
    """Genetic algorithm over bit-string chromosomes.

    Tournament selection, single-point crossover, independent per-bit
    mutation, and elitism carrying the top masks unchanged. When the slots
    left after elitism are odd, the last pair contributes one child.
    """
    rng = np.random.default_rng(rng)
    m = ctx.n_features
    best = _Best(ctx)
    masks = [repair_mask(rng.integers(0, 2, m).astype(bool), rng) for _ in range(p.population)]
    fits = best.offer(fitness_batch(masks, ctx), masks)
    best.trace.append(best.fit)

    def tournament():
        picks = rng.integers(0, p.population, size=p.tournament)
        winner = int(picks[0])
        for idx in picks[1:]:
            idx = int(idx)
            if _improves(fits[idx], masks[idx], fits[winner], masks[winner]):
                winner = idx
        return masks[winner]

    for _ in range(p.iterations):
        # a reversed sort is still stable: equal ranks keep index order
        ranked = sorted(range(p.population), key=lambda i: _rank(fits[i], masks[i]),
                        reverse=True)
        children = [masks[i].copy() for i in ranked[:p.elite]]
        while len(children) < p.population:
            pa, pb = tournament(), tournament()
            if m > 1:
                cut = int(rng.integers(1, m))
                kids = (np.concatenate([pa[:cut], pb[cut:]]),
                        np.concatenate([pb[:cut], pa[cut:]]))
            else:
                kids = (pa.copy(), pb.copy())
            for kid in kids:
                kid = kid ^ (rng.uniform(size=m) < p.mutation_rate)
                kid = repair_mask(kid, rng)
                if len(children) < p.population:
                    children.append(kid)
        masks = children
        fits = best.offer(fitness_batch(masks, ctx), masks)
        best.trace.append(best.fit)
    return best.result()


SEARCHERS = {"bcs": (bcs_search, BcsParams), "bpso": (bpso_search, BpsoParams),
             "ga": (ga_search, GaParams)}


def run_search(method: str, ctx: FitnessContext, params, rng) -> FsResult:
    if method not in SEARCHERS:
        raise ValueError(f"unknown FS method {method!r}; expected one of {sorted(SEARCHERS)}")
    fn, cls = SEARCHERS[method]
    if params is None:
        params = cls()
    return fn(ctx, params, rng)


# ------------------------------------------------------------------- exports

def export_fs_result(res: FsResult, row_labels, prefix) -> tuple:
    """Write <prefix>.txt (selected features by row label, fitness, eval count)
    and <prefix>_trace.csv (iteration, best_fitness)."""
    mask = np.asarray(res.best_mask, dtype=bool)
    if len(row_labels) != mask.shape[0]:
        raise ValueError("row label count does not match mask length")
    txt = Path(f"{prefix}.txt")
    with txt.open("w") as fh:
        fh.write(f"best_fitness = {res.best_fitness!r}\n")
        fh.write(f"n_selected = {res.n_selected}\n")
        fh.write(f"evaluations = {res.evaluations}\n")
        fh.write("selected:\n")
        for idx in np.flatnonzero(mask):
            fh.write(f"  {idx} {row_labels[idx]}\n")
    trace = Path(f"{prefix}_trace.csv")
    with trace.open("w") as fh:
        fh.write("iteration,best_fitness\n")
        for it, val in enumerate(res.trace):
            fh.write(f"{it},{val!r}\n")
    return txt, trace
