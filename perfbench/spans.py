"""Spans and pass-throughs around fdilab's public functions, installed from
outside the package.

The benchmark touches no file of fdilab. It replaces a function under the
name its caller looks it up by and puts the original back afterwards. A name
brought in with `from ... import` lives in the calling module, so
`bench.generate_dataset`, `featsel.train_model` and `attack.solve_dc_state`
are patched there, next to the module attribute itself.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time


class Tracer:
    """Nested spans kept in memory until the instance ends.

    A span is [name, start, end, parent index, attrs]. fdilab runs on one
    thread here (FDI_LAB_THREADS is unset and the spec asks for 1), so the
    open spans form a single stack.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples for the duration of the block."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


# ------------------------------------------------------------------ spans

def _const(name):
    return lambda args, kwargs: name


def _train_name(args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[2]
    return f"classify.train.{kind}"


def _search_name(args, kwargs):
    method = kwargs["method"] if "method" in kwargs else args[0]
    return f"featsel.search.{method}"


def _predict_name(args, kwargs):
    model = kwargs["model"] if "model" in kwargs else args[0]
    return f"classify.predict.{model.kind}"


def _train_attrs(args, kwargs, model):
    if model.kind != "svm":
        return {}
    return {"support_vectors": len(model.params["sv"]), "unconverged": int(not model.converged)}


def _rows_attrs(args, kwargs, pred):
    return {"rows": int(getattr(pred, "size", 1))}


def _dataset_attrs(args, kwargs, ds):
    return {"rows": ds.n_samples}


def _save_attrs(args, kwargs, _none):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


def _search_attrs(args, kwargs, res):
    return {"evals": res.evaluations}


# (module, attribute as the caller looks it up, span name from the call's
# arguments, attributes from its result)
SPAN_POINTS = (
    ("bench", "run_matrix", _const("bench.run_matrix"), None),
    ("bench", "calibrate_threshold", _const("bench.calibrate_threshold"), None),
    ("bench", "generate_dataset", _const("attack.generate_dataset"), _dataset_attrs),
    ("attack", "generate_dataset", _const("attack.generate_dataset"), _dataset_attrs),
    ("attack", "craft_attack", _const("attack.craft_attack"), None),
    ("attack", "solve_dc_state", _const("powergrid.solve_dc_state"), None),
    ("attack", "build_jacobian", _const("powergrid.build_jacobian"), None),
    ("powergrid", "build_jacobian", _const("powergrid.build_jacobian"), None),
    ("powergrid", "load_builtin", _const("powergrid.load_builtin"), None),
    ("attack", "batch_residuals", _const("attack.batch_residuals"), None),
    ("attack", "stealthiness_report", _const("attack.stealthiness_report"), None),
    ("attack", "save_dataset", _const("attack.save_dataset"), _save_attrs),
    ("attack", "load_dataset", _const("attack.load_dataset"), None),
    ("featsel", "make_fitness_context", _const("featsel.make_fitness_context"), None),
    ("featsel", "run_search", _search_name, _search_attrs),
    ("featsel", "fitness", _const("featsel.fitness"), None),
    ("featsel", "train_model", _train_name, _train_attrs),
    ("featsel", "predict", _predict_name, _rows_attrs),
    ("classify", "train_model", _train_name, _train_attrs),
    ("classify", "predict", _predict_name, _rows_attrs),
    ("cli", "cmd_generate", _const("cli.generate"), None),
)


def _spanned(tracer, fn, name_of, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if attrs_of is not None:
            tracer.spans[idx][4] = attrs_of(args, kwargs, result)
        return result
    return wrapper


def span_patches(tracer, modules):
    """Replacements that record a span around every call in SPAN_POINTS."""
    out = []
    for mod_name, attr, name_of, attrs_of in SPAN_POINTS:
        mod = modules[mod_name]
        out.append((mod, attr, _spanned(tracer, getattr(mod, attr), name_of, attrs_of)))
    return out


# ---------------------------------------------------------- pass-throughs

class Probes:
    """Count-only pass-throughs used by the output checks, with no clock.

    They run in untraced instances too: they count SVM fits that return
    converged=False, keep the arguments of the wrapper-fitness context so a
    check can rebuild it with an empty cache, and take a digest of each
    dataset that `fdilab generate` produces so the reloaded CSV can be
    compared with it.
    """

    def __init__(self):
        self.svm_fits = 0
        self.svm_unconverged = 0
        self.fitness_context_calls = []
        self.generated_digests = []

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            if model.kind == "svm":
                self.svm_fits += 1
                self.svm_unconverged += int(not model.converged)
            return model
        return wrapper

    def _context(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fitness_context_calls.append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    def _generate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ds = fn(*args, **kwargs)
            self.generated_digests.append(dataset_digest(ds))
            return ds
        return wrapper

    def patches(self, modules):
        classify, featsel, attack = modules["classify"], modules["featsel"], modules["attack"]
        return [
            (classify, "train_model", self._train(classify.train_model)),
            (featsel, "train_model", self._train(featsel.train_model)),
            (featsel, "make_fitness_context", self._context(featsel.make_fitness_context)),
            # only the CLI looks generate_dataset up on attack; bench has its own name
            (attack, "generate_dataset", self._generate(attack.generate_dataset)),
        ]


def dataset_digest(ds) -> str:
    h = hashlib.sha256()
    h.update(ds.X.tobytes())
    h.update(ds.y.astype("int64").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- summary

def layer_totals(spans) -> dict:
    """Per span name: calls, seconds, self seconds and summed attributes.

    Self time is a span's duration minus the time its direct children cover;
    children never overlap on one thread. Wrapper-fitness spans with a child
    are cache misses (the fit ran); the rest are hits.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    children = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
            children[parent] += 1
    totals = {}
    for i, (name, _, _, _, attrs) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "misses": 0, "miss_s": 0.0})
        t["calls"] += 1
        t["s"] += dur[i]
        t["self_s"] += dur[i] - covered[i]
        if children[i]:
            t["misses"] += 1
            t["miss_s"] += dur[i]
        for key, val in attrs.items():
            t[key] = t.get(key, 0) + val
    return totals


def add_totals(into: dict, more: dict) -> dict:
    for name, t in more.items():
        acc = into.setdefault(name, {})
        for key, val in t.items():
            acc[key] = acc.get(key, 0) + val
    return into


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json from summed span totals."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    calls = get("featsel.fitness", "calls")
    misses = get("featsel.fitness", "misses")
    out = {
        "featsel.fitness.calls": calls,
        "featsel.fitness.trainings": misses,
        "featsel.fitness.hit_rate": (calls - misses) / calls if calls else 0.0,
        "featsel.fitness.miss_ms": 1000.0 * get("featsel.fitness", "miss_s") / misses if misses else 0.0,
    }
    for method in ("bcs", "bpso", "ga"):
        name = f"featsel.search.{method}"
        out[f"{name}.s"] = get(name, "s")
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.evals"] = get(name, "evals")
    for kind in ("svm", "knn", "ann"):
        out[f"classify.train.{kind}.s"] = get(f"classify.train.{kind}", "s")
        out[f"classify.predict.{kind}.s"] = get(f"classify.predict.{kind}", "s")
        out[f"classify.predict.{kind}.rows"] = get(f"classify.predict.{kind}", "rows")
    out["classify.svm.support_vectors"] = get("classify.train.svm", "support_vectors")
    out["classify.svm.unconverged"] = get("classify.train.svm", "unconverged")
    out["attack.generate_dataset.s"] = get("attack.generate_dataset", "s")
    out["attack.generate_dataset.self_s"] = get("attack.generate_dataset", "self_s")
    out["attack.generate_dataset.rows"] = get("attack.generate_dataset", "rows")
    out["attack.craft_attack.calls"] = get("attack.craft_attack", "calls")
    out["powergrid.solve_dc_state.calls"] = get("powergrid.solve_dc_state", "calls")
    out["powergrid.solve_dc_state.self_s"] = get("powergrid.solve_dc_state", "self_s")
    out["powergrid.build_jacobian.calls"] = get("powergrid.build_jacobian", "calls")
    out["attack.batch_residuals.s"] = get("attack.batch_residuals", "s")
    out["attack.save_dataset.s"] = get("attack.save_dataset", "s")
    out["attack.save_dataset.bytes"] = get("attack.save_dataset", "bytes")
    out["attack.load_dataset.s"] = get("attack.load_dataset", "s")
    out["bench.run_matrix.self_s"] = get("bench.run_matrix", "self_s")
    out["bench.calibrate_threshold.s"] = get("bench.calibrate_threshold", "s")
    out["cli.generate.self_s"] = get("cli.generate", "self_s")
    return out
