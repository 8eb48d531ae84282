"""The package's public surface: every exported name resolves, and every
name the perfbench harness wraps still takes the arguments it reads."""

import importlib.util
from pathlib import Path

import fdilab
from fdilab import attack, bench, classify, cli, featsel, powergrid


def test_star_import_and_every_exported_name_resolves():
    namespace = {}
    exec("from fdilab import *", namespace)
    missing = [name for name in fdilab.__all__ if not hasattr(fdilab, name)]
    assert missing == []
    assert set(fdilab.__all__) <= set(namespace)
    assert len(set(fdilab.__all__)) == len(fdilab.__all__)


def test_perfbench_span_names_match_the_calls_they_wrap():
    # perfbench names a span from its call's arguments (train_model's third is
    # kind) and sums per-layer figures by name, so a moved argument would read 0
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    modules = {"attack": attack, "bench": bench, "classify": classify, "cli": cli,
               "featsel": featsel, "powergrid": powergrid}
    spec = bench.ExperimentSpec(systems=("ieee14",), fs_methods=("none", "bcs"),
                                classifiers=("knn", "svm"), n_train=120, n_test=40, threads=1,
                                bcs=featsel.BcsParams(population=4, iterations=1))
    tracer = spans.Tracer()
    with spans.patched(spans.span_patches(tracer, modules)):
        bench.run_matrix(spec)
    names = {span[0] for span in tracer.spans}
    assert {"classify.train.knn", "classify.train.svm", "classify.predict.svm",
            "featsel.search.bcs", "featsel.fitness", "attack.generate_dataset"} <= names
