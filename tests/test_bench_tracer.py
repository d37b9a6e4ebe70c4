"""The benchmark tracer patches rtcheck names by attribute: every name it
patches must exist, and uninstall must put each original object back."""

import importlib

import pytest

from rtcheck import defect, doubling, suite
from rtcheck.config import build_model, parse_config


@pytest.fixture
def tracing(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    return importlib.import_module("tracing")


def test_install_then_uninstall_restores_every_patched_name(tracing):
    patched = []  # (read back, original) per patched attribute or registry item
    originals = (defect.mixed_relation_residual, doubling.reduced_relation_residual)

    class Recording(tracing.Tracer):
        def patch(self, owner, attr, replacement):
            patched.append((lambda: getattr(owner, attr), getattr(owner, attr)))
            super().patch(owner, attr, replacement)

        def patch_item(self, mapping, key, replacement):
            patched.append((lambda: mapping[key], mapping[key]))
            super().patch_item(mapping, key, replacement)

    tracer = Recording()
    try:
        tracer.install()
        assert (defect.mixed_relation_residual, doubling.reduced_relation_residual) != originals
    finally:
        tracer.uninstall()
    assert patched
    for read_back, original in patched:
        assert read_back() is original


def test_a_verify_pass_reaches_the_batched_residual_spans(tracing, request):
    """The check rows look their residual functions up at call time, so the
    tracer's replacements of these module names see every call, one per check."""
    config = request.config.rootpath / "tests" / "golden" / "configs" / "rational_n2.json"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        suite.run_suite(build_model(parse_config(config.read_text())))
    finally:
        tracer.uninstall()
    # one call per check: ybe and unitarity-S on the half line and doubled,
    # defect-unitarity and hermitian-analyticity, involution-U-squared
    calls = {span: tracer.stats.get(span, [0])[0] for span in (
        "smatrix.ybe", "smatrix.unitarity", "defect.vacuum", "doubling.involution")}
    assert calls == {"smatrix.ybe": 2, "smatrix.unitarity": 2, "defect.vacuum": 2,
                     "doubling.involution": 1}
