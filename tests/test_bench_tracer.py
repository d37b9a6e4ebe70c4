"""The benchmark tracer patches rtcheck names by attribute: every name it
patches must exist, and uninstall must put each original object back."""

import importlib

import pytest

from rtcheck import defect, doubling


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
