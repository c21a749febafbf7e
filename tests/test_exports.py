import importlib
import pkgutil

import pytest

import irrvis

MODULES = [importlib.import_module(f"irrvis.{m.name}")
           for m in pkgutil.iter_modules(irrvis.__path__)]
EXPORTING = [irrvis] + [m for m in MODULES if hasattr(m, "__all__")]
REMOVED = {"BootstrapResult", "bind", "build_design"}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert not REMOVED & set(module.__all__)


def test_removed_names_are_gone():
    from irrvis import data, design, inference

    assert len(EXPORTING) == 11
    assert not any(hasattr(irrvis, n) for n in REMOVED)
    assert not hasattr(inference, "BootstrapResult")
    assert not hasattr(design, "bind")
    assert not hasattr(design, "build_design")
    assert not hasattr(data.Dataset, "rows")
