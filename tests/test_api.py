import types

import pearsonlab as pl
from pearsonlab import config, kernel, potential, propagate, spectrum, verify

MODULES = (config, potential, propagate, kernel, spectrum, verify)


def test_package_exports_exactly_the_modules_all():
    exported = {
        name for name, value in vars(pl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set().union(*(m.__all__ for m in MODULES))


def test_each_listed_name_is_defined_in_its_module():
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(pl, name) is getattr(module, name), (module.__name__, name)
