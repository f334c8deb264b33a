import pathlib
import re
import types

import pearsonlab as pl
from pearsonlab import kernel, potential, propagate, spectrum, verify

MODULES = (potential, propagate, kernel, spectrum, verify)


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


def test_readme_tour_runs():
    # the one python block of README.md, run as written; it names public
    # functions, so it breaks whenever one of them goes or changes shape
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(tour, "README.md", "exec"), {})
