"""The package's public surface: its export list, who uses it, and the
error an unknown enum string raises."""

import ast
import inspect
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pytest

import ionread

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_once():
    assert len(ionread.__all__) == len(set(ionread.__all__))
    missing = [name for name in ionread.__all__ if not hasattr(ionread, name)]
    assert missing == []


def used_names() -> set:
    """Every identifier read in the package, the scripts, the benchmark and
    the acceptance tests, plus every name in a README code span or block."""
    paths = [*ROOT.glob("src/ionread/*.py"), *ROOT.glob("scripts/*.py"),
             *ROOT.glob("perfbench/*.py"), ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text(encoding="utf-8")):
        names.update(re.findall(r"\w+", span))
    return names


def test_every_public_name_has_a_user():
    public = set(ionread.__all__) - {"__version__"}
    for info in pkgutil.iter_modules(ionread.__path__):
        module = import_module(f"ionread.{info.name}")
        public.update(name for name, obj in vars(module).items()
                      if inspect.isfunction(obj) and obj.__module__ == module.__name__
                      and not name.startswith("_"))
    assert sorted(public - used_names()) == []


CD = ionread.get_species("cd111")
HIST = ionread.PhotonHistogram(values=(1.0,))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ionread.branching_ratios(0.5, "bogus"), id="branching_ratios"),
    pytest.param(lambda: ionread.DetectionConfig("bogus", 0.25, 0.0, 1e-4, 1e-3), id="DetectionConfig"),
    pytest.param(lambda: ionread.optimize_detection(CD, "bogus", 1e-3), id="optimize_detection"),
    pytest.param(lambda: ionread.fidelity_curve(CD, "bogus", [1e-3]), id="fidelity_curve"),
    pytest.param(lambda: ionread.fit_histograms(HIST, HIST, CD, 1e-4, scheme="bogus"), id="fit_histograms"),
    pytest.param(lambda: ionread.McConfig(1, mode="bogus"), id="McConfig.mode"),
    pytest.param(lambda: ionread.McConfig(1, initial="bogus"), id="McConfig.initial"),
])
def test_unknown_enum_string_is_a_domain_error(call):
    with pytest.raises(ionread.DomainError, match="must be one of '.*, got 'bogus'"):
        call()
