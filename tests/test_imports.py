"""Importing billiardlab loads only the scipy modules that its spectral chain calls,
and every module exports exactly its public functions and classes."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

from billiardlab import billiard

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(billiard.__file__)))

_PROBE = """
import json, sys
from billiardlab import billiard, reference, resonance, statistics, unfolding
unused = ("scipy.optimize", "scipy.integrate", "scipy.signal", "scipy.stats")
loaded = [m for m in unused if m in sys.modules]
brentq = billiard.brentq
import scipy.optimize
print(json.dumps({"loaded": loaded, "brentq": callable(brentq) and brentq is scipy.optimize.brentq}))
"""


def test_import_loads_no_unused_scipy_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    # perfbench/tracing.py wraps billiard.brentq in traced runs, so the name must still resolve
    assert result["brentq"]


_REJECT_PROBE = """
import json, sys
from billiardlab.errors import InvalidArgumentError
from billiardlab.resonance import ComplexTrace, detect_peaks
try:
    detect_peaks(ComplexTrace([1.0, 2.0, 3.0, 4.0, 5.0], [1j, 1j, 1j, 1j, 1j]), 0.01)
    raised = None
except InvalidArgumentError as e:
    raised = str(e)
print(json.dumps({"raised": raised, "signal": "scipy.signal" in sys.modules}))
"""


def test_detect_peaks_rejects_before_importing_scipy_signal():
    # a short trace raises from the check, without paying for the scipy.signal import first
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _REJECT_PROBE], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    assert "longer than 10 samples" in (result["raised"] or "")
    assert result["signal"] is False


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        billiard.no_such_name


MODULES = sorted(m.name for m in pkgutil.iter_modules([os.path.dirname(billiard.__file__)]))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"billiardlab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _is_api(value) -> bool:
    return inspect.isfunction(value) or inspect.isclass(value)


@pytest.mark.parametrize("name", MODULES)
def test_all_is_exactly_the_public_api(name):
    # constants (SPEED_OF_LIGHT, MODELS) may be exported too; every public function
    # or class defined in the module must be, and nothing imported from elsewhere
    module = importlib.import_module(f"billiardlab.{name}")
    exported = {n for n in module.__all__ if _is_api(getattr(module, n, None))}
    defined = {
        n for n, v in vars(module).items()
        if not n.startswith("_") and _is_api(v) and v.__module__ == module.__name__
    }
    assert exported == defined
