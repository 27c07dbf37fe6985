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
unused = ("scipy.optimize", "scipy.integrate", "scipy.signal", "scipy.stats", "scipy.linalg")
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


_RESONANCE_PROBE = """
import json, sys
import numpy as np
from billiardlab.errors import InvalidArgumentError
from billiardlab.resonance import ComplexTrace, Resonance, breit_wigner_model, detect_peaks, fit_resonances
try:
    detect_peaks(ComplexTrace([1.0, 2.0, 3.0, 4.0, 5.0], [1j, 1j, 1j, 1j, 1j]), 0.01)
    raised = None
except InvalidArgumentError as e:
    raised = str(e)
f = np.linspace(0.98e9, 1.03e9, 5001)
clean = breit_wigner_model([Resonance(1.0e9, 1e6, 0.2e6), Resonance(1.01e9, 1e6, 0.15e6)], False, f)
rng = np.random.default_rng(0)
noisy = ComplexTrace(f, clean.values + 0.002 * (rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)))
fit = fit_resonances(noisy, detect_peaks(noisy, 0.05))
print(json.dumps({"raised": raised, "fitted": len(fit),
                  "loaded": [m for m in ("scipy.signal", "scipy.linalg") if m in sys.modules]}))
"""


def test_resonance_path_imports_neither_scipy_signal_nor_linalg():
    # a short trace raises from the check, and a noisy two-pole trace is found and fitted,
    # with neither module imported on the way
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _RESONANCE_PROBE], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    assert "longer than 10 samples" in (result["raised"] or "")
    assert result["fitted"] == 2
    assert result["loaded"] == []


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
