"""The bench tracer's patch targets, checked without the bench run.

bench/tracing.py wraps named functions of the package (for example
`drift.solve_mode`, `continuity.continuity_solve`) in every package module
that holds them.  A refactor that moves or renames one of them breaks the
traced bench run; these tests make it break tier-1 first, and check that
uninstall() leaves the package namespace as it found it.  The tracer is read
from its source file and run in a fresh interpreter, so nothing under bench/
is written and no earlier test's imports change what it finds.
"""

import json
import os
import subprocess
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

PROBE = """
import importlib, json, sys, types

path = sys.argv[1]
tracing = types.ModuleType("tracing")
with open(path) as fh:
    exec(compile(fh.read(), path, "exec"), tracing.__dict__)

def function(x):  # the function of a module attribute or of a class's classmethod
    return getattr(x, "__func__", x)

tracer = tracing.Tracer()
tracing.install(tracer)
targets = list(tracer._patched)
wrapped = [function(vars(owner)[attribute]).__wrapped__ is function(original)
           for owner, attribute, original in targets]
tracer.uninstall()
restored = [vars(owner)[attribute] is original for owner, attribute, original in targets]
names = [f"{owner.__name__}.{attribute}" for owner, attribute, _ in targets]

import acylsoliton  # already loaded by the tracer

# what the package namespace reads after uninstall(): no traced wrapper, and
# each exported function the one its submodule holds
still_wrapped = [name for name in dir(acylsoliton)
                 if hasattr(getattr(acylsoliton, name), "__wrapped__")]
not_submodules = [name for name, module in acylsoliton._MODULE_OF.items()
                  if getattr(acylsoliton, name)
                  is not getattr(importlib.import_module(f"acylsoliton.{module}"), name)]
print(json.dumps({"names": names, "wrapped": wrapped, "restored": restored,
                  "still_wrapped": still_wrapped, "not_submodules": not_submodules}))
"""


@pytest.fixture(scope="module")
def probe():
    """What PROBE prints, from one fresh interpreter for this module's tests."""
    path = os.pathsep.join(filter(None, [os.path.abspath(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, os.path.abspath(TRACING)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_tracer_patch_target_resolves(probe):
    """install(Tracer()) finds all 36 targets and wraps each; uninstall() puts
    every original back."""
    assert len(probe["names"]) == len(set(probe["names"])) == 36, probe["names"]
    assert {"acylsoliton.drift.solve_mode", "acylsoliton.continuity.continuity_solve",
            "acylsoliton.continuity.decay_rate_fit", "GridFunction.from_csv"} <= set(probe["names"])
    assert all(probe["wrapped"]) and all(probe["restored"])


def test_uninstall_leaves_the_package_namespace_as_it_was(probe):
    """After install() and uninstall(), no attribute of the package is a traced
    wrapper and every exported name reads as its submodule's attribute: the
    package's lazy __getattr__ keeps no copy of a wrapper it read while the
    tracer was installed."""
    assert probe["still_wrapped"] == [] and probe["not_submodules"] == []
