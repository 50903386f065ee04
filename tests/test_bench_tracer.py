"""The benchmark's tracer wraps package names given as strings: each must resolve.

`bench/tracer.py` looks every name of its `LAYERS` table up when a traced
run starts, so a rename or deletion under `src/` would otherwise surface
only as a crash of `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_resolves(layer):
    module = importlib.import_module(f"fermatgroups.{layer}")
    for qualname in LAYERS[layer]:
        if "." in qualname:
            owner_name, attr = qualname.split(".")
            # the tracer reads a method from its owner's own __dict__
            assert attr in vars(getattr(module, owner_name)), qualname
        else:
            assert callable(getattr(module, qualname, None)), qualname
