"""Guards for the in-repo tooling that instruments the package from outside."""
from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # the traced benchmark wraps each target by name; a renamed or deleted
    # function would break it
    for mod_name, attr, *_ in _load_tracer().TARGETS:
        owner = importlib.import_module(f"causaloid.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"causaloid.{mod_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"causaloid.{mod_name}.{attr}"
