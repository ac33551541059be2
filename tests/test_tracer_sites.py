"""The benchmark's tracer wraps toolkit functions by module attribute.

A rename in ``src/`` that removes one of those attributes would only show
up in the next traced benchmark run; this test makes it fail here.
"""

import importlib
import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Execute the tracer's source without an import, so no bytecode cache
    is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def resolve(site):
    module_name, attr = site.split(":")
    return importlib.import_module(module_name), attr


def test_every_tracer_site_resolves_and_is_restored():
    tracer = load_tracer()
    sites = [resolve(site) for names, _ in tracer.SITES.values() for site in names]
    originals = [getattr(module, attr) for module, attr in sites]
    restore = tracer.Tracer().install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr} not wrapped"
    finally:
        restore()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
