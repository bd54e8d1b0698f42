"""The benchmark tracer's patch points exist in the library."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "nldiff_bench" / "tracing.py"


def test_every_traced_name_resolves():
    """``run.py --trace 1`` patches each (module or class, name) of the
    tracer's ``PATCHES`` where callers look it up, so a name that a
    refactor drops breaks the traced run.  The tracer is loaded from its
    file as it stands."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for path, attr, _ in tracing.PATCHES:
        owner = tracing._owner(path)
        found = attr in owner.__dict__ if isinstance(owner, type) else \
            callable(getattr(owner, attr, None))
        if not found:
            missing.append("%s.%s" % (path, attr))
    assert len(tracing.PATCHES) > 30 and not missing, missing
