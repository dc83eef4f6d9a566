import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_entry_point_exists():
    """The benchmark only warns when an entry point it traces is gone, so a
    renamed or deleted library function would silently read 0 calls."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for targets in tracing.KERNELS.values():
        for module_name, attr in targets:
            obj = importlib.import_module(module_name)
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module_name}.{attr}")
    assert sum(map(len, tracing.KERNELS.values())) >= 20
    assert missing == []


def test_every_counted_entry_point_exists():
    """A counter reads a call's arguments and result, so a counted entry point
    that is gone, or whose result changed shape, would read nothing;
    ``enumerate_digraphs`` is one, counted by the length of its result."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr in tracing.COUNTERS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert len(tracing.COUNTERS) >= 3
    assert missing == []
    enumerate_digraphs = importlib.import_module("perron.search").enumerate_digraphs
    count = tracing.COUNTERS[("perron.search", "enumerate_digraphs")]
    assert count((2, 1), enumerate_digraphs(2, 1)) == {"search.classes": 2}
