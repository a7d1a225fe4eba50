"""The benchmark's tracer (bench/tracing.py) patches quivercount by name: a
renamed or deleted method breaks it, so its targets are checked here."""

import importlib
import importlib.util
import sys
from pathlib import Path

from quivercount import bruteforce, hall, localring
from quivercount.quiver import loop_quiver


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_method_exists():
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(module, cls_name)
            missing = [attr for attr in attrs if attr not in vars(cls)]
            assert not missing, f"{layer}.{cls_name} lacks {missing}"


def test_every_hooked_function_exists():
    for name in tracing.Tracer()._hooks:
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{layer}"), attr))


def test_install_and_uninstall_restore_every_name():
    # install() imports every layer module; importing them first keeps the
    # snapshots comparable whichever tests ran before this one
    for layer in tracing.LAYERS:
        importlib.import_module(f"{tracing.PACKAGE}.{layer}")

    def snapshot():
        modules = {name: dict(vars(module)) for name, module in sys.modules.items()
                   if name.startswith(tracing.PACKAGE)}
        classes = {cls: dict(vars(cls)) for cls in (localring.OMatrix, hall.HallFunction)}
        return modules, classes

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(localring.OMatrix.__mul__, "__wrapped__")
        assert hasattr(bruteforce.moment_fiber_count, "__wrapped__")
        with tracer.job():
            count = bruteforce.moment_fiber_count(loop_quiver(2), 1, (2,), 2)
            e1 = hall.HallFunction.indicator((1, 0), 1, (0,))
            e2 = hall.HallFunction.indicator((0, 1), 1, (0,))
            hall.hall_product(e1, e2, 2)
    finally:
        tracer.uninstall()
    assert count == 11776
    assert tracer.stats["bruteforce.moment_fiber_count"][0] == 1
    assert tracer.stats["hall.hall_product"][0] == 1
    assert snapshot() == before
