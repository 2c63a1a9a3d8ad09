"""Docstring coverage: every public item carries documentation."""

import importlib
import inspect

import pytest

MODULES = [
    "repro.config",
    "repro.vm.address",
    "repro.vm.layout",
    "repro.vm.pagetable",
    "repro.trace.events",
    "repro.trace.recorder",
    "repro.trace.io",
    "repro.trace.cache",
    "repro.trace.synthesis",
    "repro.tlb.tlb",
    "repro.tlb.hierarchy",
    "repro.tlb.walker",
    "repro.core.pcc",
    "repro.core.dump",
    "repro.os.physmem",
    "repro.os.thp",
    "repro.os.hawkeye",
    "repro.os.promotion",
    "repro.os.policies",
    "repro.os.kernel",
    "repro.os.oracle",
    "repro.engine.cpu",
    "repro.engine.timing",
    "repro.engine.simulation",
    "repro.engine.system",
    "repro.engine.offline",
    "repro.engine.schedule_io",
    "repro.workloads.graph",
    "repro.workloads.gapbase",
    "repro.workloads.bfs",
    "repro.workloads.phased",
    "repro.analysis.reuse",
    "repro.analysis.utility",
    "repro.analysis.plot",
    "repro.analysis.aggregate",
    "repro.analysis.diagnostics",
    "repro.analysis.tracestats",
    "repro.experiments.summary",
    "repro.experiments.parallel",
    "repro.obs.tracer",
    "repro.obs.histo",
    "repro.obs.observer",
    "repro.obs.runid",
    "repro.obs.log",
    "repro.obs.inspect",
    "repro.resilience.bus",
    "repro.resilience.faults",
    "repro.resilience.journal",
    "repro.resilience.retry",
]


def public_items(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere
        yield name, obj


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        name for name, obj in public_items(module) if not inspect.getdoc(obj)
    ]
    assert not undocumented, f"{module_name}: {undocumented}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_methods_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for class_name, cls in public_items(module):
        if not inspect.isclass(cls):
            continue
        for method_name, method in vars(cls).items():
            if method_name.startswith("_"):
                continue
            if not callable(method) and not isinstance(
                method, (property, staticmethod, classmethod)
            ):
                continue
            target = (
                method.fget if isinstance(method, property) else method
            )
            if target is None or not callable(
                getattr(target, "__func__", target)
            ):
                continue
            if not inspect.getdoc(target):
                undocumented.append(f"{class_name}.{method_name}")
    assert not undocumented, f"{module_name}: {undocumented}"