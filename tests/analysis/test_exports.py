"""Export-surface tests: the documented public API stays importable."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.config",
    "repro.vm",
    "repro.vm.address",
    "repro.vm.layout",
    "repro.vm.pagetable",
    "repro.trace",
    "repro.trace.events",
    "repro.trace.recorder",
    "repro.trace.io",
    "repro.trace.cache",
    "repro.trace.synthesis",
    "repro.tlb",
    "repro.tlb.tlb",
    "repro.tlb.hierarchy",
    "repro.tlb.walker",
    "repro.core",
    "repro.core.pcc",
    "repro.core.dump",
    "repro.os",
    "repro.os.physmem",
    "repro.os.thp",
    "repro.os.hawkeye",
    "repro.os.promotion",
    "repro.os.policies",
    "repro.os.kernel",
    "repro.os.oracle",
    "repro.engine",
    "repro.engine.cpu",
    "repro.engine.timing",
    "repro.engine.simulation",
    "repro.engine.system",
    "repro.engine.offline",
    "repro.engine.schedule_io",
    "repro.workloads",
    "repro.workloads.graph",
    "repro.workloads.gapbase",
    "repro.workloads.bfs",
    "repro.workloads.sssp",
    "repro.workloads.pagerank",
    "repro.workloads.parsec_spec",
    "repro.workloads.phased",
    "repro.workloads.registry",
    "repro.analysis",
    "repro.analysis.reuse",
    "repro.analysis.utility",
    "repro.analysis.report",
    "repro.analysis.plot",
    "repro.analysis.aggregate",
    "repro.analysis.diagnostics",
    "repro.analysis.tracestats",
    "repro.experiments",
    "repro.experiments.common",
    "repro.experiments.fig1",
    "repro.experiments.fig2",
    "repro.experiments.fig5",
    "repro.experiments.fig6",
    "repro.experiments.fig7",
    "repro.experiments.fig8",
    "repro.experiments.fig9",
    "repro.experiments.tables",
    "repro.experiments.ablations",
    "repro.experiments.sensitivity",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize(
    "module_name",
    [m for m in PUBLIC_MODULES if not m.endswith(("cli",))],
)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_package_all_subpackages_have_init_exports():
    import repro.analysis
    import repro.core
    import repro.os
    import repro.tlb
    import repro.trace
    import repro.vm

    for package in (
        repro.vm, repro.trace, repro.tlb, repro.core, repro.os,
        repro.analysis,
    ):
        assert getattr(package, "__all__", None), package.__name__
