"""The benchmark tracer's tables name functions that exist.

perfbench/tracing.py wraps helikon functions by (module, attribute) and
looks each one up with getattr and no default, so a renamed or deleted
function breaks `perfbench/run.py --trace 1`.  One test installs the
tracer around a probe and a sweep, to see that its counters count and that
uninstalling puts the originals back.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "tracing.py"
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve(tracing):
    names = [(mod, attr) for mod, attr, *_ in tracing.FUNCTIONS]
    names += [(mod, attr) for mod, attr, _ in tracing.COUNTED]
    names += [tuple(name.rsplit(".", 1)) for name, _ in tracing.INCLUSIVE]
    for mod, attr in names:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)


def test_wrapped_methods_resolve(tracing):
    for mod, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        assert callable(cls.__dict__[attr]), (mod, cls_name, attr)


def test_tracer_counts_probe_and_sweep(tracing):
    # the probe's Dijkstra reads heapq through the module attribute the
    # tracer swaps, so a bypass would read 0 heap pops.  At delta_int = 3
    # some candidates are neither within reach by a grid path nor out of
    # reach by the grid gaps, so the probe and the sweep both search
    names = ["cli", "divisor", "expr", "kernels", "lattice", "mesh", "paths",
             "scene", "solver", "surface"]
    modules = {f"helikon.{n}": importlib.import_module(f"helikon.{n}")
               for n in names}
    mesh = modules["helikon.mesh"]
    expr = modules["helikon.expr"]
    surface = modules["helikon.surface"]
    plane = expr.Plane()
    enneper = surface.WeierstrassData(
        g=expr.parse_expr("u", plane), dh=expr.parse_expr("u du", plane),
        basepoint=0.0, label="enneper")
    spec = mesh.SamplingSpec(-2, 2, -2, 2, nx=24, ny=24)
    heapq_module, graph_distance = mesh.heapq, mesh._graph_distance

    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        m = mesh.build_mesh(enneper, spec)
        rep = mesh.probe_self_intersection(m, delta_ext=0.15, delta_int=3.0)
        probe_runs = tracer.counts["mesh.dijkstra_runs"]
        probe_pops = tracer.counts["mesh.heap_pops"]
        mesh.lambda_sweep(enneper, [0.5, 1.0], spec, delta_ext=0.15,
                          delta_int=3.0)
    finally:
        tracer.uninstall()

    assert not rep.embedded
    assert probe_runs > 0 and probe_pops > 0
    assert tracer.counts["mesh.dijkstra_runs"] > probe_runs
    assert tracer.counts["mesh.heap_pops"] > probe_pops
    assert mesh.heapq is heapq_module
    assert mesh._graph_distance is graph_distance
