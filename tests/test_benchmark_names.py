"""Names that `perfbench/` reads from the package.

The benchmark lives outside `testpaths`, and its tracer silently reports 0
for a per-layer metric whose function is gone, renamed or no longer a plain
module-level function (it wraps those only).  These tests keep a refactor
from dropping a metric without notice.
"""

import dataclasses
import inspect

import pytest

from expbounds import awgn, cli, lattices, modlam, regions, simulator


@pytest.mark.parametrize(
    "module, name",
    [
        (cli, "main"),
        (simulator, "simulate"),
        (simulator, "normalized_lattice"),
        (awgn, "rate_x"),
        (regions, "k_zeta"),
        (modlam, "maximizers_lattice"),
        (lattices, "load_basis"),
        (lattices, "lattice_figures"),
    ],
)
def test_traced_function_is_a_module_function(module, name):
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_simulator_block_is_an_int():
    assert isinstance(simulator.BLOCK, int) and simulator.BLOCK > 0


@pytest.mark.parametrize("name", ["nearest", "nearest_enumerated", "reduce", "sample_voronoi"])
def test_traced_lattice_method_is_defined_on_the_class(name):
    assert inspect.isfunction(vars(lattices.Lattice)[name])


def test_lattice_has_a_decoder_field():
    assert "decoder" in {f.name for f in dataclasses.fields(lattices.Lattice)}
    assert lattices.e8().decoder and not lattices.Lattice("x", [[2.0]]).decoder
