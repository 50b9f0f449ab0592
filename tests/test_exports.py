"""The package's export list."""

import gstrand

REMOVED = ("So3StrandState", "XYState", "PeakonState", "to_XY", "from_XY",
           "DiagonalParams", "SpinChainParams", "chiral_curvature_max",
           "compatibility_residual")


def test_every_export_resolves_once():
    assert len(set(gstrand.__all__)) == len(gstrand.__all__)
    for name in gstrand.__all__:
        assert hasattr(gstrand, name), name


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from gstrand import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gstrand.__all__)


def test_state_containers_are_gone():
    """The library takes plain arrays; it has no validated state or operator
    classes, and no whole-trajectory copy of a centered monitor's columns."""
    for name in REMOVED:
        assert name not in gstrand.__all__
        assert not hasattr(gstrand, name)
        for module in (gstrand.so3_dynamics, gstrand.peakon_dynamics, gstrand.algebra,
                       gstrand.integrability):
            assert not hasattr(module, name)
