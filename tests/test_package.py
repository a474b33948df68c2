import robinscatter
from robinscatter import boundary, cli, poles, scattering, specfun


def test_exports_are_the_submodule_lists():
    modules = (boundary, cli, poles, scattering, specfun)
    expected = {name for m in modules for name in m.__all__} | {"__version__"}
    assert set(robinscatter.__all__) == expected
    assert len(robinscatter.__all__) == len(expected)
    assert all(hasattr(robinscatter, name) for name in robinscatter.__all__)


def test_star_import_gives_the_riccati_functions():
    namespace = {}
    exec("from robinscatter import *", namespace)
    assert namespace["riccati_bessel"] is specfun.riccati_bessel
    assert namespace["riccati_neumann"] is specfun.riccati_neumann
