import pytest

import fcad
from fcad import capacities, channels, covariance, entropy, optimizer, qmat


@pytest.mark.parametrize("module", [capacities, channels, covariance, entropy, optimizer, qmat])
def test_package_exports_each_module_all(module):
    for name in module.__all__:
        assert getattr(fcad, name) is getattr(module, name), name


def test_removed_names_are_gone():
    assert not hasattr(fcad, "kron")
    assert not hasattr(qmat, "kron")
