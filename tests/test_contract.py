"""The library's contract: each call returns finite floats or raises a WidemimoError.

A fixed table of calls at the edges of the domain, each of which once
escaped the contract: a bare ValueError, a nan or an inf.
"""

import dataclasses
import math

import pytest

from conftest import SEED
from widemimo import (
    ChannelDims,
    RngStream,
    WidemimoError,
    e0_upper,
    iid_capacity_bracket,
    m_star,
    mc_onoff_mi,
    onoff_building_blocks,
    onoff_mi_quadrature,
)

CONTRACT_CALLS = {
    # omega = snr/A underflows to 0, or is subnormal and cannot hold rel_tol
    "onoff_mi_quadrature-5e-324": lambda: onoff_mi_quadrature(1, 5e-324, 7.0),
    "onoff_mi_quadrature-1e-320": lambda: onoff_mi_quadrature(1, 1e-320, 7.0),
    "mc_onoff_mi-5e-324": lambda: mc_onoff_mi(1, 5e-324, 7.0, 10_000, RngStream(SEED, 145)),
    # 1/snr overflows in zeta_star, r/snr in the m_star sandwich
    "onoff_building_blocks-5e-324": lambda: onoff_building_blocks(1, 5e-324, 7.0),
    "iid_capacity_bracket-r1-5e-324": lambda: iid_capacity_bracket(1, 5e-324),
    "iid_capacity_bracket-r2-5e-324": lambda: iid_capacity_bracket(2, 5e-324),
    "iid_capacity_bracket-r4-5e-324": lambda: iid_capacity_bracket(4, 5e-324),
    "m_star-5e-324": lambda: m_star(1, 5e-324),
    # kappa = l snr_b / t overflows
    "e0_upper-rho0": lambda: e0_upper(ChannelDims(3, 1, 10**15), 1e300, 0.0),
    "e0_upper-rho0.5": lambda: e0_upper(ChannelDims(3, 1, 10**15), 1e300, 0.5),
    "e0_upper-rho1": lambda: e0_upper(ChannelDims(3, 1, 10**15), 1e300, 1.0),
    "e0_upper-l1e300": lambda: e0_upper(ChannelDims(1, 1, 10**300), 1e10, 1.0),
}


def _floats(value):
    """The float fields of a result, recursively; a float is its own."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _floats(getattr(value, f.name))]
    return [value] if isinstance(value, float) else []


@pytest.mark.parametrize("name", list(CONTRACT_CALLS))
def test_finite_floats_or_a_library_error(name):
    try:
        value = CONTRACT_CALLS[name]()
    except WidemimoError:
        return
    floats = _floats(value)
    assert floats and all(map(math.isfinite, floats)), value
