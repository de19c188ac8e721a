from __future__ import annotations

import numpy as np
import pytest

from pevplan.caseio import _Scales
from pevplan.network import Branch, Bus, Network, ValidationError, build_ybus

from conftest import small_feeder


def two_bus_net(r=0.05, x=0.1):
    return Network(
        (Bus(1, kind="slack"), Bus(2, normal_load_p=0.1, normal_load_q=0.05)),
        (Branch(1, 2, r, x),),
    )


def test_bus_rejects_bad_kind():
    with pytest.raises(ValidationError, match="unknown kind"):
        Bus(3, kind="generator")


def test_bus_rejects_inverted_voltage_band():
    with pytest.raises(ValidationError, match="v_min"):
        Bus(1, v_min=1.05, v_max=0.95)


def test_branch_rejects_self_loop_and_bad_impedance():
    with pytest.raises(ValidationError, match="self-loop"):
        Branch(4, 4, 0.01, 0.02)
    with pytest.raises(ValidationError, match="negative resistance"):
        Branch(1, 2, -0.01, 0.02)
    with pytest.raises(ValidationError, match="reactance"):
        Branch(1, 2, 0.01, 0.0)
    with pytest.raises(ValidationError, match="current_cap"):
        Branch(1, 2, 0.01, 0.02, current_cap=0.0)


@pytest.mark.parametrize("make, name", [
    (lambda: Bus(2, normal_load_p=np.nan), "bus 2"),
    (lambda: Bus(2, normal_load_q=np.inf), "bus 2"),
    (lambda: Branch(1, 2, np.nan, 0.02), "branch 1-2"),
    (lambda: Branch(1, 2, np.inf, 0.02), "branch 1-2"),
    (lambda: Branch(1, 2, 0.01, np.inf), "branch 1-2"),
    (lambda: Network((Bus(1, kind="slack"),), (), base_mva=np.nan), "base"),
    (lambda: Network((Bus(1, kind="slack"),), (), base_kv=np.inf), "base"),
], ids=["load_p-nan", "load_q-inf", "r-nan", "r-inf", "x-inf", "base_mva-nan",
        "base_kv-inf"])
def test_non_finite_values_are_rejected(make, name):
    with pytest.raises(ValidationError, match=name):
        make()
    # no ampacity stays legal
    assert Branch(1, 2, 0.01, 0.02).current_cap == np.inf


def test_network_requires_exactly_one_slack():
    with pytest.raises(ValidationError, match="exactly one slack"):
        Network((Bus(1), Bus(2)), (Branch(1, 2, 0.01, 0.02),))
    with pytest.raises(ValidationError, match="exactly one slack"):
        Network(
            (Bus(1, kind="slack"), Bus(2, kind="slack")),
            (Branch(1, 2, 0.01, 0.02),),
        )


def test_network_rejects_duplicate_bus_ids():
    with pytest.raises(ValidationError, match="duplicate bus id 2"):
        Network(
            (Bus(1, kind="slack"), Bus(2), Bus(2)),
            (Branch(1, 2, 0.01, 0.02), Branch(1, 2, 0.03, 0.02)),
        )


def test_network_rejects_dangling_branch():
    # the error message should name the missing endpoint
    with pytest.raises(ValidationError, match="nonexistent bus 99"):
        Network(
            (Bus(1, kind="slack"), Bus(2)),
            (Branch(1, 2, 0.01, 0.02), Branch(2, 99, 0.01, 0.02)),
        )


def test_network_rejects_disconnected_island():
    with pytest.raises(ValidationError, match=r"\[3, 4\] are not connected"):
        Network(
            (Bus(1, kind="slack"), Bus(2), Bus(3), Bus(4)),
            (Branch(1, 2, 0.01, 0.02), Branch(3, 4, 0.01, 0.02)),
            radial=False,
        )


def test_network_radial_flag_enforces_branch_count():
    buses = (Bus(1, kind="slack"), Bus(2), Bus(3))
    branches = (
        Branch(1, 2, 0.01, 0.02),
        Branch(2, 3, 0.01, 0.02),
        Branch(1, 3, 0.01, 0.02),
    )
    with pytest.raises(ValidationError, match="radial network needs 2 branches"):
        Network(buses, branches)
    # same data is fine once the claim of radiality is dropped
    meshed = Network(buses, branches, radial=False)
    assert meshed.n_bus == 3


def test_index_lookup_and_bus_access(feeder4):
    assert feeder4.slack_id == 1
    assert feeder4.slack_index == 0
    assert feeder4.index_of(3) == 2
    assert feeder4.buses[feeder4.index_of(4)].id == 4
    with pytest.raises(KeyError, match="no bus with id 42"):
        feeder4.index_of(42)
    assert [b in feeder4 for b in (1, 4, 42)] == [True, True, False]


def test_base_conversions():
    # the per-unit divisors the case parser applies, on a network's default base
    net = two_bus_net()
    scales = _Scales(net.base_mva, net.base_kv)
    assert scales.power_kw == 10_000.0
    assert scales.impedance_ohm == pytest.approx(12.66**2 / 10.0)
    assert scales.current_a == pytest.approx(10.0 * 1e3 / (np.sqrt(3.0) * 12.66))


def test_ybus_single_branch_entries():
    """R=0.05, X=0.1 gives a series admittance of 4 - j8."""
    y = build_ybus(two_bus_net())
    y_series = 1.0 / complex(0.05, 0.1)
    assert y[0, 0] == pytest.approx(y_series)
    assert y[1, 1] == pytest.approx(y_series)
    assert y[0, 1] == pytest.approx(-y_series)
    assert y_series == pytest.approx(complex(4.0, -8.0))


def test_ybus_symmetric_with_zero_row_sums(bus33):
    y = build_ybus(bus33.network)
    assert y.shape == (33, 33)
    np.testing.assert_array_equal(y, y.T)
    np.testing.assert_allclose(y.sum(axis=1), 0.0, atol=1e-9)


def test_admittance_matrix_is_read_only(feeder4):
    y = build_ybus(feeder4)
    with pytest.raises(ValueError):
        y[0, 0] = 0.0


def test_small_feeder_helper_shape():
    net = small_feeder(7)
    assert net.n_bus == 7
    assert len(net.branches) == 6
