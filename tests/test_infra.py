import math

import numpy as np
import pytest

from vnfcmap.infra import (
    RULE_COMPUTE_CAPACITY,
    RULE_SINGLE_HOST,
    RULE_STORAGE_CAPACITY,
    RULE_VM_COUNT,
    OverloadError,
    VmPlacement,
    WastageWeights,
    check_vm_placement,
    pm_wastage,
    pm_workload,
    slice_workload,
    vm_wastage,
    vm_workload,
)
from vnfcmap.model import PhysicalMachine, VirtualMachine


def _vm(vid, cap):
    return VirtualMachine(id=vid, compute_cap=cap, storage_cap=cap)


def _pm(pid, cap, count=1):
    return PhysicalMachine(id=pid, compute_cap=cap, storage_cap=cap, max_vm_count=count)


def test_single_vm_fits_active_pm():
    placement = VmPlacement(x=((1,),), pm_active=(True,))
    assert check_vm_placement(placement, [_vm(1, 2)], [_pm(1, 4)]) == []


def test_capacity_overrun_reports_both_axes():
    placement = VmPlacement(x=((1,), (1,)), pm_active=(True,))
    violations = check_vm_placement(placement, [_vm(1, 3), _vm(2, 3)], [_pm(1, 4, count=2)])
    rules = {v.rule for v in violations}
    assert rules == {RULE_COMPUTE_CAPACITY, RULE_STORAGE_CAPACITY}
    assert all(v.index == 1 for v in violations)


def test_vm_on_two_pms_breaks_single_host_rule():
    placement = VmPlacement(x=((1, 1),), pm_active=(True, True))
    violations = check_vm_placement(placement, [_vm(1, 1)], [_pm(1, 4), _pm(2, 4)])
    assert [v.rule for v in violations] == [RULE_SINGLE_HOST]


def test_vm_count_limit():
    placement = VmPlacement(x=((1,), (1,)), pm_active=(True,))
    violations = check_vm_placement(placement, [_vm(1, 1), _vm(2, 1)], [_pm(1, 10, count=1)])
    assert [v.rule for v in violations] == [RULE_VM_COUNT]


def test_inactive_pm_has_no_capacity():
    placement = VmPlacement(x=((1,),), pm_active=(False,))
    rules = {v.rule for v in check_vm_placement(placement, [_vm(1, 1)], [_pm(1, 4)])}
    assert RULE_COMPUTE_CAPACITY in rules and RULE_STORAGE_CAPACITY in rules


def test_empty_rows_are_flagged():
    placement = VmPlacement(x=((0,), (0,)), pm_active=(True,))
    vms = [_vm(1, 1), _vm(2, 1)]
    pms = [_pm(1, 4, count=2)]
    total = check_vm_placement(placement, vms, pms)
    assert [v.rule for v in total] == [RULE_SINGLE_HOST, RULE_SINGLE_HOST]


def test_dimension_mismatch_is_structural():
    placement = VmPlacement(x=((1,),), pm_active=(True,))
    with pytest.raises(ValueError, match="inventory"):
        check_vm_placement(placement, [_vm(1, 1), _vm(2, 1)], [_pm(1, 4)])
    with pytest.raises(ValueError, match="columns"):
        VmPlacement(x=((1, 0),), pm_active=(True,))
    with pytest.raises(ValueError, match="non-binary"):
        VmPlacement(x=((2,),), pm_active=(True,))


def test_vm_workload_values():
    assert vm_workload(0.0, 0.0) == 1.0
    assert vm_workload(0.5, 0.5) == 4.0
    assert vm_workload(0.9, 0.0) == pytest.approx(10.0)


def test_vm_workload_overload_and_negative():
    with pytest.raises(OverloadError):
        vm_workload(1.0, 0.0)
    with pytest.raises(OverloadError):
        vm_workload(0.3, 1.2)
    with pytest.raises(ValueError):
        vm_workload(-0.1, 0.0)


def test_workload_monotone_and_diverging():
    previous = 0.0
    for load in np.linspace(0.0, 0.99, 34):
        current = vm_workload(float(load), 0.4)
        assert current > previous
        previous = current
    assert vm_workload(0.999999, 0.0) > 1e5


def test_slice_workload_weights_units():
    assert slice_workload(1.0, 1.0) == 8.0
    assert slice_workload(4.0, 1.0) == 17.0
    assert slice_workload(2.0, 2.0) == 16.0
    with pytest.raises(ValueError):
        slice_workload(0.5, 1.0)


def test_pm_workload_includes_hosted_vms():
    assert pm_workload((0.0, 0.0), []) == 1.0
    assert pm_workload((0.1, 0.1), [(0.4, 0.4)]) == pytest.approx(4.0)
    with pytest.raises(OverloadError):
        pm_workload((0.5, 0.0), [(0.3, 0.0), (0.2, 0.0)])


def test_pm_wastage_values():
    half = WastageWeights()
    assert pm_wastage((0.0, 0.0), (5.0, 5.0), half) == 0.0
    assert pm_wastage((2.0, 3.0), (5.0, 5.0), half) == pytest.approx(0.5)
    assert pm_wastage((5.0, 5.0), (5.0, 5.0), half) == 1.0


def test_pm_wastage_stays_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w1 = float(rng.random())
        weights = WastageWeights(w1, 1.0 - w1)
        cap = rng.uniform(0.5, 10.0, size=2)
        avail = cap * rng.random(2)
        value = pm_wastage((avail[0], avail[1]), (cap[0], cap[1]), weights)
        assert 0.0 <= value <= 1.0


def test_pm_wastage_input_validation():
    with pytest.raises(ValueError):
        pm_wastage((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        pm_wastage((2.0, 0.0), (1.0, 1.0))


def test_vm_wastage_scales_host_term_by_index():
    half = WastageWeights()
    assert vm_wastage((0.0, 0.0), (4.0, 4.0), half, pm_wastage_term=0.0, vm_index=3) == 0.0
    assert vm_wastage((0.0, 0.0), (4.0, 4.0), half, pm_wastage_term=0.5, vm_index=2) == 1.0
    assert vm_wastage((4.0, 4.0), (4.0, 4.0), half, pm_wastage_term=0.1, vm_index=1) == pytest.approx(1.1)
    with pytest.raises(ValueError):
        vm_wastage((0.0, 0.0), (4.0, 4.0), half, pm_wastage_term=0.1, vm_index=0)


def test_weights_must_be_convex():
    with pytest.raises(ValueError):
        WastageWeights(0.7, 0.7)
    with pytest.raises(ValueError):
        WastageWeights(-0.1, 1.1)
    assert math.isclose(WastageWeights(0.25, 0.75).w2, 0.75)
