import math

import numpy as np
import pytest

from vnfcmap.infra import (
    RULE_COMPUTE_CAPACITY,
    RULE_SINGLE_HOST,
    RULE_STORAGE_CAPACITY,
    RULE_VM_COUNT,
    OverloadError,
    PmLoad,
    VmPlacement,
    WastageWeights,
    check_vm_placement,
    pm_loads,
    pm_wastage,
    pm_workload,
    slice_workload,
    vm_wastage,
    vm_workload,
)
from vnfcmap.model import Inventory, PhysicalMachine, VirtualMachine


def _vm(vid, cap):
    return VirtualMachine(id=vid, compute_cap=cap, storage_cap=cap)


def _pm(pid, cap, count=1):
    return PhysicalMachine(id=pid, compute_cap=cap, storage_cap=cap, max_vm_count=count)


def test_single_vm_fits_active_pm():
    placement = VmPlacement(x=((1,),), pm_active=(True,))
    assert check_vm_placement(placement, [_vm(1, 2)], [_pm(1, 4)])[0] == []


def test_capacity_overrun_reports_both_axes():
    placement = VmPlacement(x=((1,), (1,)), pm_active=(True,))
    violations, _ = check_vm_placement(placement, [_vm(1, 3), _vm(2, 3)], [_pm(1, 4, count=2)])
    rules = {v.rule for v in violations}
    assert rules == {RULE_COMPUTE_CAPACITY, RULE_STORAGE_CAPACITY}
    assert all(v.index == 1 for v in violations)


def test_vm_on_two_pms_breaks_single_host_rule():
    placement = VmPlacement(x=((1, 1),), pm_active=(True, True))
    violations, _ = check_vm_placement(placement, [_vm(1, 1)], [_pm(1, 4), _pm(2, 4)])
    assert [v.rule for v in violations] == [RULE_SINGLE_HOST]


def test_vm_count_limit():
    placement = VmPlacement(x=((1,), (1,)), pm_active=(True,))
    violations, _ = check_vm_placement(placement, [_vm(1, 1), _vm(2, 1)], [_pm(1, 10, count=1)])
    assert [v.rule for v in violations] == [RULE_VM_COUNT]


def test_inactive_pm_has_no_capacity():
    placement = VmPlacement(x=((1,),), pm_active=(False,))
    rules = {v.rule for v in check_vm_placement(placement, [_vm(1, 1)], [_pm(1, 4)])[0]}
    assert RULE_COMPUTE_CAPACITY in rules and RULE_STORAGE_CAPACITY in rules


def test_empty_rows_are_flagged():
    placement = VmPlacement(x=((0,), (0,)), pm_active=(True,))
    vms = [_vm(1, 1), _vm(2, 1)]
    pms = [_pm(1, 4, count=2)]
    total, _ = check_vm_placement(placement, vms, pms)
    assert [v.rule for v in total] == [RULE_SINGLE_HOST, RULE_SINGLE_HOST]


def test_dimension_mismatch_is_structural():
    placement = VmPlacement(x=((1,),), pm_active=(True,))
    with pytest.raises(ValueError, match="inventory"):
        check_vm_placement(placement, [_vm(1, 1), _vm(2, 1)], [_pm(1, 4)])
    with pytest.raises(ValueError, match="columns"):
        VmPlacement(x=((1, 0),), pm_active=(True,))
    with pytest.raises(ValueError, match="non-binary"):
        VmPlacement(x=((2,),), pm_active=(True,))
    # The first bad row is named, whichever of its faults it has.
    with pytest.raises(ValueError, match="^row 2 contains a non-binary entry$"):
        VmPlacement(x=((1, 0), (0, [1]), (1,), (2, 0)), pm_active=(True, True))
    with pytest.raises(ValueError, match="^row 1 has 1 columns, expected 2$"):
        VmPlacement(x=((1,), (2, 0)), pm_active=(True, True))


def test_pm_loads_sum_only_the_hosted_machines():
    # Machine 3 holds a float but sits on PM 2: summed as cap * x over every
    # machine, its 2.5 * 0 == 0.0 once printed PM 1's int demand as 12.0.
    vms = [_vm(1, 6), _vm(2, 6), _vm(3, 2.5)]
    placement = VmPlacement(x=((1, 0, 0), (1, 0, 0), (0, 1, 0)), pm_active=(True, True, False))
    expected = [PmLoad([0, 1], 12, 12), PmLoad([2], 2.5, 2.5), PmLoad([], 0, 0)]
    assert list(pm_loads(placement, Inventory.of(vms))) == expected
    # The rule check hands back the loads it read its violations from.
    violations, loads = check_vm_placement(placement, vms, [_pm(1, 10, 2), _pm(2, 10), _pm(3, 10)])
    assert loads == expected
    assert [str(v) for v in violations] == [
        "[pm-compute-capacity] #1: compute demand 12 exceeds 10",
        "[pm-storage-capacity] #1: storage demand 12 exceeds 10",
    ]


def test_placement_matrix_is_a_read_only_int8_array():
    placement = VmPlacement(x=((1, 0), (0, 1), (0, 1)), pm_active=(True, False))
    assert placement.matrix.dtype == np.int8
    assert placement.matrix.tolist() == [[1, 0], [0, 1], [0, 1]]
    with pytest.raises(ValueError):
        placement.matrix[0, 0] = 0
    assert VmPlacement(x=(), pm_active=(True, True)).matrix.shape == (0, 2)
    # Equality and hash read pm_active and the matrix, shape included.
    assert placement == VmPlacement(x=((1, 0), (0, 1), (0, 1)), pm_active=(True, False))
    ints = VmPlacement(x=((1, 0),), pm_active=(True, True))
    bools = VmPlacement(x=((True, False),), pm_active=(True, True))
    assert ints == bools and hash(ints) == hash(bools)
    assert ints != VmPlacement(x=((1, 0),), pm_active=(True, False))
    assert ints != VmPlacement(x=((0, 1),), pm_active=(True, True))
    two, three = VmPlacement(x=((),) * 2, pm_active=()), VmPlacement(x=((),) * 3, pm_active=())
    assert two.matrix.tobytes() == three.matrix.tobytes()
    assert two != three and hash(two) != hash(three)
    listed = VmPlacement(x=((1, 0),), pm_active=[True, True])
    assert listed.pm_active == (True, True)
    assert listed == ints and hash(listed) == hash(ints)


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
