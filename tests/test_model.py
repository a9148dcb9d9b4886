import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vnfcmap
from vnfcmap.model import (
    NUM_COMPONENTS,
    VirtualMachine,
    VmLabel,
    VnfcKind,
    VnfComponent,
    classify_vms,
    make_slice,
)


def test_eight_kinds_split_between_units():
    assert len(VnfcKind) == 8
    cu = [k for k in VnfcKind if k.in_centralized_unit]
    du = [k for k in VnfcKind if not k.in_centralized_unit]
    assert [k.name for k in cu] == ["RRC", "PDCP", "SDAP"]
    assert [k.name for k in du] == ["RLC_HIGH", "RLC_LOW", "MAC_HIGH", "MAC_LOW", "PHY_HIGH"]
    assert not set(cu) & set(du)


def test_total_compute_sums_all_components():
    subnet = make_slice([3, 3, 3, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
    assert subnet.total_compute == 14


def test_total_demand_zero_case():
    subnet = make_slice([0] * 8, [0] * 8)
    assert subnet.total_compute == 0


def test_du_heavier_than_cu_rejected():
    with pytest.raises(ValueError, match="cu-dominance"):
        make_slice([2, 2, 2, 2, 2, 2, 2, 2], [1, 1, 1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="cu-dominance"):
        make_slice([3, 3, 3, 1, 1, 1, 1, 1], [2, 2, 2, 2, 2, 2, 2, 2])


def test_component_validation():
    with pytest.raises(ValueError):
        VnfComponent(id=0, kind=VnfcKind.RRC, compute_req=1, storage_req=1)
    with pytest.raises(ValueError):
        VnfComponent(id=1, kind=VnfcKind.RRC, compute_req=-1, storage_req=1)
    with pytest.raises(ValueError):
        make_slice([1, 1, 1], [1, 1, 1])


def test_slice_requires_canonical_order():
    comps = list(make_slice([2] * 3 + [1] * 5, [2] * 3 + [1] * 5).components)
    comps[0], comps[1] = comps[1], comps[0]
    with pytest.raises(ValueError, match="position"):
        type(make_slice([2] * 3 + [1] * 5, [2] * 3 + [1] * 5))(tuple(comps))


def test_vm_validation_and_occupy():
    with pytest.raises(ValueError):
        VirtualMachine(id=1, compute_cap=0, storage_cap=1)
    with pytest.raises(ValueError, match="hosted"):
        VirtualMachine(id=3, compute_cap=2, storage_cap=2, hosted=NUM_COMPONENTS + 1)
    assert VirtualMachine(id=3, compute_cap=2, storage_cap=2).available
    taken = VirtualMachine(id=3, compute_cap=2, storage_cap=2, hosted=5)
    assert not taken.available and taken.hosted == 5


def _component(cid, compute, storage):
    return VnfComponent(id=cid, kind=VnfcKind(cid), compute_req=compute, storage_req=storage)


def test_classification_boundary_is_sufficient():
    comp = _component(1, 2, 2)
    vm = VirtualMachine(id=1, compute_cap=2, storage_cap=2)
    labels = classify_vms([vm], comp).labels
    assert labels[1] is VmLabel.AVAILABLE_SUFFICIENT


def test_classification_storage_short():
    comp = _component(1, 2, 2)
    vm = VirtualMachine(id=1, compute_cap=3, storage_cap=1)
    assert classify_vms([vm], comp).labels[1] is VmLabel.AVAILABLE_INSUFFICIENT


def test_classification_occupied_wins_over_capacity():
    comp = _component(1, 1, 1)
    vm = VirtualMachine(id=1, compute_cap=9, storage_cap=9, hosted=2)
    assert classify_vms([vm], comp).labels[1] is VmLabel.OCCUPIED


def test_classification_rejects_empty_inventory():
    with pytest.raises(ValueError):
        classify_vms([], _component(1, 1, 1))


def test_labels_partition_inventory():
    rng = np.random.default_rng(5)
    for _ in range(50):
        comp = _component(1, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        vms = [
            VirtualMachine(
                id=j + 1,
                compute_cap=int(rng.integers(1, 11)),
                storage_cap=int(rng.integers(1, 11)),
                hosted=int(rng.integers(1, 9)) if rng.random() < 0.3 else None,
            )
            for j in range(12)
        ]
        cls = classify_vms(vms, comp)
        assert sorted(cls.labels) == [vm.id for vm in vms]
        partition = [
            [vid for vid, lab in cls.labels.items() if lab is label] for label in VmLabel
        ]
        assert sorted(vid for group in partition for vid in group) == sorted(cls.labels)


def test_growing_capacity_never_loses_sufficiency():
    rng = np.random.default_rng(6)
    for _ in range(50):
        comp = _component(2, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        vm = VirtualMachine(
            id=1, compute_cap=int(rng.integers(1, 8)), storage_cap=int(rng.integers(1, 8))
        )
        bigger = VirtualMachine(id=1, compute_cap=vm.compute_cap + 1, storage_cap=vm.storage_cap + 2)
        before = classify_vms([vm], comp).labels[1]
        after = classify_vms([bigger], comp).labels[1]
        if before is VmLabel.AVAILABLE_SUFFICIENT:
            assert after is VmLabel.AVAILABLE_SUFFICIENT


def test_demand_is_additive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        du = rng.integers(0, 4, size=(2, 5))
        cu_floor = du.sum(axis=1)  # dominance by construction
        cu = np.stack([cu_floor, rng.integers(0, 3, size=2).astype(np.int64)]).sum(axis=0)
        compute = [int(cu[0]), 0, 0] + [int(v) for v in du[0]]
        storage = [int(cu[1]), 0, 0] + [int(v) for v in du[1]]
        subnet = make_slice(compute, storage)
        assert subnet.total_compute == sum(compute)
        assert subnet.total_compute == sum(c.compute_req for c in subnet.components)


def test_num_components_constant():
    assert NUM_COMPONENTS == 8


def test_model_and_infra_import_without_scipy_or_the_learners():
    # The package root re-exports nothing, so these modules stay light.
    src = str(Path(vnfcmap.__file__).resolve().parents[1])
    code = (
        "import sys, vnfcmap.model, vnfcmap.infra; "
        "print(sorted({'scipy', 'vnfcmap.agents'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
