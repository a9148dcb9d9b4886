"""Problem-instance generation and a versioned on-disk format.

A scenario bundles one slice subnet (the eight components with their demands)
with a machine inventory, and optionally a physical substrate. Generated
instances use small integer resource units so objective arithmetic stays exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .infra import VmPlacement, check_vm_placement
from .model import (
    NUM_COMPONENTS,
    PhysicalMachine,
    SliceSubnet,
    VirtualMachine,
    VnfcKind,
    VnfComponent,
    make_slice,
)
from .oracle import AssignmentProblem, has_feasible_assignment
from .oracle import solve_exact_matching  # noqa: F401 (perfbench/layers.py wraps it here)

SCHEMA_VERSION = 1
MAX_RESAMPLES = 1000


class ScenarioFormatError(ValueError):
    """A scenario document is structurally broken; ``field`` names the offender."""

    def __init__(self, field_path: str, detail: str = ""):
        self.field = field_path
        self.detail = detail or "is missing or malformed"
        super().__init__(f"scenario field {field_path!r} {self.detail}")


class ScenarioGenerationError(RuntimeError):
    """Random generation failed to reach a feasible instance within the retry budget."""


@dataclass(frozen=True)
class GenerationParams:
    """Instance shape and draw ranges.

    The defaults are calibrated so that feasible placements pay roughly 1.1
    idle-fraction reward per step and a fully placed slice collects close to
    10, while leaving enough undersized machines for infeasible choices to
    stay a real hazard.
    """

    num_vms: int = 100
    req_range: tuple[int, int] = (1, 5)
    cap_range: tuple[int, int] = (3, 10)

    def __post_init__(self) -> None:
        if self.num_vms < NUM_COMPONENTS:
            raise ValueError(f"need at least {NUM_COMPONENTS} vms, got {self.num_vms}")
        for name, (lo, hi) in (("req_range", self.req_range), ("cap_range", self.cap_range)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")


@dataclass(frozen=True)
class Scenario:
    subnet: SliceSubnet
    vms: tuple[VirtualMachine, ...]
    seed: Optional[int] = None
    params: Optional[GenerationParams] = None
    pms: tuple[PhysicalMachine, ...] = ()
    placement: Optional[VmPlacement] = None

    def __post_init__(self) -> None:
        if not self.vms:
            raise ValueError("scenario needs at least one vm")
        ids = [vm.id for vm in self.vms]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("vm ids must be 1..m in order")
        if self.placement is not None and not self.pms:
            raise ValueError("placement given without a pm substrate")

    @property
    def num_vms(self) -> int:
        return len(self.vms)


def placement_violations(scenario: Scenario) -> list:
    """Substrate rule violations of the scenario's placement, if it has one."""
    if scenario.placement is None:
        return []
    return check_vm_placement(scenario.placement, scenario.vms, scenario.pms)


def _draw_requirements(rng: np.random.Generator, lo: int, hi: int) -> list[int]:
    """One axis of component demands, resampled until the centralized-unit
    aggregate dominates the distributed-unit aggregate."""
    for _ in range(MAX_RESAMPLES):
        values = [int(v) for v in rng.integers(lo, hi + 1, size=NUM_COMPONENTS)]
        if sum(values[:3]) >= sum(values[3:]):
            return values
    raise ScenarioGenerationError(
        f"could not satisfy cu-dominance within {MAX_RESAMPLES} draws for range ({lo}, {hi})"
    )


def generate(seed: int, params: GenerationParams = GenerationParams()) -> Scenario:
    """Deterministically generate a feasible scenario for a seed.

    Demands are uniform integers over ``req_range`` (dominance enforced by
    rejection), capacities uniform integers over ``cap_range``. Capacity draws
    are resampled until a feasible assignment exists.
    """
    rng = np.random.default_rng(seed)
    compute_reqs = _draw_requirements(rng, *params.req_range)
    storage_reqs = _draw_requirements(rng, *params.req_range)
    subnet = make_slice(compute_reqs, storage_reqs)

    lo, hi = params.cap_range
    for _ in range(MAX_RESAMPLES):
        caps = rng.integers(lo, hi + 1, size=(params.num_vms, 2))
        vms = tuple(
            VirtualMachine(id=j + 1, compute_cap=int(caps[j, 0]), storage_cap=int(caps[j, 1]))
            for j in range(params.num_vms)
        )
        if has_feasible_assignment(AssignmentProblem(subnet.components, vms)):
            return Scenario(subnet=subnet, vms=vms, seed=seed, params=params)
    raise ScenarioGenerationError(
        f"no feasible capacity draw within {MAX_RESAMPLES} attempts for params {params}"
    )


def identity_scenario(subnet: SliceSubnet, extra_vms: tuple[VirtualMachine, ...] = ()) -> Scenario:
    """A scenario whose first eight machines exactly match the eight demands."""
    exact = tuple(
        VirtualMachine(id=c.id, compute_cap=max(c.compute_req, 1), storage_cap=max(c.storage_req, 1))
        for c in subnet.components
    )
    renumbered_extra = tuple(
        VirtualMachine(
            id=NUM_COMPONENTS + k + 1, compute_cap=vm.compute_cap, storage_cap=vm.storage_cap
        )
        for k, vm in enumerate(extra_vms)
    )
    return Scenario(subnet=subnet, vms=exact + renumbered_extra)


# ---------------------------------------------------------------------------
# Serialization


def _require(mapping: dict, key: str, path: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioFormatError(f"{path}{key}" if path.endswith(".") or not path else key)
    return mapping[key]


def _require_list(mapping: dict, key: str, path: str) -> list:
    value = _require(mapping, key, path)
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{path}{key}", "must be a list")
    return value


def _require_int(mapping: dict, key: str, path: str) -> int:
    value = _require(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}{key}", "must be an integer")
    return value


def _require_number(mapping: dict, key: str, path: str) -> float:
    value = _require(mapping, key, path)
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        finite = False
    if not finite:
        raise ScenarioFormatError(f"{path}{key}", "must be a finite number")
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    doc: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "seed": scenario.seed,
        "params": None,
        "slice": {
            "components": [
                {
                    "id": c.id,
                    "kind": c.kind.name,
                    "compute_req": c.compute_req,
                    "storage_req": c.storage_req,
                }
                for c in scenario.subnet.components
            ]
        },
        "vms": [
            {"id": v.id, "compute_cap": v.compute_cap, "storage_cap": v.storage_cap}
            for v in scenario.vms
        ],
    }
    if scenario.params is not None:
        doc["params"] = {
            "num_vms": scenario.params.num_vms,
            "req_range": list(scenario.params.req_range),
            "cap_range": list(scenario.params.cap_range),
        }
    if scenario.pms:
        doc["pms"] = [
            {
                "id": p.id,
                "compute_cap": p.compute_cap,
                "storage_cap": p.storage_cap,
                "max_vm_count": p.max_vm_count,
                "active": p.active,
            }
            for p in scenario.pms
        ]
    if scenario.placement is not None:
        doc["placement"] = {
            "x": [list(row) for row in scenario.placement.x],
            "pm_active": list(scenario.placement.pm_active),
        }
    return doc


def scenario_from_dict(doc: dict, validate_placement: bool = True) -> Scenario:
    version = _require(doc, "version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError("version", f"has unsupported value {version!r}")
    seed = doc.get("seed")
    raw_params = _require(doc, "params", "")
    params = None
    if raw_params is not None:
        params = GenerationParams(
            num_vms=_require(raw_params, "num_vms", "params."),
            req_range=tuple(_require(raw_params, "req_range", "params.")),
            cap_range=tuple(_require(raw_params, "cap_range", "params.")),
        )

    slice_doc = _require(doc, "slice", "")
    raw_components = _require_list(slice_doc, "components", "slice.")
    components = []
    for idx, raw in enumerate(raw_components):
        path = f"slice.components[{idx}]."
        kind_name = _require(raw, "kind", path)
        try:
            kind = VnfcKind[kind_name]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ScenarioFormatError(f"{path}kind", f"has unknown value {kind_name!r}") from None
        components.append(
            VnfComponent(
                id=_require_int(raw, "id", path),
                kind=kind,
                compute_req=_require_number(raw, "compute_req", path),
                storage_req=_require_number(raw, "storage_req", path),
            )
        )
    subnet = SliceSubnet(tuple(components))

    vms = tuple(
        VirtualMachine(
            id=_require_int(raw, "id", f"vms[{idx}]."),
            compute_cap=_require_number(raw, "compute_cap", f"vms[{idx}]."),
            storage_cap=_require_number(raw, "storage_cap", f"vms[{idx}]."),
        )
        for idx, raw in enumerate(_require_list(doc, "vms", ""))
    )

    pms = tuple(
        PhysicalMachine(
            id=_require(raw, "id", f"pms[{idx}]."),
            compute_cap=_require(raw, "compute_cap", f"pms[{idx}]."),
            storage_cap=_require(raw, "storage_cap", f"pms[{idx}]."),
            max_vm_count=_require(raw, "max_vm_count", f"pms[{idx}]."),
            active=raw.get("active", True),
        )
        for idx, raw in enumerate(doc.get("pms", []))
    )

    placement = None
    if "placement" in doc:
        raw = doc["placement"]
        placement = VmPlacement(
            x=tuple(tuple(row) for row in _require(raw, "x", "placement.")),
            pm_active=tuple(_require(raw, "pm_active", "placement.")),
        )
    scenario = Scenario(
        subnet=subnet, vms=vms, seed=seed, params=params, pms=pms, placement=placement
    )
    if validate_placement and placement is not None:
        violations = placement_violations(scenario)
        if violations:
            raise ValueError(
                "placement breaks substrate rules: " + "; ".join(str(v) for v in violations)
            )
    return scenario


def save(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def load(path: str | Path, validate_placement: bool = True) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError("<document>", f"is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc, validate_placement=validate_placement)
