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
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .infra import VmPlacement, check_vm_placement
from .model import (
    NUM_COMPONENTS,
    PhysicalMachine,
    SliceSubnet,
    VirtualMachine,
    VnfcKind,
    VnfComponent,
    check_ids_in_order,
    make_slice,
)
from .oracle import AssignmentProblem, has_feasible_assignment
from .oracle import solve_exact_matching  # noqa: F401 (perfbench/layers.py wraps it here)

SCHEMA_VERSION = 1
MAX_RESAMPLES = 1000


class ScenarioFormatError(ValueError):
    """A malformed outside document (scenario file, request body, policy file or run
    summary): ``field`` is the offender, ``detail`` the fault."""

    def __init__(self, field: str, detail: str):
        super().__init__(field, detail)
        self.field = field
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.field}: {self.detail}"


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
        check_ids_in_order(self.vms, "vm", "m")
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


# ---------------------------------------------------------------------------
# Reading outside documents: each is parsed by ``decode_document`` and read with ``require``.


def decode_document(raw: bytes | str, field: str = "<document>") -> dict:
    """Parse a JSON object; any failure raises a ``ScenarioFormatError`` naming ``field``."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ScenarioFormatError(field, f"is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(field, "must be a JSON object")
    return doc


def read_regular_file(path: str | Path) -> bytes:
    """The bytes of a regular file; a FIFO or a device, whose read may never
    end, is refused unread."""
    path = Path(path)
    try:
        if not path.is_file():
            raise ScenarioFormatError("<document>", f"{path} is not a regular file")
        return path.read_bytes()
    except OSError as exc:
        raise ScenarioFormatError("<document>", f"cannot be read: {exc}") from exc


def read_document(path: str | Path) -> dict:
    """``decode_document`` of a regular file."""
    return decode_document(read_regular_file(path))


class FieldKind(NamedTuple):
    valid: Callable[[Any], bool]
    detail: str


def _is_finite_number(value: Any) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        return False


LIST = FieldKind(lambda v: isinstance(v, list), "must be a list")
INTEGER = FieldKind(lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer")
NUMBER = FieldKind(_is_finite_number, "must be a finite number")
# Below 1/16 of the largest float: the absolute objective sums 16 surpluses
# (two axes of eight components), each at most the largest capacity.
MAX_AMOUNT = 1e307
# Beyond 2**53 an integer has no exact float, so the float64 capacity-fit mask
# and the exact ``VirtualMachine.fits`` could disagree on it.
MAX_INTEGER_AMOUNT = 2**53
AMOUNT = FieldKind(
    lambda v: _is_finite_number(v)
    and v <= MAX_AMOUNT
    and (not isinstance(v, int) or abs(v) <= MAX_INTEGER_AMOUNT),
    f"must be a finite number <= {MAX_AMOUNT:g} and, if an integer, of magnitude <= 2**53",
)
STRING = FieldKind(lambda v: isinstance(v, str), "must be a string")
BOOLEAN = FieldKind(lambda v: isinstance(v, bool), "must be a boolean")
_ABSENT = object()


def require(
    mapping: dict, key: str, path: str = "", kind: Optional[FieldKind] = None, default=_ABSENT
) -> Any:
    """``mapping[key]``, checked against ``kind`` unless it is the ``default``
    that an absent key falls back to. ``path`` is the field path of
    ``mapping``, ending in a dot, or "" at the top level."""
    if not isinstance(mapping, dict):
        parent = path[:-1] or "<document>"
        raise ScenarioFormatError(f"{path}{key}", f"cannot be read: {parent} is not an object")
    value = mapping.get(key, default)
    if value is _ABSENT:
        raise ScenarioFormatError(f"{path}{key}", "is required")
    if kind is not None and value is not default and not kind.valid(value):
        raise ScenarioFormatError(f"{path}{key}", kind.detail)
    return value


# ---------------------------------------------------------------------------
# Serialization


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
    """Read a scenario document. A missing or mistyped field raises a
    ``ScenarioFormatError`` naming it; a broken domain rule (dominance, id
    order, substrate rules) raises one naming ``<document>``."""
    try:
        scenario = _read_scenario(doc)
        violations = placement_violations(scenario) if validate_placement else []
        if violations:
            raise ValueError("placement breaks substrate rules: " + "; ".join(map(str, violations)))
    except ScenarioFormatError:
        raise
    except ValueError as exc:
        raise ScenarioFormatError("<document>", str(exc)) from exc
    return scenario


_INT_RANGE = FieldKind(
    lambda v: LIST.valid(v) and len(v) == 2 and all(map(INTEGER.valid, v)), "must be two integers"
)
_ROWS = FieldKind(
    lambda v: LIST.valid(v) and all(LIST.valid(row) and all(map(INTEGER.valid, row)) for row in v),
    "must be a list of lists of integers",
)
_FLAGS = FieldKind(
    lambda v: LIST.valid(v) and all(map(BOOLEAN.valid, v)), "must be a list of booleans"
)


def _read_scenario(doc: dict) -> Scenario:
    version = require(doc, "version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError("version", f"has unsupported value {version!r}")
    seed = require(doc, "seed", kind=INTEGER, default=None)
    raw_params = require(doc, "params")
    params = None
    if raw_params is not None:
        params = GenerationParams(
            num_vms=require(raw_params, "num_vms", "params.", INTEGER),
            req_range=tuple(require(raw_params, "req_range", "params.", _INT_RANGE)),
            cap_range=tuple(require(raw_params, "cap_range", "params.", _INT_RANGE)),
        )

    slice_doc = require(doc, "slice")
    raw_components = require(slice_doc, "components", "slice.", LIST)
    components = []
    for idx, raw in enumerate(raw_components):
        path = f"slice.components[{idx}]."
        kind_name = require(raw, "kind", path)
        try:
            kind = VnfcKind[kind_name]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ScenarioFormatError(f"{path}kind", f"has unknown value {kind_name!r}") from None
        components.append(
            VnfComponent(
                id=require(raw, "id", path, INTEGER),
                kind=kind,
                compute_req=require(raw, "compute_req", path, AMOUNT),
                storage_req=require(raw, "storage_req", path, AMOUNT),
            )
        )
    subnet = SliceSubnet(tuple(components))

    vms = _read_vms(require(doc, "vms", kind=LIST))

    pms = tuple(
        PhysicalMachine(
            id=require(raw, "id", f"pms[{idx}].", INTEGER),
            compute_cap=require(raw, "compute_cap", f"pms[{idx}].", AMOUNT),
            storage_cap=require(raw, "storage_cap", f"pms[{idx}].", AMOUNT),
            max_vm_count=require(raw, "max_vm_count", f"pms[{idx}].", INTEGER),
            active=require(raw, "active", f"pms[{idx}].", BOOLEAN, default=True),
        )
        for idx, raw in enumerate(require(doc, "pms", kind=LIST, default=[]))
    )

    placement = None
    raw_placement = require(doc, "placement", default=None)
    if raw_placement is not None:
        placement = VmPlacement(
            x=tuple(tuple(row) for row in require(raw_placement, "x", "placement.", _ROWS)),
            pm_active=tuple(require(raw_placement, "pm_active", "placement.", _FLAGS)),
        )
    return Scenario(subnet=subnet, vms=vms, seed=seed, params=params, pms=pms, placement=placement)


def _read_vms(raw_vms: list) -> tuple[VirtualMachine, ...]:
    """The machines of a ``vms`` list. An entry whose ``id`` is an integer and
    whose capacities are floats in (0, ``MAX_AMOUNT``) or integers in (0,
    ``MAX_INTEGER_AMOUNT``] is taken as it is; any other is read field by
    field, so a refusal names its first offending field."""
    vms = []
    for idx, raw in enumerate(raw_vms):
        if type(raw) is dict:
            vm_id, compute, storage = raw.get("id"), raw.get("compute_cap"), raw.get("storage_cap")
            if (
                type(vm_id) is int
                and type(compute) in (int, float)
                and type(storage) in (int, float)
                and 0 < compute < MAX_AMOUNT  # NaN and infinity fail too
                and 0 < storage < MAX_AMOUNT
                and (type(compute) is float or compute <= MAX_INTEGER_AMOUNT)
                and (type(storage) is float or storage <= MAX_INTEGER_AMOUNT)
            ):
                vms.append(VirtualMachine(vm_id, compute, storage))
                continue
        path = f"vms[{idx}]."
        vms.append(
            VirtualMachine(
                id=require(raw, "id", path, INTEGER),
                compute_cap=require(raw, "compute_cap", path, AMOUNT),
                storage_cap=require(raw, "storage_cap", path, AMOUNT),
            )
        )
    return tuple(vms)


def save(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def load(path: str | Path, validate_placement: bool = True) -> Scenario:
    return scenario_from_dict(read_document(path), validate_placement=validate_placement)
