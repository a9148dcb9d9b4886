"""Problem-instance generation and a versioned on-disk format.

A scenario bundles one slice subnet (the eight components with their demands)
with a machine inventory, and optionally a physical substrate. Generated
instances use small integer resource units so objective arithmetic stays exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .infra import VmPlacement, check_vm_placement
from .model import (
    CU_COMPONENTS,
    NUM_COMPONENTS,
    Inventory,
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
# Fit tests compare float64 amounts (``model._fit``), exact only up to 2**53.
MAX_INTEGER_AMOUNT = 2**53
_MAX_FILE_BYTES = 1 << 28  # a tabular model.json at cli.MAX_TABLE_ENTRIES is about 208 MB
MAX_RESAMPLES = 1000
# Demand rows per draw; the default ranges accept about one row in 12.
_DEMAND_BLOCK = 64


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


class FieldKind(NamedTuple):
    valid: Callable[[Any], bool]
    detail: str


def _is_number(value: Any) -> bool:
    """An int or a float, subclasses included, but not a bool: what ``json.dumps``
    writes as a number (``np.float64`` is a float; ``np.int64`` is neither)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


LIST = FieldKind(lambda v: isinstance(v, list), "must be a list")
INTEGER = FieldKind(lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer")
# float() overflows on an int of this magnitude or more; every finite float is below it.
_FLOAT_OVERFLOW = 2**1024 - 2**970
NUMBER = FieldKind(lambda v: _is_number(v) and abs(v) < _FLOAT_OVERFLOW, "must be a finite number")
# Below 1/16 of the largest float: the absolute objective sums 16 surpluses
# (two axes of eight components), each at most the largest capacity.
MAX_AMOUNT = 1e307
AMOUNT = FieldKind(  # a number of magnitude <= 2**53, or a finite float <= MAX_AMOUNT
    lambda v: _is_number(v)
    and (abs(v) <= MAX_INTEGER_AMOUNT or isinstance(v, float) and -math.inf < v <= MAX_AMOUNT),
    f"must be a finite number <= {MAX_AMOUNT:g} and, if an integer, of magnitude <= 2**53",
)
STRING = FieldKind(lambda v: isinstance(v, str), "must be a string")
BOOLEAN = FieldKind(lambda v: isinstance(v, bool), "must be a boolean")
_ABSENT = MISSING  # as a dataclass field marks "no default"


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
        if not all(map(INTEGER.valid, (self.num_vms, *self.req_range, *self.cap_range))):
            raise ValueError(f"num_vms and the range bounds must be integers, got {self}")
        if self.num_vms < NUM_COMPONENTS:
            raise ValueError(f"need at least {NUM_COMPONENTS} vms, got {self.num_vms}")
        for name, (lo, hi) in (("req_range", self.req_range), ("cap_range", self.cap_range)):
            # Above 2**53 a drawn amount would be refused by the readers of its file.
            if lo < 1 or hi < lo or hi > MAX_INTEGER_AMOUNT:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi <= 2**53, got ({lo}, {hi})")


@dataclass(frozen=True)
class Scenario:
    """A slice subnet and its machine inventory, ids 1..m in order (PMs 1..n); ``vms``
    may be given as machine objects and is kept as their ``Inventory``."""

    subnet: SliceSubnet
    vms: Inventory
    seed: Optional[int] = None
    params: Optional[GenerationParams] = None
    pms: tuple[PhysicalMachine, ...] = ()
    placement: Optional[VmPlacement] = None

    def __post_init__(self) -> None:
        if not self.vms:
            raise ValueError("scenario needs at least one vm")
        object.__setattr__(self, "vms", Inventory.of(self.vms))
        if any(pm.id != k for k, pm in enumerate(self.pms, start=1)):
            raise ValueError("pm ids must be 1..n in order")
        if self.placement is not None and not self.pms:
            raise ValueError("placement given without a pm substrate")

    @property
    def num_vms(self) -> int:
        return len(self.vms)


def placement_violations(scenario: Scenario) -> list:
    """Substrate rule violations of the scenario's placement, if it has one."""
    if scenario.placement is None:
        return []
    return check_vm_placement(scenario.placement, scenario.vms, scenario.pms)[0]


def _draw_requirements(rng: np.random.Generator, lo: int, hi: int) -> list[int]:
    """One axis of component demands, resampled until the centralized-unit
    aggregate dominates the distributed-unit aggregate.

    Rows are drawn ``_DEMAND_BLOCK`` at a time. numpy draws the same values
    for n rows in one call as in n calls, so once a block holds an accepted
    row, the generator is rewound and redrawn up to that row: it ends where a
    draw of one row per call would leave it."""
    drawn = 0
    while drawn < MAX_RESAMPLES:
        count = min(_DEMAND_BLOCK, MAX_RESAMPLES - drawn)
        state = rng.bit_generator.state
        rows = rng.integers(lo, hi + 1, size=(count, NUM_COMPONENTS))
        # exact in int64: ``hi`` is at most 2**53
        cu, du = rows[:, :CU_COMPONENTS].sum(axis=1), rows[:, CU_COMPONENTS:].sum(axis=1)
        accepted = np.flatnonzero(cu >= du)
        if accepted.size:
            rng.bit_generator.state = state
            first = int(accepted[0])
            return rng.integers(lo, hi + 1, size=(first + 1, NUM_COMPONENTS))[first].tolist()
        drawn += count
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
        vms = Inventory(*rng.integers(lo, hi + 1, size=(params.num_vms, 2)).T.tolist())
        if has_feasible_assignment(AssignmentProblem(subnet.components, vms)):
            return Scenario(subnet=subnet, vms=vms, seed=seed, params=params)
    raise ScenarioGenerationError(
        f"no feasible capacity draw within {MAX_RESAMPLES} attempts for params {params}"
    )


# ---------------------------------------------------------------------------
# Reading outside documents: each is parsed by ``decode_document`` and read with
# ``require``; a scenario's list entries are read field by field by ``_read_entry``.


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
    """The bytes of a regular file of at most ``_MAX_FILE_BYTES``; a FIFO or a
    device, whose read may never end, and a larger file are refused unread."""
    path = Path(path)
    try:
        if not path.is_file():
            raise ScenarioFormatError("<document>", f"{path} is not a regular file")
        size = path.stat().st_size
        if size <= _MAX_FILE_BYTES:
            with path.open("rb") as handle:
                # A read of n bytes allocates n first; a file that grew reads on.
                data = handle.read(size + 1)
                if len(data) > size:
                    data += handle.read(_MAX_FILE_BYTES - size)
            size = len(data)
    except OSError as exc:
        raise ScenarioFormatError("<document>", f"cannot be read: {exc}") from exc
    if size > _MAX_FILE_BYTES:
        raise ScenarioFormatError("<document>", f"{path} has {size} bytes, over {_MAX_FILE_BYTES}")
    return data


def read_document(path: str | Path) -> dict:
    """``decode_document`` of a regular file."""
    return decode_document(read_regular_file(path))


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
    vms = scenario.vms
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
            {"id": j, "compute_cap": c, "storage_cap": s}
            for j, (c, s) in enumerate(zip(vms.compute_caps, vms.storage_caps), start=1)
        ],
    }
    for entry, hosted in zip(doc["vms"], vms.hosted):
        if hosted is not None:  # written only when set, so other files keep their bytes
            entry["hosted"] = hosted
    if scenario.params is not None:
        doc["params"] = {
            "num_vms": scenario.params.num_vms,
            "req_range": list(scenario.params.req_range),
            "cap_range": list(scenario.params.cap_range),
        }
    if scenario.pms:
        fields = _ENTRY_FIELDS[PhysicalMachine]
        doc["pms"] = [{name: getattr(p, name) for name in fields} for p in scenario.pms]
    if scenario.placement is not None:
        doc["placement"] = {
            "x": scenario.placement.matrix.tolist(),
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
_ROWS = FieldKind(  # by type: decoded JSON holds no subclass of list, nor of int but bool
    lambda v: LIST.valid(v) and set(map(type, v)) <= {list}
    and set(map(type, chain.from_iterable(v))) <= {int},
    "must be a list of lists of integers",
)
_FLAGS = FieldKind(
    lambda v: LIST.valid(v) and all(map(BOOLEAN.valid, v)), "must be a list of booleans"
)
HOSTED = FieldKind(
    lambda v: INTEGER.valid(v) and 1 <= v <= NUM_COMPONENTS,
    f"must be a component id, an integer in 1..{NUM_COMPONENTS}",
)
# The fields of a list entry, each with the kind its value is read as, in
# reading order; a component's ``kind`` is read before them.
_MACHINE_FIELDS = {"id": INTEGER, "compute_cap": AMOUNT, "storage_cap": AMOUNT}
_ENTRY_FIELDS = {
    VnfComponent: {"id": INTEGER, "compute_req": AMOUNT, "storage_req": AMOUNT},
    VirtualMachine: {**_MACHINE_FIELDS, "hosted": HOSTED},
    PhysicalMachine: {**_MACHINE_FIELDS, "max_vm_count": INTEGER, "active": BOOLEAN},
}


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
        components.append(_read_entry(VnfComponent, raw, path, kind=kind))
    subnet = SliceSubnet(tuple(components))

    vms = _read_vms(require(doc, "vms", kind=LIST))

    pms = tuple(
        _read_entry(PhysicalMachine, raw, f"pms[{idx}].")
        for idx, raw in enumerate(require(doc, "pms", kind=LIST, default=[]))
    )

    placement = None
    raw_placement = require(doc, "placement", default=None)
    if raw_placement is not None:
        placement = VmPlacement(
            x=require(raw_placement, "x", "placement.", _ROWS),
            pm_active=require(raw_placement, "pm_active", "placement.", _FLAGS),
        )
    return Scenario(subnet=subnet, vms=vms, seed=seed, params=params, pms=pms, placement=placement)


def _read_vms(raw_vms: list) -> Sequence[VirtualMachine]:
    """The machines of a ``vms`` list as an ``Inventory``. An entry with no
    ``hosted`` key, whose ``id`` is its position (1..m) and whose capacities
    are ``AMOUNT``s above 0 is taken as it is; any other is read by
    ``_read_entry``, so a refusal names its first offending field.
    ``hosted``, the component a machine already hosts, is optional. When the
    ids are not 1..m in order, the machines come back as a tuple, for the
    ``Scenario`` to refuse once the rest of the document is read."""
    compute, storage, hosted = [], [], [None] * len(raw_vms)
    in_order = True
    for idx, raw in enumerate(raw_vms):
        if type(raw) is dict:
            vm_id, c, s = raw.get("id"), raw.get("compute_cap"), raw.get("storage_cap")
            if (
                type(vm_id) is int
                and vm_id == idx + 1
                and AMOUNT.valid(c)
                and AMOUNT.valid(s)
                and c > 0
                and s > 0
                and "hosted" not in raw
            ):
                compute.append(c)
                storage.append(s)
                continue
        vm = _read_entry(VirtualMachine, raw, f"vms[{idx}].")
        in_order = in_order and vm.id == idx + 1
        compute.append(vm.compute_cap)
        storage.append(vm.storage_cap)
        hosted[idx] = vm.hosted
    if not in_order:
        return tuple(
            _read_entry(VirtualMachine, raw, f"vms[{idx}].") for idx, raw in enumerate(raw_vms)
        )
    # A hosted component id is 1..8, never 0.
    return Inventory(compute, storage, hosted if any(hosted) else None)


def _read_entry(cls: type, raw: dict, path: str, **given: Any) -> Any:
    """A ``cls`` of the list entry ``raw`` at ``path`` and the fields ``given``,
    its other fields read in ``_ENTRY_FIELDS`` order; an absent one takes the
    dataclass default, or is refused as required when there is none."""
    for name, kind in _ENTRY_FIELDS[cls].items():
        given[name] = require(raw, name, path, kind, cls.__dataclass_fields__[name].default)
    return cls(**given)


def save(scenario: Scenario, path: str | Path) -> None:
    """Write ``scenario`` as a file; one its reader would refuse raises the
    reader's ``ScenarioFormatError`` and writes nothing."""
    doc = scenario_to_dict(scenario)
    scenario_from_dict(doc, validate_placement=False)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load(path: str | Path, validate_placement: bool = True) -> Scenario:
    return scenario_from_dict(read_document(path), validate_placement=validate_placement)
