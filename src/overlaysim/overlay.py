"""Overlay containers: IP registration, command interfaces, manifests, enqueue.

An overlay bundles a set of IP kernels, one command queue per kernel, and
(when any kernel needs it) a feature buffer.  Building an overlay persists a
JSON manifest that stands in for a compiled bitstream; loading a manifest
rebinds kernels by name from the registry below.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

from . import kernels
from .errors import ConfigurationError, InvocationError, ParseError
from .kernels import FeatureBuffer
from .runtime import TaskInstance
from .tensors import BlockView, read_text

PARAM_KINDS = ("view", "scalar", "flag")


@dataclass(frozen=True)
class IpDescriptor:
    """A kernel bound to a parameter signature, with access and work estimators.

    run executes the kernel on the bound arguments and returns the kernel's
    own floating-point-operation estimate, which sets virtual trace times.
    access_sets derives the element footprints a task with these arguments
    will touch, including the feature buffer when flags route I/O there.
    layout holds the positions of the views, of the flags and of the scalars
    in the signature, the positions enqueue checks.
    """

    name: str
    signature: tuple[str, ...]
    run: Callable
    access_sets: Callable
    uses_feature_buffer: bool = False
    layout: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = {kind: [] for kind in PARAM_KINDS}
        for pos, kind in enumerate(self.signature):
            if kind not in positions:
                raise ConfigurationError(f"{self.name}: unknown parameter kind {kind!r}")
            positions[kind].append(pos)
        object.__setattr__(self, "layout", tuple(
            tuple(positions[kind]) for kind in ("view", "flag", "scalar")))


@dataclass(frozen=True)
class CommandInterface:
    queue_no: int
    ip: IpDescriptor


def command(ip: IpDescriptor, queue_no: int) -> CommandInterface:
    """Bind an IP to a command queue number.

    Queue number collisions are caught at overlay construction, and a
    manifest's declared signature is checked against the IP's by
    load_overlay.
    """
    if queue_no < 0:
        raise ConfigurationError(f"queue number must be >= 0, got {queue_no}")
    return CommandInterface(queue_no, ip)


class Overlay:
    """A named set of command interfaces, one per queue, plus the feature
    buffer when any kernel uses one; enqueue() numbers the tasks."""

    def __init__(self, name: str, interfaces):
        interfaces = list(interfaces)
        if not interfaces:
            raise ConfigurationError("an overlay needs at least one interface")
        queue_nos = sorted(ci.queue_no for ci in interfaces)
        if len(set(queue_nos)) != len(queue_nos):
            raise ConfigurationError(f"duplicate queue numbers: {queue_nos}")
        if queue_nos != list(range(len(queue_nos))):
            raise ConfigurationError(
                f"queue numbers must be contiguous from 0, got {queue_nos}"
            )
        self.name = name
        self.interfaces = {ci.queue_no: ci for ci in interfaces}
        needs_fb = any(ci.ip.uses_feature_buffer for ci in interfaces)
        self.feature_buffer: FeatureBuffer | None = FeatureBuffer() if needs_fb else None
        self._task_ids = itertools.count()

    def interface(self, queue_no: int) -> CommandInterface:
        try:
            return self.interfaces[queue_no]
        except KeyError:
            raise InvocationError(f"overlay {self.name!r} has no queue {queue_no}") from None

    def enqueue(self, queue_no: int, params, iteration: int,
                kind: str | None = None) -> TaskInstance:
        """Append one command to a queue; returns the task for rule declaration.

        Nothing executes here: the task graph and scheduler decide ordering
        later.  Parameters are checked against the interface signature now so
        a bad call fails at enqueue time (the views first, then the flags,
        then the scalars), and the iteration and kind must be an int and a
        string, the types a trace file carries.  A scalar is any real number
        but a bool, and is stored as a Python float, so a numpy scalar cannot
        promote a kernel's arithmetic past the operands' dtype: every scalar
        of the same value gives the same bits.
        """
        ip = self.interface(queue_no).ip
        views, flags, scalars = ip.layout
        params = tuple(params)
        if len(params) != len(ip.signature):
            raise InvocationError(
                f"{ip.name}: expected {len(ip.signature)} parameters, got {len(params)}"
            )
        for pos in views:
            if not isinstance(params[pos], BlockView):
                raise InvocationError(
                    f"{ip.name}: parameter {pos} must be a view, "
                    f"got {type(params[pos]).__name__}"
                )
        for pos in flags:
            if not isinstance(params[pos], bool):
                raise InvocationError(
                    f"{ip.name}: parameter {pos} must be a flag, got {params[pos]!r}"
                )
        if scalars:
            params = list(params)
            for pos in scalars:
                param = params[pos]
                if type(param) is float:
                    continue
                if isinstance(param, bool) or not isinstance(param, Real):
                    raise InvocationError(
                        f"{ip.name}: parameter {pos} must be a scalar, got {param!r}"
                    )
                try:
                    params[pos] = float(param)
                except OverflowError:
                    raise InvocationError(
                        f"{ip.name}: a scalar parameter does not fit in a float"
                    ) from None
            params = tuple(params)
        if type(iteration) is not int:
            raise InvocationError(f"{ip.name}: iteration must be an int, got {iteration!r}")
        if kind is None:
            kind = ip.name
        elif not isinstance(kind, str):
            raise InvocationError(f"{ip.name}: kind must be a string, got {kind!r}")
        # derived before the id is drawn: a call the kernel would reject
        # (a malformed panel raises ShapeError here) uses up no task id
        access_sets = tuple(ip.access_sets(params, self.feature_buffer))
        return TaskInstance(next(self._task_ids), kind, queue_no, iteration, params,
                            access_sets)

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "ips": [
                {"name": ci.ip.name, "queue": q, "signature": list(ci.ip.signature)}
                for q, ci in sorted(self.interfaces.items())
            ],
        }

    def save_manifest(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2)
            fh.write("\n")


def load_overlay(path) -> Overlay:
    """Rebuild an overlay from a manifest, rebinding kernels by name.

    Loading is idempotent: every load yields an equivalent overlay with the
    same queue map and a fresh task numbering.
    """
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON") from exc
    if (not isinstance(doc, dict) or not isinstance(doc.get("name"), str)
            or not isinstance(doc.get("ips"), list)):
        raise ParseError(f"{path}: manifest must have a string 'name' and a list 'ips'")
    interfaces = []
    for entry in doc["ips"]:
        # a JSON boolean is a Python int, so the queue's type is compared exactly
        if (not isinstance(entry, dict) or not {"name", "queue", "signature"} <= set(entry)
                or not isinstance(entry["name"], str) or type(entry["queue"]) is not int
                or not isinstance(entry["signature"], list)
                or not all(isinstance(kind, str) for kind in entry["signature"])):
            raise ParseError(
                f"{path}: malformed ip entry {entry!r}: expects a string 'name', "
                f"an integer 'queue' and a list of strings 'signature'")
        ip = IP_REGISTRY.get(entry["name"])
        if ip is None:
            raise ConfigurationError(
                f"{path}: no registered kernel named {entry['name']!r}"
            )
        if tuple(entry["signature"]) != ip.signature:
            raise ConfigurationError(
                f"{path}: manifest signature {entry['signature']} does not match "
                f"kernel {entry['name']}"
            )
        interfaces.append(command(ip, entry["queue"]))
    return Overlay(doc["name"], interfaces)


# --- kernel bindings --------------------------------------------------------
#
# Each binding unpacks a task's arguments, unsliced, into a function of
# kernels.py (the CNN kernels also get the feature buffer): run into the
# kernel, which returns its own flop estimate for virtual trace time, and
# access_sets into the kernel's X_access_sets, which derives the element
# ranges the kernel touches.  GEMM runs into gemm_update, since enqueue has
# passed its operands through gemm_access_sets' shape and alias checks.

IP_REGISTRY: dict[str, IpDescriptor] = {ip.name: ip for ip in (
    IpDescriptor("LU", ("view",), lambda args, fb: kernels.lu_factor_block(*args),
                 lambda args, fb: kernels.lu_factor_block_access_sets(*args)),
    IpDescriptor("TransformRowPanel", ("view",),
                 lambda args, fb: kernels.transform_row_panel(*args),
                 lambda args, fb: kernels.transform_row_panel_access_sets(*args)),
    IpDescriptor("TransformColumnPanel", ("view",),
                 lambda args, fb: kernels.transform_column_panel(*args),
                 lambda args, fb: kernels.transform_column_panel_access_sets(*args)),
    IpDescriptor("GEMM", ("view", "view", "view", "scalar", "scalar", "scalar"),
                 lambda args, fb: kernels.gemm_update(*args),
                 lambda args, fb: kernels.gemm_access_sets(*args)),
    IpDescriptor("Convolution", ("view", "view", "view", "flag", "flag", "flag", "flag"),
                 lambda args, fb: kernels.convolution(*args, fb),
                 lambda args, fb: kernels.convolution_access_sets(*args, fb),
                 uses_feature_buffer=True),
    IpDescriptor("Maxpool", ("view", "flag"), lambda args, fb: kernels.maxpool(*args, fb),
                 lambda args, fb: kernels.maxpool_access_sets(*args, fb),
                 uses_feature_buffer=True),
)}
