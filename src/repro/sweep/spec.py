"""Declarative parameter grids over :class:`repro.common.config.SimulationConfig`.

A :class:`SweepSpec` names the workloads and parameter axes of one experiment
campaign; :meth:`SweepSpec.points` expands the Cartesian product into a
deterministic, duplicate-free list of :class:`SweepPoint` objects.  Each point
is a flat, JSON-serialisable parameter mapping plus a content address
(:attr:`SweepPoint.point_id`), which is what makes results cacheable and
sweeps resumable: the same parameters always hash to the same id, on any
machine, in any process.

Parameter namespace
-------------------

======================  =====================================================
``workload``            Benchmark name (Table I spelling); always present.
``system``              ``"hardware"`` (task superscalar) or ``"software"``
                        (StarSs runtime baseline).
``num_cores``           Backend core count.
``scale_factor``        Problem-size multiplier (see ``EXPERIMENT_SCALES``).
``seed``                Trace-generator seed.
``max_tasks``           Optional trace truncation (``None`` = full trace).
``fast_generator``      Use the near-zero-cost task-generating thread.
``validate``            Check the schedule against the gold dependency graph.
``frontend.<field>``    Override one ``FrontendConfig`` field.
``backend.<field>``     Override one ``BackendConfig`` field.
``generator.<field>``   Override one ``TaskGeneratorConfig`` field.
``software.<field>``    Override one ``SoftwareRuntimeConfig`` field.
``topology.<field>``    Override one ``TopologyConfig`` field (frontend
                        count, shard/steal policy, capacity scale, forward
                        latency) -- topologies are first-class, cache-keyed
                        sweep axes.
``workload.<param>``    Pass one keyword argument to the workload generator
                        constructor (e.g. ``workload.dep_distance`` for the
                        synthetic families) -- structural knobs become sweep
                        axes just like hardware parameters.
======================  =====================================================

Axes whose values are dicts apply several parameters at once (a *linked*
axis), e.g. sweeping ORT and OVT capacity together::

    SweepSpec(
        name="ort-study",
        workloads=("Cholesky",),
        axes={
            "frontend.num_ort": (1, 2, 4, 8),
            "capacity": [{"frontend.total_ort_capacity_bytes": kb * 1024,
                          "frontend.total_ovt_capacity_bytes": kb * 1024}
                         for kb in (64, 256, 512)],
        },
        base={"fast_generator": True, "max_tasks": 600},
    )

Expansion order is deterministic: workloads vary slowest, then the axes in
declaration order (first axis outermost), matching the nested-loop order the
experiment drivers used before this subsystem existed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.common.config import SimulationConfig
from repro.common.errors import ConfigurationError
from repro.common.hashing import canonical_json, content_digest

#: Scalar parameter types a sweep point may carry.
ParamValue = Union[str, int, float, bool, None]

#: One axis value: either a scalar assigned to the axis name, or a dict of
#: parameter overrides applied together (linked axis).
AxisValue = Union[ParamValue, Mapping[str, ParamValue]]

#: Defaults every point starts from (overridden by ``base`` and the axes).
DEFAULT_PARAMS: Dict[str, ParamValue] = {
    "system": "hardware",
    "num_cores": 256,
    "scale_factor": 1.0,
    "seed": 0,
    "max_tasks": None,
    "fast_generator": False,
    "validate": False,
}

#: Config sections that accept dotted overrides.
OVERRIDE_SECTIONS = ("frontend", "backend", "generator", "software", "topology")

#: The fields each override section accepts: those of its config dataclass.
_SECTION_FIELDS = {
    section: frozenset(
        f.name for f in fields(getattr(SimulationConfig(), section)))
    for section in OVERRIDE_SECTIONS
}

#: Dotted section whose entries are forwarded to the workload generator
#: constructor rather than the simulation config.
WORKLOAD_SECTION = "workload"

_SYSTEMS = ("hardware", "software")


def _check_param_name(name: str) -> None:
    if name in DEFAULT_PARAMS or name == "workload":
        return
    if "." in name:
        section, fieldname = name.split(".", 1)
        if section == WORKLOAD_SECTION:
            return
        if section in OVERRIDE_SECTIONS:
            if fieldname in _SECTION_FIELDS[section]:
                return
            raise ConfigurationError(
                f"unknown sweep parameter {name!r}: the {section} config has "
                f"no field {fieldname!r}")
    raise ConfigurationError(
        f"unknown sweep parameter {name!r} (expected one of "
        f"{sorted(DEFAULT_PARAMS)} + 'workload' or a dotted "
        f"'{{{'|'.join(OVERRIDE_SECTIONS + (WORKLOAD_SECTION,))}}}.<field>' override)"
    )


def canonical_scalar(value: ParamValue) -> ParamValue:
    """Normalise one scalar parameter value to its hashing-canonical form.

    Execution coerces parameters per name (``seed`` through ``int``,
    ``scale_factor`` through ``float``, ...), so values that coerce to the
    same simulation must also hash to the same :attr:`SweepPoint.point_id`
    and trace digest -- otherwise a seed passed as ``"0"`` (e.g. through a
    JSON campaign file) creates a duplicate cache entry and a redundant
    trace bake for a point the cache already holds as ``0``.

    Numeric strings parse to numbers and integral floats collapse to ints
    (``"0"``, ``0.0`` and ``0`` all canonicalise to ``0``), mirroring
    :func:`repro.workloads.registry.canonical_spec`'s treatment of workload
    spec strings.  Booleans, ``None`` and non-numeric strings (including
    ``"nan"``/``"inf"``, which :func:`canonical_json` could not encode as
    numbers) pass through unchanged.
    """
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            value = int(text)
        except ValueError:
            try:
                parsed = float(text)
            except ValueError:
                return value
            if not math.isfinite(parsed):
                return value
            value = parsed
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _check_param_value(name: str, value: ParamValue) -> None:
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise ConfigurationError(
            f"sweep parameter {name!r} has non-scalar value {value!r}; "
            "axis dicts must map names to scalars"
        )
    if name == "system" and value not in _SYSTEMS:
        raise ConfigurationError(
            f"system must be one of {_SYSTEMS}, got {value!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified simulation in a sweep.

    ``params`` is a flat mapping from parameter name to scalar value (see the
    module docstring for the namespace); ``index`` is the point's position in
    the spec's expansion order.  Points are plain data and pickle cheaply, so
    they can cross process boundaries to worker pools.
    """

    index: int
    params: Tuple[Tuple[str, ParamValue], ...]

    @property
    def workload(self) -> str:
        """The point's benchmark name."""
        return self.as_dict()["workload"]

    def as_dict(self) -> Dict[str, ParamValue]:
        """The parameters as a plain dict (copy; mutating it is safe)."""
        return dict(self.params)

    @cached_property
    def point_id(self) -> str:
        """Content address of the parameters (hex; cache file name).

        Deliberately independent of :attr:`index` and of the spec the point
        came from: two specs that expand to the same parameters share cache
        entries.  Computed once per point: the runner, cache and journal
        each read it several times per point.
        """
        return content_digest(self.as_dict())

    def label(self) -> str:
        """Compact human-readable rendering of the non-default parameters."""
        parts = [self.workload]
        for name, value in self.params:
            if name == "workload" or DEFAULT_PARAMS.get(name) == value:
                continue
            parts.append(f"{name}={value}")
        return " ".join(parts)


@dataclass
class SweepSpec:
    """A named parameter grid over the simulated system.

    Attributes:
        name: Campaign name (used in artifact metadata and logs).
        workloads: Benchmarks to sweep; the outermost axis.
        axes: Mapping from axis name to its values, in sweep order.  Scalar
            values assign the axis name itself; dict values apply several
            parameters together (the axis name is then only a label).
        base: Non-swept parameter overrides applied to every point.
    """

    name: str
    workloads: Sequence[str]
    axes: Mapping[str, Sequence[AxisValue]] = field(default_factory=dict)
    base: Mapping[str, ParamValue] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on malformed specs."""
        if not self.name:
            raise ConfigurationError("sweep name must be non-empty")
        if not self.workloads:
            raise ConfigurationError("sweep must name at least one workload")
        for name, value in self.base.items():
            _check_param_name(name)
            _check_param_value(name, value)
        for axis, values in self.axes.items():
            if len(values) == 0:
                raise ConfigurationError(f"axis {axis!r} has no values")
            for value in values:
                if isinstance(value, Mapping):
                    if not value:
                        raise ConfigurationError(
                            f"axis {axis!r} has an empty dict value")
                    for name, scalar in value.items():
                        _check_param_name(name)
                        _check_param_value(name, scalar)
                else:
                    _check_param_name(axis)
                    _check_param_value(axis, value)

    @property
    def cardinality(self) -> int:
        """Number of points the spec expands to."""
        count = len(self.workloads)
        for values in self.axes.values():
            count *= len(values)
        return count

    def points(self) -> List[SweepPoint]:
        """Expand the grid deterministically into :class:`SweepPoint` s.

        Workloads vary slowest, then each axis in declaration order.  The
        expansion never produces two points with identical parameters unless
        the axes themselves repeat a value.
        """
        self.validate()
        expanded: List[SweepPoint] = []
        axis_names = list(self.axes)
        axis_values = [list(self.axes[name]) for name in axis_names]
        for workload in self.workloads:
            for combo in itertools.product(*axis_values):
                params = dict(DEFAULT_PARAMS)
                params.update(self.base)
                params["workload"] = workload
                for axis, value in zip(axis_names, combo):
                    if isinstance(value, Mapping):
                        params.update(value)
                    else:
                        params[axis] = value
                expanded.append(SweepPoint(
                    index=len(expanded),
                    # Canonicalise every scalar so equivalent spellings of
                    # one configuration ("0" vs 0, 4.0 vs 4) share a
                    # point_id, cache entry and trace bake.
                    params=tuple(sorted((name, canonical_scalar(value))
                                        for name, value in params.items())),
                ))
        return expanded

    def axis_parameter_names(self) -> set:
        """Every parameter name the axes can assign.

        Scalar axes assign their own name; linked (dict-valued) axes assign
        each of their keys.  Used to detect conflicts with externally
        supplied parameters (e.g. ``repro sweep --seed`` vs a ``seed`` axis,
        or a campaign's seed-ensemble axis vs a member spec's own).
        """
        names: set = set()
        for axis, values in self.axes.items():
            for value in values:
                if isinstance(value, Mapping):
                    names.update(value)
                else:
                    names.add(axis)
        return names

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        axes = ", ".join(f"{name}[{len(values)}]"
                         for name, values in self.axes.items())
        return (f"sweep {self.name!r}: {len(self.workloads)} workload(s) x "
                f"{{{axes}}} = {self.cardinality} points")


def spec_id_of(points: Sequence[SweepPoint]) -> str:
    """Content address of an expanded grid (the manifest and journal key)."""
    return content_digest([point.as_dict() for point in points])


def parse_axis_value(text: str) -> ParamValue:
    """Parse one CLI axis value: int, float, bool or bare string.

    Used by ``repro sweep --axis name=v1,v2``; ``"none"`` maps to ``None``.
    """
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip()


# Re-exported for convenience: spec hashing building blocks.
__all__ = [
    "AxisValue",
    "DEFAULT_PARAMS",
    "OVERRIDE_SECTIONS",
    "WORKLOAD_SECTION",
    "ParamValue",
    "SweepPoint",
    "SweepSpec",
    "canonical_json",
    "canonical_scalar",
    "parse_axis_value",
    "spec_id_of",
]
