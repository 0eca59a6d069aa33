"""Run configuration: JSON document parsing, validation, serialization.

A RunConfig holds one run's domain objects in SI units (GridSpec,
SchemeConfig with its PhysicalParams, GaussianPacketSpec, and BarrierSpec
or None for free space) and the run and stability settings; the document's
units (dx_angstrom, height_ev, ...) appear only in parse_config and
to_document.  Parsing checks every key against one schema table: numbers
must be finite, unknown keys are rejected, and each error names its
section.key.  Minimal 2-D example (omit potential for free space):

    {
      "grid":      {"dims": 2, "nx": 200, "ny": 200, "dx_angstrom": 0.1},
      "scheme":    {"N": 2, "stencil_order": 2, "mu": 0.25},
      "init":      {"sigma_angstrom": 1.0, "lambda_angstrom": 1.0,
                    "center_j": 50, "center_k": 50},
      "potential": {"type": "quadrant_barrier", "height_ev": 100.0,
                    "j_min": 101, "k_min": 101},
      "run":       {"steps": 500, "snapshot_every": 100, "out_dir": "out"}
    }
"""

import json
import operator
import sys
from dataclasses import dataclass

from .errors import ConfigurationError
from .fields import ANGSTROM, ELECTRON_MASS, EV, HBAR, GridSpec, PhysicalParams
from .scenarios import BarrierSpec, GaussianPacketSpec
from .scheme import MAX_TRUNCATION_INDEX, SchemeConfig
from .stability import DEFAULT_THRESHOLD
from .stencils import StencilOrder


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    scheme: SchemeConfig
    packet: GaussianPacketSpec
    barrier: BarrierSpec | None
    steps: int
    snapshot_every: int
    out_dir: str
    full_field_dumps: bool
    c: float

    def to_document(self):
        grid, scheme, packet, barrier = self.grid, self.scheme, self.packet, self.barrier
        doc = {
            "grid": {"dims": grid.dims, "nx": grid.nx, "ny": grid.ny,
                     "dx_angstrom": grid.dx / ANGSTROM},
            "physics": {"mass_kg": scheme.physics.mass, "hbar": scheme.physics.hbar},
            "scheme": {"N": scheme.N, "stencil_order": scheme.order.value, "mu": scheme.mu},
            "init": {"sigma_angstrom": packet.sigma / ANGSTROM,
                     "lambda_angstrom": packet.wavelength / ANGSTROM,
                     "center_j": packet.center_j, "center_k": packet.center_k,
                     "normalize": packet.normalize},
            "run": {"steps": self.steps, "snapshot_every": self.snapshot_every,
                    "out_dir": self.out_dir, "full_field_dumps": self.full_field_dumps},
            "stability": {"c": self.c},
        }
        if barrier is not None:
            doc["potential"] = {"type": "quadrant_barrier", "height_ev": barrier.height / EV,
                                "j_min": barrier.j_min, "k_min": barrier.k_min}
        # the second axis's keys are None in 1-D, where they must not appear
        return {name: {key: value for key, value in section.items() if value is not None}
                for name, section in doc.items()}

    def to_text(self):
        return json.dumps(self.to_document(), indent=2)


_REQUIRED = object()   # default column: the key must be given
_IF_2D = object()      # required in 2-D, not allowed in 1-D

# section -> rows of (key, type, bounds, default).  A bound is (operator,
# limit); a string limit names an earlier "section.key" whose value it is.
_SCHEMA = {
    "grid": (("dims", int, (("in", (1, 2)),), _REQUIRED),
             ("nx", int, ((">=", 5),), _REQUIRED),
             ("ny", int, ((">=", 5),), _IF_2D),
             ("dx_angstrom", float, ((">", 0),), _REQUIRED)),
    "physics": (("mass_kg", float, ((">", 0),), ELECTRON_MASS),
                ("hbar", float, ((">", 0),), HBAR)),
    "scheme": (("N", int, ((">=", 0), ("<=", MAX_TRUNCATION_INDEX)), _REQUIRED),
               ("stencil_order", int, (("in", (2, 4)),), _REQUIRED),
               ("mu", float, ((">", 0),), _REQUIRED)),
    "init": (("sigma_angstrom", float, ((">", 0),), _REQUIRED),
             ("lambda_angstrom", float, ((">", 0),), _REQUIRED),
             ("center_j", int, ((">=", 1), ("<=", "grid.nx")), _REQUIRED),
             ("center_k", int, ((">=", 1), ("<=", "grid.ny")), _IF_2D),
             ("normalize", bool, (), True)),
    "potential": (("type", str, (("in", ("quadrant_barrier",)),), _REQUIRED),
                  ("height_ev", float, ((">=", 0),), _REQUIRED),
                  ("j_min", int, ((">=", 1), ("<=", "grid.nx")), _REQUIRED),
                  ("k_min", int, ((">=", 1), ("<=", "grid.ny")), _IF_2D)),
    "run": (("steps", int, ((">=", 0),), _REQUIRED),
            ("snapshot_every", int, ((">=", 0),), _REQUIRED),
            ("out_dir", str, (), _REQUIRED),
            ("full_field_dumps", bool, (), False)),
    "stability": (("c", float, ((">", 0), ("<", 1)), DEFAULT_THRESHOLD),
                  ("scan_samples", int, ((">=", 64),), 256)),   # old configs; unused
}
# derived once: each section's rows by key, with the row's "section.key" name
_ROWS = {section: {key: (f"{section}.{key}", *row) for key, *row in rows}
         for section, rows in _SCHEMA.items()}
_OPERATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
              "<=": operator.le, "in": lambda value, choices: value in choices}
# what each type column accepts from JSON, and its name in messages
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          bool: (bool, "a boolean"), str: (str, "a string")}


def _typed(name, raw, kind):
    """raw as a kind; a bool is no number, and a number must be finite."""
    accepts, kind_name = _KINDS[kind]
    if isinstance(raw, bool) != (kind is bool) or not isinstance(raw, accepts):
        raise ConfigurationError(f"{name} must be {kind_name}, got {raw!r}")
    # exact comparisons, false for NaN, +-inf and ints beyond the float range
    if kind is float and not -sys.float_info.max <= raw <= sys.float_info.max:
        raise ConfigurationError(f"{name} must be a finite number")
    return float(raw) if kind is float else raw


def _apply_schema(doc):
    """Every section's checked values and defaults, keyed "section.key"."""
    for name in sorted(doc.keys() | {"grid", "scheme", "init", "run"}):
        if name not in _SCHEMA:
            raise ConfigurationError(f"unknown section {name}")
        if name not in doc:
            raise ConfigurationError(f"missing required section {name}")
        if not isinstance(doc[name], dict):
            raise ConfigurationError(f"section {name} must be a JSON object")
    values = {}
    for section, rows in _ROWS.items():
        if section == "potential" and section not in doc:
            continue
        data = doc.get(section, {})
        unknown = data.keys() - rows.keys()
        if unknown:
            raise ConfigurationError(f"unknown key {section}.{min(unknown)}")
        for key, (name, kind, bounds, default) in rows.items():
            if default is _IF_2D and values["grid.dims"] == 1:
                if key in data:
                    raise ConfigurationError(f"{name} is not allowed in 1-D")
                values[name] = None
            elif key not in data:
                if default in (_REQUIRED, _IF_2D):
                    raise ConfigurationError(f"missing required key {name}")
                values[name] = default
            else:
                value = values[name] = _typed(name, data[key], kind)
                for op, limit in bounds:
                    bound = values[limit] if isinstance(limit, str) else limit
                    if not _OPERATORS[op](value, bound):
                        raise ConfigurationError(
                            f"{name} must be {op} {limit}, got {value!r}")
    return values


def _metres(values, name):
    """A positive length in angstrom, in m; one that underflows to 0 m fails."""
    metres = values[name] * ANGSTROM
    if metres == 0:
        raise ConfigurationError(f"{name} {values[name]!r} is 0 m in floats")
    return metres


def parse_config(text):
    """Parse and validate a JSON config document into a RunConfig."""
    try:
        doc = json.loads(text)
    except ValueError as exc:   # also an integer literal beyond int's digit limit
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    v = _apply_schema(doc)
    dims, dx = v["grid.dims"], _metres(v, "grid.dx_angstrom")
    try:
        grid = GridSpec(dims, v["grid.nx"], dx, v["grid.ny"], dx if dims == 2 else None)
    except ConfigurationError as exc:   # only 1/dx^2 can fail once the schema passed
        raise ConfigurationError(f"grid.dx_angstrom: {exc}") from exc
    try:
        physics = PhysicalParams(v["physics.mass_kg"], v["physics.hbar"])
    except ConfigurationError as exc:   # only 1/hbar can fail once the schema passed
        raise ConfigurationError(f"physics.hbar: {exc}") from exc
    try:
        scheme = SchemeConfig.from_mu(v["scheme.N"], StencilOrder(v["scheme.stencil_order"]),
                                      v["scheme.mu"], physics, grid)
    except ConfigurationError as exc:   # only dt can fail once the schema passed
        raise ConfigurationError(
            f"{exc}: dt = 2 scheme.mu physics.mass_kg grid.dx_angstrom^2 / physics.hbar"
        ) from exc
    packet = GaussianPacketSpec(_metres(v, "init.sigma_angstrom"),
                                _metres(v, "init.lambda_angstrom"), v["init.center_j"],
                                v["init.center_k"], v["init.normalize"])
    barrier = BarrierSpec(v["potential.j_min"], v["potential.k_min"],
                          v["potential.height_ev"] * EV) if "potential" in doc else None
    return RunConfig(grid, scheme, packet, barrier, v["run.steps"], v["run.snapshot_every"],
                     v["run.out_dir"], v["run.full_field_dumps"], v["stability.c"])
