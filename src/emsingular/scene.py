"""Scene documents: parsing, strict validation, overrides, hashing.

A scene is a YAML mapping with `schema: 1`.  Validation is strict:
unknown keys are errors, reported with their full dotted path, because
a silently ignored typo in a physics config is worse than a loud
failure.  Validation also normalizes (fills documented defaults), so
downstream code never guesses.

Top-level keys:

    schema: 1                      required, literal 1
    medium: {eps, mu}              optional, SI vacuum by default
    quadrature: {abs_tol, rel_tol, max_subdivisions}   optional
    fd_step: float                 optional; default (rel_tol)^(1/3)*scale;
                                   sets the on_support radius, 3 fd_step,
                                   and the step at which a loop, helix,
                                   sheet or polyline differences its own
                                   a for residual (b and e take no step)
    sources: [...]                 required, at least one
    grid: {x, y, z, time}          required; each axis {start, stop, count}
                                   or a bare number (count 1)
    outputs: [a, phi, b, e, residual]   required, nonempty

Source types and their keys:

    loop:         radius, current, center_z?
    helix:        radius, pitch, length, current, sigma0?
    solenoid:     radius, pitch, length, kappa0
    plate_wire:   z0, lambda, gap
    point_charge: q, position, velocity?
    dipole:       position, moment
    polyline:     points, current, closed?
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import yaml

from .errors import SceneError
from .fields.medium import VACUUM, MediumConstants
from .quad import QuadConfig

SCHEMA_VERSION = 1

OUTPUT_NAMES = ("a", "phi", "b", "e", "residual")

_MEDIUM_DEFAULTS = {"eps": VACUUM.eps, "mu": VACUUM.mu}
_QUAD_DEFAULTS = {"abs_tol": 1e-12, "rel_tol": 1e-9, "max_subdivisions": 2000}

_SOURCE_KEYS = {
    "loop": {"required": ("radius", "current"),
             "optional": {"center_z": 0.0}},
    "helix": {"required": ("radius", "pitch", "length", "current"),
              "optional": {"sigma0": 0.0}},
    "solenoid": {"required": ("radius", "pitch", "length", "kappa0"),
                 "optional": {}},
    "plate_wire": {"required": ("z0", "lambda", "gap"), "optional": {}},
    "point_charge": {"required": ("q", "position"),
                     "optional": {"velocity": [0.0, 0.0, 0.0]}},
    "dipole": {"required": ("position", "moment"), "optional": {}},
    "polyline": {"required": ("points", "current"),
                 "optional": {"closed": False}},
}


@dataclass(frozen=True)
class Scene:
    """Validated, normalized scene plus its content hash."""

    data: dict
    scene_hash: str

    @property
    def medium(self) -> MediumConstants:
        m = self.data["medium"]
        return MediumConstants.from_eps_mu(m["eps"], m["mu"])

    @property
    def quad_config(self) -> QuadConfig:
        q = self.data["quadrature"]
        return QuadConfig(abs_tol=q["abs_tol"], rel_tol=q["rel_tol"],
                          max_subdivisions=q["max_subdivisions"])

    @property
    def sources(self) -> list:
        return self.data["sources"]

    @property
    def outputs(self) -> list:
        return self.data["outputs"]

    def fd_step(self, point_norm: float) -> float:
        explicit = self.data.get("fd_step")
        if explicit is not None:
            return explicit
        rel = self.data["quadrature"]["rel_tol"]
        return rel ** (1.0 / 3.0) * max(1.0, point_norm)

    def grid_points(self) -> list:
        """Row coordinates in deterministic order: time outermost, then
        z, then y, with x varying fastest.  Entries are (x, y, z) or
        (x, y, z, t)."""
        g = self.data["grid"]
        xs = _axis_values(g["x"])
        ys = _axis_values(g["y"])
        zs = _axis_values(g["z"])
        ts = _axis_values(g["time"]) if g.get("time") is not None else None
        rows = []
        if ts is None:
            for z in zs:
                for yv in ys:
                    for x in xs:
                        rows.append((x, yv, z))
        else:
            for t in ts:
                for z in zs:
                    for yv in ys:
                        for x in xs:
                            rows.append((x, yv, z, t))
        return rows

    @property
    def timed(self) -> bool:
        return self.data["grid"].get("time") is not None


def _axis_values(axis: dict) -> list:
    n = axis["count"]
    if n == 1:
        return [axis["start"]]
    step = (axis["stop"] - axis["start"]) / (n - 1)
    return [axis["start"] + k * step for k in range(n)]


# ---------------------------------------------------------------------------
# loading


_EXPONENT_FLOAT = re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


def _scene_loader(base: type) -> type:
    """`base` plus a resolver that reads YAML 1.2 floats with an
    exponent, such as 3.0e7 or 1e-9.

    Under YAML 1.1 a float needs a dot and a signed exponent, so PyYAML
    reads those as strings.  The added resolver comes after the built-in
    ones, so every scalar they resolve keeps its type and value."""
    class Loader(base):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    return Loader


# libyaml's parser where PyYAML was built with it; the resolver and the
# constructor are the same Python code either way
_SceneLoader = _scene_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _load_yaml(stream):
    return yaml.load(stream, Loader=_SceneLoader)


def load_scene(path: str, overrides: list[str] | None = None) -> Scene:
    """Read, validate, normalize, apply --set overrides, validate again,
    hash.  Overrides address the normalized scene, so they reach keys
    that the file leaves to their defaults."""
    try:
        with open(path) as fh:
            raw = _load_yaml(fh)
    except OSError as exc:
        raise SceneError("cannot read scene file: %s" % exc) from exc
    except yaml.YAMLError as exc:
        raise SceneError("scene file is not valid YAML: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise SceneError("scene document must be a mapping")
    data = validate_scene(raw)
    if overrides:
        for ov in overrides:
            data = apply_override(data, ov)
        data = validate_scene(data)
    return Scene(data, scene_hash(data))


def scene_hash(normalized: dict) -> str:
    canon = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def apply_override(raw: dict, assignment: str) -> dict:
    """Apply one dotted-path override, e.g. sources.0.current=2.5.

    The value side is parsed as YAML, so numbers, booleans, and lists
    all work.  Paths must address existing structure; lists are indexed
    by integer tokens."""
    if "=" not in assignment:
        raise SceneError("override %r is not of the form path=value"
                         % assignment)
    path, _, text = assignment.partition("=")
    tokens = path.strip().split(".")
    if not all(tokens):
        raise SceneError("override path %r has an empty component" % path)
    try:
        value = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise SceneError("override value %r is not valid YAML: %s"
                         % (text, exc)) from exc
    node = raw
    for i, tok in enumerate(tokens[:-1]):
        node = _descend(node, tok, ".".join(tokens[: i + 1]))
    last = tokens[-1]
    if isinstance(node, list):
        idx = _list_index(node, last, path)
        node[idx] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise SceneError("override path %r addresses a scalar" % path)
    return raw


def _descend(node, tok: str, sofar: str):
    if isinstance(node, list):
        return node[_list_index(node, tok, sofar)]
    if isinstance(node, dict):
        if tok not in node:
            raise SceneError("override path %r not found in scene" % sofar)
        return node[tok]
    raise SceneError("override path %r descends into a scalar" % sofar)


def _list_index(node: list, tok: str, where: str) -> int:
    try:
        idx = int(tok)
    except ValueError:
        raise SceneError("override path %r indexes a list with %r"
                         % (where, tok)) from None
    if not (0 <= idx < len(node)):
        raise SceneError("override index %d out of range at %r (length %d)"
                         % (idx, where, len(node)))
    return idx


# ---------------------------------------------------------------------------
# validation


def validate_scene(raw: dict) -> dict:
    """Strict-validate and normalize a raw scene mapping.

    Raises SceneError naming the offending key path.  Returns a fresh
    normalized dict with defaults filled in."""
    _check_keys(raw, ("schema", "medium", "quadrature", "fd_step",
                      "sources", "grid", "outputs"), "")
    if raw.get("schema") != SCHEMA_VERSION:
        raise SceneError("schema: expected the literal %d, got %r"
                         % (SCHEMA_VERSION, raw.get("schema")))

    out: dict = {"schema": SCHEMA_VERSION}
    out["medium"] = _validate_block(raw.get("medium"), _MEDIUM_DEFAULTS,
                                    "medium")
    for key in ("eps", "mu"):
        if out["medium"][key] <= 0.0:
            raise SceneError("medium.%s must be positive" % key)
    out["quadrature"] = _validate_block(raw.get("quadrature"),
                                        _QUAD_DEFAULTS, "quadrature")
    q = out["quadrature"]
    if q["abs_tol"] <= 0.0 or q["rel_tol"] <= 0.0:
        raise SceneError("quadrature tolerances must be positive")
    n = q["max_subdivisions"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SceneError("quadrature.max_subdivisions: need an integer >= 1, "
                         "got %r" % (n,))

    fd = raw.get("fd_step")
    if fd is not None:
        fd = _number(fd, "fd_step")
        if fd <= 0.0:
            raise SceneError("fd_step must be positive")
    out["fd_step"] = fd

    medium = MediumConstants.from_eps_mu(out["medium"]["eps"],
                                         out["medium"]["mu"])
    srcs = raw.get("sources")
    if not isinstance(srcs, list) or not srcs:
        raise SceneError("sources: need a nonempty list")
    out["sources"] = [_validate_source(s, i, medium)
                      for i, s in enumerate(srcs)]

    out["grid"] = _validate_grid(raw.get("grid"))
    out["outputs"] = _validate_outputs(raw.get("outputs"))
    return out


def _validate_source(s, i: int, medium: MediumConstants) -> dict:
    where = "sources[%d]" % i
    if not isinstance(s, dict):
        raise SceneError("%s: must be a mapping" % where)
    kind = s.get("type")
    if kind not in _SOURCE_KEYS:
        raise SceneError("%s.type: expected one of %s, got %r"
                         % (where, "/".join(sorted(_SOURCE_KEYS)), kind))
    spec = _SOURCE_KEYS[kind]
    allowed = ("type",) + spec["required"] + tuple(spec["optional"])
    _check_keys(s, allowed, where)
    out = {"type": kind}
    for key in spec["required"]:
        if key not in s:
            raise SceneError("%s.%s: required for type %s"
                             % (where, key, kind))
        out[key] = _source_value(s[key], "%s.%s" % (where, key))
    for key, default in spec["optional"].items():
        if key not in s:
            out[key] = default
        elif isinstance(default, bool):
            out[key] = s[key]      # checked per type below
        else:
            out[key] = _source_value(s[key], "%s.%s" % (where, key))

    # per-type physical constraints
    if kind in ("loop", "helix", "solenoid") and out["radius"] <= 0.0:
        raise SceneError("%s.radius must be positive" % where)
    if kind == "helix" and not (0.0 < out["pitch"] < 1.0):
        raise SceneError("%s.pitch: axial fraction must satisfy "
                         "0 < p < 1 (unit tangent splits as p^2 + "
                         "(radius P)^2 = 1)" % where)
    if kind == "solenoid" and not (0.0 <= out["pitch"] < 1.0):
        raise SceneError("%s.pitch: axial fraction must satisfy "
                         "0 <= p < 1" % where)
    if kind in ("helix", "solenoid") and out["length"] <= 0.0:
        raise SceneError("%s.length must be positive" % where)
    if kind == "plate_wire":
        if out["gap"] <= 0.0:
            raise SceneError("%s.gap must be positive" % where)
        if not (0.0 < out["z0"] < out["gap"]):
            raise SceneError("%s.z0 must lie strictly between the plates "
                             "(0, gap)" % where)
    if kind == "point_charge":
        out["position"] = _triple(out["position"], "%s.position" % where)
        out["velocity"] = _triple(out["velocity"], "%s.velocity" % where)
        speed = math.sqrt(sum(v * v for v in out["velocity"]))
        if speed >= medium.c:
            raise SceneError("%s.velocity: speed %g is not below the "
                             "medium wave speed %g" % (where, speed,
                                                       medium.c))
    if kind == "dipole":
        out["position"] = _triple(out["position"], "%s.position" % where)
        out["moment"] = _triple(out["moment"], "%s.moment" % where)
    if kind == "polyline":
        pts = out["points"]
        if not isinstance(pts, list) or len(pts) < 2:
            raise SceneError("%s.points: need at least two points" % where)
        out["points"] = [_triple(p, "%s.points[%d]" % (where, j))
                         for j, p in enumerate(pts)]
        if not isinstance(out["closed"], bool):
            raise SceneError("%s.closed must be a boolean" % where)
    return out


def _validate_grid(g) -> dict:
    if not isinstance(g, dict):
        raise SceneError("grid: must be a mapping with axes x, y, z")
    _check_keys(g, ("x", "y", "z", "time"), "grid")
    out = {}
    for ax in ("x", "y", "z"):
        out[ax] = _validate_axis(g.get(ax, 0.0), "grid.%s" % ax)
    out["time"] = (_validate_axis(g["time"], "grid.time")
                   if g.get("time") is not None else None)
    return out


def _validate_axis(a, where: str) -> dict:
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        return {"start": float(a), "stop": float(a), "count": 1}
    if not isinstance(a, dict):
        raise SceneError("%s: expected a number or {start, stop, count}"
                         % where)
    _check_keys(a, ("start", "stop", "count"), where)
    for key in ("start", "stop", "count"):
        if key not in a:
            raise SceneError("%s.%s: required" % (where, key))
    start = _number(a["start"], where + ".start")
    stop = _number(a["stop"], where + ".stop")
    count = a["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise SceneError("%s.count: need an integer >= 1, got %r"
                         % (where, count))
    if count > 1 and stop == start:
        raise SceneError("%s: count > 1 with stop == start" % where)
    if count > 1 and not math.isfinite(stop - start):
        raise SceneError("%s: stop - start overflows" % where)
    return {"start": start, "stop": stop, "count": count}


def _validate_outputs(outs) -> list:
    if not isinstance(outs, list) or not outs:
        raise SceneError("outputs: need a nonempty list drawn from %s"
                         % ", ".join(OUTPUT_NAMES))
    seen = []
    for o in outs:
        if o not in OUTPUT_NAMES:
            raise SceneError("outputs: unknown quantity %r (valid: %s)"
                             % (o, ", ".join(OUTPUT_NAMES)))
        if o in seen:
            raise SceneError("outputs: %r listed twice" % o)
        seen.append(o)
    return seen


def _validate_block(block, defaults: dict, where: str) -> dict:
    if block is None:
        return dict(defaults)
    if not isinstance(block, dict):
        raise SceneError("%s: must be a mapping" % where)
    _check_keys(block, tuple(defaults), where)
    out = dict(defaults)
    for key, val in block.items():
        out[key] = val if key == "max_subdivisions" else _number(
            val, "%s.%s" % (where, key))
    return out


def _check_keys(d: dict, allowed: tuple, where: str) -> None:
    for key in d:
        if key not in allowed:
            path = "%s.%s" % (where, key) if where else str(key)
            raise SceneError("unknown key %r (allowed here: %s)"
                             % (path, ", ".join(allowed)))


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SceneError("%s: expected a number, got %r" % (where, v))
    if not math.isfinite(v):
        raise SceneError("%s: must be finite" % where)
    return float(v)


def _source_value(v, where: str):
    if isinstance(v, list):
        return v
    return _number(v, where)


def _triple(v, where: str) -> list:
    if not isinstance(v, list) or len(v) != 3:
        raise SceneError("%s: expected [x, y, z]" % where)
    return [_number(c, "%s[%d]" % (where, k)) for k, c in enumerate(v)]
