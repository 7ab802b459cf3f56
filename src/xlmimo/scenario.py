"""Scenario presets and deterministic path-list construction.

A scenario configuration is a plain dict (itself YAML-serializable): a
uniform linear array, a frequency grid, element patterns, receiver
positions, and the propagation environment as reflecting planes and point
scatterers.  Path lists are built by image-source construction: the direct
path, one specular reflection per plane (via the receiver's mirror image),
and one scattered path per scatterer.  Amplitudes follow free-space
spreading over the traveled length, times a per-interaction loss; they are
illustrative calibrations, not material measurements.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np

from .errors import ConfigError, GeometryError
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Plane,
    angles_from_vector,
    mirror_point,
    reflect_direction,
)
from .channel import FrequencyGrid, VARIANTS
from .nearfield import AntennaPattern, PathRecord, Stationarity, WavefrontModel
from .sns import AAFStatParams

FORMAT_VERSION = 1

_DEGENERATE_DISTANCE = 1e-9


def _panel(point, normal, loss_db: float) -> dict:
    """A specular reflector whose path is non-stationary."""
    return {
        "point": point,
        "normal": normal,
        "loss_db": loss_db,
        "phase_rad": 0.0,
        "sns": True,
    }


def _case1(material: str, loss_db: float) -> dict:
    """Indoor reflector-panel layout: broadside receiver, one panel behind it."""
    return {
        "format_version": FORMAT_VERSION,
        "name": f"case1-{material}",
        "seed": 1,
        "variant": "nf-sns",
        "array": {
            "num_elements": 301,
            "spacing_m": 1.364e-3,
            "axis": [1.0, 0.0, 0.0],
            "origin": [0.0, 0.0, 0.0],
            "reference_index": 0,
        },
        "grid": {"f_low_hz": 90.0e9, "f_high_hz": 110.0e9, "num_points": 2001},
        "patterns": {
            "tx": {"kind": "omnidirectional", "gain_dbi": 5.0},
            "rx": {"kind": "omnidirectional", "gain_dbi": 5.0},
        },
        "ues": [[0.2, 0.645, 0.0]],
        "los": {"enabled": True, "sns": False},
        "reflectors": [_panel([0.0, 1.2, 0.0], [0.0, -1.0, 0.0], loss_db)],
        "scatterers": [],
        "aaf": {},
    }


def _case1_cylinder() -> dict:
    cfg = _case1("cylinder", 0.0)
    cfg["name"] = "case1-cylinder"
    cfg["reflectors"] = []
    cfg["scatterers"] = [
        {"position": [0.3, 0.9, 0.0], "loss_db": 12.0, "phase_rad": 0.0, "sns": True}
    ]
    return cfg


def _case2() -> dict:
    """Blocked direct path: the direct component itself is non-stationary."""
    cfg = _case1("concrete", 7.0)
    cfg["name"] = "case2"
    cfg["los"] = {"enabled": True, "sns": True}
    cfg["ues"] = [[0.25, 1.1, 0.0]]
    return cfg


def _case3(line_azimuth_rad: float = 0.8726646259971648) -> dict:
    """Multi-user pool on a radial line of increasing range (default 50 deg)."""
    offsets = [0.0, 0.5, 1.0, 1.5, 2.0, 2.8, 3.3, 3.8, 4.3, 4.8, 5.3, 5.8]
    direction = (math.cos(line_azimuth_rad), math.sin(line_azimuth_rad), 0.0)
    start = 1.5
    cfg = _case1("concrete", 12.0)
    cfg["name"] = "case3"
    cfg["ues"] = [[(start + off) * c for c in direction] for off in offsets]
    cfg["reflectors"] = [
        _panel([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 12.0),
        _panel([0.0, 6.05, 0.0], [0.0, -1.0, 0.0], 12.0),
    ]
    return cfg


def _case4() -> dict:
    """Directive-horn link at 132 GHz with a 531-element array."""
    rx = [0.3, 3.0, 0.0]
    norm = math.sqrt(rx[0] ** 2 + rx[1] ** 2)
    bs = [rx[0] / norm, rx[1] / norm, 0.0]
    cfg = _case1("concrete", 10.0)
    cfg["name"] = "case4"
    cfg["array"].update(num_elements=531, spacing_m=1.136e-3)
    cfg["grid"].update(f_low_hz=122.0e9, f_high_hz=142.0e9)
    cfg["patterns"] = {
        "tx": {
            "kind": "gaussian_lobe",
            "gain_dbi": 23.0,
            "boresight": bs,
            "hpbw_az_rad": math.radians(14.6),
            "hpbw_el_rad": math.radians(14.6),
        },
        "rx": {
            "kind": "gaussian_lobe",
            "gain_dbi": 25.1,
            "boresight": [-bs[0], -bs[1], 0.0],
            "hpbw_az_rad": math.radians(9.9),
            "hpbw_el_rad": math.radians(9.9),
        },
    }
    cfg["ues"] = [rx]
    cfg["reflectors"] = [_panel([0.0, 4.5, 0.0], [0.0, -1.0, 0.0], 10.0)]
    return cfg


def _freespace() -> dict:
    cfg = _case1("concrete", 7.0)
    cfg["name"] = "freespace"
    cfg["reflectors"] = []
    return cfg


_PRESETS = {
    "case1-concrete": lambda: _case1("concrete", 7.0),
    "case1-wood-smooth": lambda: _case1("wood-smooth", 9.0),
    "case1-wood-rough": lambda: _case1("wood-rough", 13.0),
    "case1-glass-smooth": lambda: _case1("glass-smooth", 6.0),
    "case1-glass-frosted": lambda: _case1("glass-frosted", 11.0),
    "case1-cylinder": _case1_cylinder,
    "case2": _case2,
    "case3": _case3,
    "case4": _case4,
    "freespace": _freespace,
}


def preset_names():
    return sorted(_PRESETS)


def preset(name: str) -> dict:
    """A fresh configuration dict for a named preset."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return _PRESETS[name]()


def _require(mapping, key, kind, context, default=None):
    """``mapping[key]`` checked as ``kind``; a ``default`` is set when missing."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping")
    if default is not None:
        mapping.setdefault(key, default)
    if key not in mapping:
        raise ConfigError(f"{context} is missing required key {key!r}")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{context}.{key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{context}.{key} must be finite, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise ConfigError(
            f"{context}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _vec3(value, context):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        or not all(math.isfinite(v) for v in value)
    ):
        raise ConfigError(f"{context} must be a list of three finite numbers, got {value!r}")
    return [float(v) for v in value]


def validate_config(config: dict) -> dict:
    """Validate and normalize a scenario configuration.

    Returns a deep-copied dict with defaults filled in.  Raises
    ``ConfigError`` with the offending key on any violation.
    """
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a mapping")
    cfg = copy.deepcopy(config)

    version = cfg.setdefault("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version!r}")
    cfg.setdefault("name", "custom")
    if not isinstance(cfg["name"], str):
        raise ConfigError("name must be a string")
    seed = cfg.setdefault("seed", None)
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ConfigError(f"seed must be a non-negative integer or null, got {seed!r}")
    variant = cfg.setdefault("variant", "nf-sns")
    if variant not in VARIANTS:
        raise ConfigError(
            f"variant must be one of {', '.join(VARIANTS)}; got {variant!r}"
        )

    arr = _require(cfg, "array", dict, "config")
    arr["num_elements"] = _require(arr, "num_elements", int, "array")
    arr["spacing_m"] = _require(arr, "spacing_m", float, "array")
    arr["axis"] = _vec3(arr.setdefault("axis", [1.0, 0.0, 0.0]), "array.axis")
    arr["origin"] = _vec3(arr.setdefault("origin", [0.0, 0.0, 0.0]), "array.origin")
    arr["reference_index"] = _require(arr, "reference_index", int, "array", default=0)

    grid = _require(cfg, "grid", dict, "config")
    grid["f_low_hz"] = _require(grid, "f_low_hz", float, "grid")
    grid["f_high_hz"] = _require(grid, "f_high_hz", float, "grid")
    grid["num_points"] = _require(grid, "num_points", int, "grid")

    # the defaults of each pattern's keys fill in a missing block too
    patterns = cfg.setdefault("patterns", {"tx": {}, "rx": {}})
    for side in ("tx", "rx"):
        pat = _require(patterns, side, dict, "patterns")
        kind = pat.setdefault("kind", "omnidirectional")
        if kind not in ("omnidirectional", "gaussian_lobe"):
            raise ConfigError(f"patterns.{side}.kind {kind!r} is not supported")
        pat["gain_dbi"] = _require(
            pat, "gain_dbi", float, f"patterns.{side}", default=0.0
        )
        if kind == "gaussian_lobe":
            pat["boresight"] = _vec3(
                _require(pat, "boresight", list, f"patterns.{side}"),
                f"patterns.{side}.boresight",
            )
            pat["hpbw_az_rad"] = _require(pat, "hpbw_az_rad", float, f"patterns.{side}")
            pat["hpbw_el_rad"] = _require(pat, "hpbw_el_rad", float, f"patterns.{side}")

    ues = _require(cfg, "ues", list, "config")
    if not ues:
        raise ConfigError("ues must contain at least one receiver position")
    cfg["ues"] = [_vec3(u, f"ues[{i}]") for i, u in enumerate(ues)]

    los = cfg.setdefault("los", {})
    if not isinstance(los, dict):
        raise ConfigError("los must be a mapping")
    los.setdefault("enabled", True)
    los.setdefault("sns", False)
    for key in ("enabled", "sns"):
        if not isinstance(los[key], bool):
            raise ConfigError(f"los.{key} must be a boolean")

    # reflectors and scatterers differ only in the keys of their points
    point_keys = (("reflectors", ("point", "normal")), ("scatterers", ("position",)))
    for key, names in point_keys:
        items = cfg.setdefault(key, [])
        if not isinstance(items, list):
            raise ConfigError(f"{key} must be a list")
        for i, item in enumerate(items):
            ctx = f"{key}[{i}]"
            for name in names:
                item[name] = _vec3(_require(item, name, list, ctx), f"{ctx}.{name}")
            item["loss_db"] = _require(item, "loss_db", float, ctx)
            item["phase_rad"] = _require(item, "phase_rad", float, ctx, default=0.0)
            item.setdefault("sns", True)
            if not isinstance(item["sns"], bool):
                raise ConfigError(f"{ctx}.sns must be a boolean")

    if not los["enabled"] and not cfg["reflectors"] and not cfg["scatterers"]:
        raise ConfigError("scenario has no propagation paths")

    aaf = cfg.setdefault("aaf", {})
    if not isinstance(aaf, dict):
        raise ConfigError("aaf must be a mapping")
    try:
        build_aaf_params(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"aaf: {exc}") from exc

    try:
        build_geometry(cfg)
        build_grid(cfg)
        build_patterns(cfg)
        for ref in cfg["reflectors"]:
            Plane(point=ref["point"], normal=ref["normal"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def build_geometry(config: dict) -> ArrayGeometry:
    arr = config["array"]
    return ArrayGeometry(
        num_elements=arr["num_elements"],
        spacing=arr["spacing_m"],
        axis=np.asarray(arr["axis"]),
        origin=np.asarray(arr["origin"]),
        reference_index=arr.get("reference_index", 0),
    )


def build_grid(config: dict) -> FrequencyGrid:
    grid = config["grid"]
    return FrequencyGrid(
        f_low_hz=grid["f_low_hz"],
        f_high_hz=grid["f_high_hz"],
        num_points=grid["num_points"],
    )


def _build_pattern(pat: dict) -> AntennaPattern:
    if pat["kind"] == "omnidirectional":
        return AntennaPattern(kind="omnidirectional", gain_dbi=pat["gain_dbi"])
    return AntennaPattern(
        kind="gaussian_lobe",
        gain_dbi=pat["gain_dbi"],
        boresight=np.asarray(pat["boresight"]),
        hpbw_az=pat["hpbw_az_rad"],
        hpbw_el=pat["hpbw_el_rad"],
    )


def build_patterns(config: dict):
    """The (tx, rx) element patterns."""
    return (
        _build_pattern(config["patterns"]["tx"]),
        _build_pattern(config["patterns"]["rx"]),
    )


def build_aaf_params(config: dict) -> AAFStatParams:
    """Attenuation-factor hyper-parameters, config overrides over defaults."""
    block = dict(config.get("aaf") or {})
    unknown = set(block) - {f.name for f in dataclasses.fields(AAFStatParams)}
    if unknown:
        raise ValueError(f"unknown aaf keys: {', '.join(sorted(map(str, unknown)))}")
    return AAFStatParams(**block)


def _amplitude(total_length_m: float, loss_db: float, carrier_hz: float) -> float:
    wavelength = SPEED_OF_LIGHT / carrier_hz
    return (
        wavelength
        / (4.0 * math.pi * total_length_m)
        * 10.0 ** (-loss_db / 20.0)
    )


def _record(model, length, distance, aod, aoa, loss_db, phase, sns, carrier):
    """A path of traveled ``length`` whose source lies ``distance`` from the
    array along unit vector ``aod`` and which arrives along unit ``aoa``."""
    return PathRecord(
        model=model,
        amplitude=_amplitude(length, loss_db, carrier),
        phase=phase,
        delay=length / SPEED_OF_LIGHT,
        distance=distance,
        aod=angles_from_vector(aod),
        aoa=angles_from_vector(aoa),
        stationarity=Stationarity.NON_STATIONARY if sns else Stationarity.STATIONARY,
    )


def build_paths(config: dict, ue_position) -> list:
    """Deterministic path list for one receiver position.

    Builds the direct path, one mirror-image reflection per plane, and one
    scattered path per scatterer, with free-space amplitudes at the carrier
    wavelength.  Raises ``GeometryError`` naming the offending path when a
    geometric construction degenerates.
    """
    carrier = build_grid(config).carrier_hz
    reference = build_geometry(config).origin
    rx = np.asarray(_vec3(list(ue_position), "ue_position"))
    paths = []

    if config["los"]["enabled"]:
        vec = rx - reference
        dist = float(np.linalg.norm(vec))
        if dist < _DEGENERATE_DISTANCE:
            raise GeometryError("direct path: receiver coincides with the array")
        direction = vec / dist
        paths.append(
            _record(
                WavefrontModel.LOS, dist, dist, direction, direction,
                0.0, 0.0, config["los"]["sns"], carrier,
            )
        )

    for i, ref in enumerate(config["reflectors"]):
        plane = Plane(point=np.asarray(ref["point"]), normal=np.asarray(ref["normal"]))
        image = mirror_point(rx, plane)
        vec = image - reference
        dist = float(np.linalg.norm(vec))
        if dist < _DEGENERATE_DISTANCE:
            raise GeometryError(
                f"reflector {i}: mirror image coincides with the array"
            )
        if abs(plane.signed_distance(rx)) < _DEGENERATE_DISTANCE:
            raise GeometryError(f"reflector {i}: receiver lies on the plane")
        if abs(plane.signed_distance(reference)) < _DEGENERATE_DISTANCE:
            raise GeometryError(f"reflector {i}: array lies on the plane")
        if plane.signed_distance(rx) * plane.signed_distance(reference) < 0:
            raise GeometryError(
                f"reflector {i}: array and receiver on opposite sides of the plane"
            )
        aod = vec / dist
        paths.append(
            _record(
                WavefrontModel.SRM, dist, dist, aod, reflect_direction(aod, plane),
                ref["loss_db"], ref["phase_rad"], ref["sns"], carrier,
            )
        )

    for i, sc in enumerate(config["scatterers"]):
        pos = np.asarray(sc["position"])
        leg_tx = float(np.linalg.norm(pos - reference))
        leg_rx = float(np.linalg.norm(rx - pos))
        if leg_tx < _DEGENERATE_DISTANCE:
            raise GeometryError(f"scatterer {i}: coincides with the array")
        if leg_rx < _DEGENERATE_DISTANCE:
            raise GeometryError(f"scatterer {i}: coincides with the receiver")
        paths.append(
            _record(
                WavefrontModel.SPM, leg_tx + leg_rx, leg_tx,
                (pos - reference) / leg_tx, (rx - pos) / leg_rx,
                sc["loss_db"], sc["phase_rad"], sc["sns"], carrier,
            )
        )

    return paths


def build_all_paths(config: dict) -> list:
    """Path lists for every configured receiver position."""
    return [build_paths(config, ue) for ue in config["ues"]]
