import copy
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from xlmimo.errors import ConfigError, GeometryError
from xlmimo.geometry import SPEED_OF_LIGHT, ArrayGeometry, Plane, direction_vector
from xlmimo.nearfield import Stationarity, WavefrontModel
from xlmimo.channel import FrequencyGrid
from xlmimo.serialization import read_yaml, write_yaml
from xlmimo.scenario import (
    FORMAT_VERSION,
    build_aaf_params,
    build_all_paths,
    build_geometry,
    build_grid,
    build_paths,
    build_patterns,
    preset,
    preset_names,
    validate_config,
)


def minimal_config():
    return {
        "array": {"num_elements": 8, "spacing_m": 0.0015},
        "grid": {"f_low_hz": 90.0e9, "f_high_hz": 110.0e9, "num_points": 5},
        "ues": [[0.2, 0.645, 0.0]],
    }


class TestPresets:
    def test_names_sorted_and_complete(self):
        names = preset_names()
        assert names == sorted(names)
        assert "case1-concrete" in names
        assert "case2" in names and "case3" in names and "case4" in names
        assert "freespace" in names and "case1-cylinder" in names
        assert len(names) == 10

    def test_all_presets_validate(self):
        for name in preset_names():
            cfg = validate_config(preset(name))
            assert cfg["format_version"] == FORMAT_VERSION
            assert cfg["name"] == name

    def test_every_preset_round_trips_through_yaml(self, tmp_path):
        for name in preset_names():
            path = tmp_path / f"{name}.yaml"
            write_yaml(path, preset(name))
            cfg = validate_config(read_yaml(path))
            assert cfg == validate_config(preset(name))

    def test_preset_returns_fresh_copies(self):
        a = preset("case2")
        a["seed"] = 999
        assert preset("case2")["seed"] == 1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("case5")

    def test_case3_has_twelve_users_on_a_line(self):
        cfg = preset("case3")
        ues = np.asarray(cfg["ues"])
        assert ues.shape == (12, 3)
        ranges = np.linalg.norm(ues, axis=1)
        assert_allclose(ranges[0], 1.5, rtol=1e-12)
        assert_allclose(ranges[-1], 7.3, rtol=1e-12)
        assert np.all(np.diff(ranges) > 0)
        # all on one ray from the origin
        dirs = ues / ranges[:, None]
        assert_allclose(dirs, np.tile(dirs[0], (12, 1)), rtol=1e-12)


class TestValidateConfig:
    def test_defaults_filled(self):
        cfg = validate_config(minimal_config())
        assert cfg["variant"] == "nf-sns"
        assert cfg["seed"] is None
        assert cfg["los"] == {"enabled": True, "sns": False}
        assert cfg["patterns"]["tx"]["kind"] == "omnidirectional"
        assert cfg["reflectors"] == [] and cfg["scatterers"] == []
        assert cfg["array"]["axis"] == [1.0, 0.0, 0.0]

    def test_input_not_mutated(self):
        raw = minimal_config()
        snapshot = copy.deepcopy(raw)
        validate_config(raw)
        assert raw == snapshot

    def test_missing_sections(self):
        cfg = minimal_config()
        del cfg["array"]
        with pytest.raises(ConfigError, match="array"):
            validate_config(cfg)
        cfg = minimal_config()
        del cfg["grid"]
        with pytest.raises(ConfigError, match="grid"):
            validate_config(cfg)
        cfg = minimal_config()
        del cfg["ues"]
        with pytest.raises(ConfigError, match="ues"):
            validate_config(cfg)

    def test_type_errors_name_the_key(self):
        cfg = minimal_config()
        cfg["array"]["num_elements"] = "301"
        with pytest.raises(ConfigError, match="num_elements"):
            validate_config(cfg)
        cfg = minimal_config()
        cfg["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            validate_config(cfg)
        cfg = minimal_config()
        cfg["variant"] = "nearfield"
        with pytest.raises(ConfigError, match="variant"):
            validate_config(cfg)
        cfg = minimal_config()
        cfg["ues"] = [[0.1, 0.2]]
        with pytest.raises(ConfigError, match="ues"):
            validate_config(cfg)
        # keys with a default are type-checked like required ones
        cfg = minimal_config()
        cfg["array"]["reference_index"] = 1.5
        with pytest.raises(
            ConfigError, match=r"^array\.reference_index must be an integer, got 1\.5$"
        ):
            validate_config(cfg)
        cfg = minimal_config()
        cfg["patterns"] = {"tx": {"gain_dbi": "3"}, "rx": {}}
        with pytest.raises(
            ConfigError, match=r"^patterns\.tx\.gain_dbi must be a number, got '3'$"
        ):
            validate_config(cfg)

    def test_empty_ues(self):
        cfg = minimal_config()
        cfg["ues"] = []
        with pytest.raises(ConfigError, match="ues"):
            validate_config(cfg)

    def test_pathless_scenario_rejected(self):
        cfg = minimal_config()
        cfg["los"] = {"enabled": False, "sns": False}
        with pytest.raises(ConfigError, match="paths"):
            validate_config(cfg)

    def test_unknown_aaf_key(self):
        cfg = minimal_config()
        cfg["aaf"] = {"decay": 0.05}
        with pytest.raises(ConfigError, match="aaf"):
            validate_config(cfg)

    def test_geometry_errors_become_config_errors(self):
        cfg = minimal_config()
        cfg["array"]["spacing_m"] = -1.0
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_unsupported_version(self):
        cfg = minimal_config()
        cfg["format_version"] = 99
        with pytest.raises(ConfigError, match="format_version"):
            validate_config(cfg)

    def test_gaussian_pattern_requires_geometry_keys(self):
        cfg = minimal_config()
        cfg["patterns"] = {
            "tx": {"kind": "gaussian_lobe", "gain_dbi": 10.0},
            "rx": {"kind": "omnidirectional", "gain_dbi": 0.0},
        }
        with pytest.raises(ConfigError, match="boresight"):
            validate_config(cfg)


def _set(*keys, value):
    """An edit that sets ``config[keys[0]]...[keys[-1]] = value``."""

    def edit(cfg):
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return cfg

    return edit


def _delete(key):
    def edit(cfg):
        del cfg[key]
        return cfg

    return edit


SCATTERER = {"position": [0.3, 0.9, 0.0], "loss_db": 3.0}

#: One malformed config per ``ConfigError`` raise of ``_require``, ``_vec3``
#: and ``validate_config``: (id, edit of ``minimal_config()``, message).
MALFORMED = [
    ("configuration", lambda cfg: [], "configuration must be a mapping"),
    ("format-version", _set("format_version", value=99),
     "unsupported format_version 99"),
    ("name", _set("name", value=5), "name must be a string"),
    ("seed", _set("seed", value=-1),
     "seed must be a non-negative integer or null, got -1"),
    ("variant", _set("variant", value="nearfield"),
     "variant must be one of nf-sns, nf-ss, ff-sns, ff-ss, vr; got 'nearfield'"),
    ("require-mapping", _set("patterns", value=["tx"]),
     "patterns must be a mapping"),
    ("require-missing", _delete("grid"), "config is missing required key 'grid'"),
    ("require-number", _set("array", "spacing_m", value="1"),
     "array.spacing_m must be a number, got '1'"),
    ("require-finite", _set("array", "spacing_m", value=float("inf")),
     "array.spacing_m must be finite, got inf"),
    ("require-integer", _set("grid", "num_points", value=5.0),
     "grid.num_points must be an integer, got 5.0"),
    ("require-kind", _set("array", value=[8]), "config.array must be dict, got list"),
    ("vec3", _set("array", "axis", value=[1.0, 0.0]),
     "array.axis must be a list of three finite numbers, got [1.0, 0.0]"),
    ("pattern-kind", _set("patterns", value={"tx": {}, "rx": {"kind": "dipole"}}),
     "patterns.rx.kind 'dipole' is not supported"),
    ("empty-ues", _set("ues", value=[]),
     "ues must contain at least one receiver position"),
    ("los-mapping", _set("los", value=True), "los must be a mapping"),
    ("los-boolean", _set("los", value={"sns": 1}), "los.sns must be a boolean"),
    ("sources-list", _set("scatterers", value={}), "scatterers must be a list"),
    ("source-sns", _set("scatterers", value=[{**SCATTERER, "sns": "yes"}]),
     "scatterers[0].sns must be a boolean"),
    ("no-paths", _set("los", value={"enabled": False}),
     "scenario has no propagation paths"),
    ("aaf-mapping", _set("aaf", value=[]), "aaf must be a mapping"),
    ("aaf-params", _set("aaf", value={"sigma_p": 0.0}),
     "aaf: sigma_p must be > 0, got 0.0"),
    ("builders", _set("array", "spacing_m", value=-1.0),
     "spacing must be finite and > 0, got -1.0"),
]


def _raise_site(edit):
    """The (function, line) of the raise that rejects ``edit``'s config."""
    with pytest.raises(ConfigError) as info:
        validate_config(edit(minimal_config()))
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name, tb.tb_lineno


class TestMalformedConfigs:
    @pytest.mark.parametrize(
        "edit, message", [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
    )
    def test_rejected_with_its_message(self, edit, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(edit(minimal_config()))

    def test_every_raise_is_reached(self):
        # each ConfigError raise of the three functions rejects one config
        # above, so none of them is unreachable
        import ast
        import inspect

        from xlmimo import scenario

        tree = ast.parse(inspect.getsource(scenario))
        want = {
            (node.name, raise_.lineno)
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name in ("_require", "_vec3", "validate_config")
            for raise_ in ast.walk(node)
            if isinstance(raise_, ast.Raise)
            and isinstance(raise_.exc, ast.Call)
            and getattr(raise_.exc.func, "id", None) == "ConfigError"
        }
        assert len(want) == len(MALFORMED)
        assert {_raise_site(edit) for _, edit, _ in MALFORMED} == want

    @pytest.mark.parametrize(
        "block, message",
        [({1: 0.5}, "aaf: unknown aaf keys: 1"),
         ({"bogus": 1.0, 2: 0.5, "mu_p": 0.5}, "aaf: unknown aaf keys: 2, bogus")],
    )
    def test_non_string_aaf_keys_are_named(self, block, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(_set("aaf", value=block)(minimal_config()))


class TestBuilders:
    def test_build_geometry(self):
        geom = build_geometry(validate_config(minimal_config()))
        assert isinstance(geom, ArrayGeometry)
        assert geom.num_elements == 8 and geom.spacing == 0.0015

    def test_build_grid(self):
        grid = build_grid(validate_config(minimal_config()))
        assert isinstance(grid, FrequencyGrid)
        assert grid.carrier_hz == 100e9

    def test_build_patterns_case4(self):
        tx, rx = build_patterns(validate_config(preset("case4")))
        assert tx.kind == "gaussian_lobe" and rx.kind == "gaussian_lobe"
        assert tx.gain_dbi == 23.0 and rx.gain_dbi == 25.1
        assert_allclose(tx.hpbw_az, np.radians(14.6), rtol=1e-12)
        # rx horn points back at the array
        assert_allclose(rx.boresight, -tx.boresight, atol=1e-12)

    def test_build_aaf_params_overrides(self):
        cfg = validate_config(minimal_config())
        params = build_aaf_params(cfg)
        assert params.mu_p == 0.37 and params.lambda_corr == 40.61
        cfg["aaf"] = {"mu_p": 0.5, "dcorr_range": [0.02, 0.2]}
        params = build_aaf_params(cfg)
        assert params.mu_p == 0.5
        assert params.dcorr_range == (0.02, 0.2)
        with pytest.raises(ValueError):
            build_aaf_params({"aaf": {"bogus": 1.0}})


class TestBuildPaths:
    def test_direct_path_oracle(self):
        cfg = validate_config(preset("freespace"))
        paths = build_paths(cfg, cfg["ues"][0])
        assert len(paths) == 1
        p = paths[0]
        dist = np.hypot(0.2, 0.645)
        lam = SPEED_OF_LIGHT / 100e9
        assert p.model is WavefrontModel.LOS
        assert p.stationarity is Stationarity.STATIONARY
        assert_allclose(p.distance, dist, rtol=1e-12)
        assert_allclose(p.delay, dist / SPEED_OF_LIGHT, rtol=1e-12)
        assert_allclose(p.amplitude, lam / (4 * np.pi * dist), rtol=1e-12)
        assert_allclose(p.aod.azimuth, np.arctan2(0.645, 0.2), rtol=1e-12)
        assert p.aod.elevation == np.pi / 2
        assert p.aod == p.aoa
        assert p.phase == 0.0

    def test_reflected_path_image_oracle(self):
        cfg = validate_config(preset("case1-concrete"))
        paths = build_paths(cfg, cfg["ues"][0])
        assert len(paths) == 2
        srm = paths[1]
        image = np.array([0.2, 2 * 1.2 - 0.645, 0.0])
        dist = np.linalg.norm(image)
        lam = SPEED_OF_LIGHT / 100e9
        assert srm.model is WavefrontModel.SRM
        assert srm.stationarity is Stationarity.NON_STATIONARY
        assert_allclose(srm.distance, dist, rtol=1e-12)
        assert_allclose(
            srm.amplitude, lam / (4 * np.pi * dist) * 10 ** (-7.0 / 20.0),
            rtol=1e-12,
        )
        # image distance equals the physical two-segment specular length
        t = 1.2 / image[1]
        bounce = t * image
        rx = np.array([0.2, 0.645, 0.0])
        two_seg = np.linalg.norm(bounce) + np.linalg.norm(rx - bounce)
        assert_allclose(dist, two_seg, rtol=1e-12)
        # arrival is the departure mirrored in the panel
        aod_vec = image / dist
        plane = Plane(point=[0.0, 1.2, 0.0], normal=[0.0, -1.0, 0.0])
        from xlmimo.geometry import direction_vector, reflect_direction

        assert_allclose(
            direction_vector(srm.aoa),
            reflect_direction(aod_vec, plane),
            atol=1e-12,
        )

    def test_scattered_path_oracle(self):
        cfg = validate_config(preset("case1-cylinder"))
        paths = build_paths(cfg, cfg["ues"][0])
        assert len(paths) == 2
        spm = paths[1]
        pos = np.array([0.3, 0.9, 0.0])
        rx = np.array([0.2, 0.645, 0.0])
        leg_tx = np.linalg.norm(pos)
        leg_rx = np.linalg.norm(rx - pos)
        lam = SPEED_OF_LIGHT / 100e9
        assert spm.model is WavefrontModel.SPM
        assert_allclose(spm.distance, leg_tx, rtol=1e-12)
        assert_allclose(spm.delay, (leg_tx + leg_rx) / SPEED_OF_LIGHT, rtol=1e-12)
        assert_allclose(
            spm.amplitude,
            lam / (4 * np.pi * (leg_tx + leg_rx)) * 10 ** (-12.0 / 20.0),
            rtol=1e-12,
        )
        from xlmimo.geometry import direction_vector

        assert_allclose(
            direction_vector(spm.aoa), (rx - pos) / leg_rx, atol=1e-12
        )

    def test_blocked_direct_path_is_non_stationary(self):
        cfg = validate_config(preset("case2"))
        paths = build_paths(cfg, cfg["ues"][0])
        assert paths[0].stationarity is Stationarity.NON_STATIONARY

    def test_degenerate_geometries_raise(self):
        cfg = validate_config(preset("case1-concrete"))
        with pytest.raises(GeometryError, match="direct"):
            build_paths(cfg, [0.0, 0.0, 0.0])
        with pytest.raises(GeometryError, match="reflector 0"):
            build_paths(cfg, [0.2, 1.2, 0.0])  # on the panel
        with pytest.raises(GeometryError, match="reflector 0"):
            build_paths(cfg, [0.2, 2.0, 0.0])  # behind the panel
        with pytest.raises(GeometryError, match="reflector 0: mirror image"):
            build_paths(cfg, [0.0, 2.4, 0.0])  # the array's mirror image
        cfg = validate_config(preset("case1-cylinder"))
        with pytest.raises(GeometryError, match="scatterer 0"):
            build_paths(cfg, [0.3, 0.9, 0.0])  # on the scatterer

    def test_build_all_paths_per_user(self):
        cfg = validate_config(preset("case3"))
        lists = build_all_paths(cfg)
        assert len(lists) == 12
        assert all(len(p) == 3 for p in lists)
        # side wall and back wall both produce reflections
        assert all(p[1].model is WavefrontModel.SRM for p in lists)
        assert all(p[2].model is WavefrontModel.SRM for p in lists)


_coordinate = st.floats(-5.0, 5.0)
_point = st.tuples(_coordinate, _coordinate, _coordinate).map(np.array)
# offsets within 1e-12 to 1e-2 rad of the +-z axis, where path directions
# sit next to a pole of the spherical angles
_near_pole = st.tuples(
    st.floats(-12.0, -2.0).map(lambda e: 10.0**e),
    st.floats(-np.pi, np.pi),
    st.floats(0.1, 5.0),
    st.sampled_from([1.0, -1.0]),
).map(
    lambda t: t[2] * np.array(
        [np.sin(t[0]) * np.cos(t[1]), np.sin(t[0]) * np.sin(t[1]), t[3] * np.cos(t[0])]
    )
)
_offset = st.one_of(_point, _near_pole)


class TestBuildPathsProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        los=st.booleans(),
        origin=_point,
        ues=st.lists(_point, min_size=1, max_size=3),
        walls=st.lists(
            st.tuples(_point, _point.filter(lambda v: np.linalg.norm(v) > 0.1)),
            max_size=2,
        ),
        scatterers=st.lists(_point, max_size=2),
    )
    def test_every_user_gets_each_configured_path_or_a_geometry_error(
        self, los, origin, ues, walls, scatterers
    ):
        """Every config that validates yields, per user, one path per
        enabled direct path, reflector and scatterer, or a GeometryError."""
        cfg = minimal_config()
        cfg["array"]["origin"] = origin.tolist()
        cfg["ues"] = [ue.tolist() for ue in ues]
        cfg["los"] = {"enabled": los}
        cfg["reflectors"] = [
            {"point": p.tolist(), "normal": (n / np.linalg.norm(n)).tolist(),
             "loss_db": 6.0}
            for p, n in walls
        ]
        cfg["scatterers"] = [{"position": p.tolist(), "loss_db": 9.0} for p in scatterers]
        per_user = los + len(walls) + len(scatterers)
        try:
            cfg = validate_config(cfg)
        except ConfigError:
            assert per_user == 0  # the only invalid config drawn here
            return
        assert per_user > 0
        try:
            lists = build_all_paths(cfg)
        except GeometryError:
            return
        assert [len(paths) for paths in lists] == [per_user] * len(ues)

    @settings(max_examples=200, deadline=None)
    @given(
        origin=_point,
        rx_offset=_offset,
        wall_point=_point,
        wall_normal=_point.filter(lambda v: np.linalg.norm(v) > 0.1),
        scatterer_offset=_offset,
        losses=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
    )
    def test_paths_match_the_image_source_closed_form(
        self, origin, rx_offset, wall_point, wall_normal, scatterer_offset, losses
    ):
        """LOS, one wall reflection and one scatterer: distance, delay
        L/c, amplitude lambda/(4 pi L) 10^(-loss/20) and unit directions."""
        rx = origin + rx_offset
        scatterer = origin + scatterer_offset
        normal = wall_normal / np.linalg.norm(wall_normal)
        wall_loss, scatterer_loss = losses
        cfg = minimal_config()
        cfg["array"]["origin"] = origin.tolist()
        cfg["ues"] = [rx.tolist()]
        cfg["reflectors"] = [
            {"point": wall_point.tolist(), "normal": normal.tolist(), "loss_db": wall_loss}
        ]
        cfg["scatterers"] = [{"position": scatterer.tolist(), "loss_db": scatterer_loss}]
        cfg = validate_config(cfg)
        try:
            paths = build_paths(cfg, cfg["ues"][0])
        except GeometryError:
            assume(False)

        # the receiver's mirror image in the wall is the reflection's source
        image = rx - 2.0 * np.dot(rx - wall_point, normal) * normal
        to_image = np.linalg.norm(image - origin)
        aod_srm = (image - origin) / to_image
        leg_tx = np.linalg.norm(scatterer - origin)
        leg_rx = np.linalg.norm(rx - scatterer)
        direct = np.linalg.norm(rx - origin)
        expected = [
            # (length, distance, aod, aoa, loss_db)
            (direct, direct, (rx - origin) / direct, (rx - origin) / direct, 0.0),
            (
                to_image, to_image, aod_srm,
                aod_srm - 2.0 * np.dot(aod_srm, normal) * normal, wall_loss,
            ),
            (
                leg_tx + leg_rx, leg_tx, (scatterer - origin) / leg_tx,
                (rx - scatterer) / leg_rx, scatterer_loss,
            ),
        ]
        wavelength = SPEED_OF_LIGHT / 100e9
        assert [p.model for p in paths] == [
            WavefrontModel.LOS, WavefrontModel.SRM, WavefrontModel.SPM
        ]
        for path, (length, distance, aod, aoa, loss_db) in zip(paths, expected):
            amplitude = wavelength / (4.0 * np.pi * length) * 10.0 ** (-loss_db / 20.0)
            assert_allclose(path.distance, distance, rtol=1e-12)
            assert_allclose(path.delay, length / SPEED_OF_LIGHT, rtol=1e-12)
            assert_allclose(path.amplitude, amplitude, rtol=1e-12)
            assert_allclose(direction_vector(path.aod), aod, rtol=0.0, atol=1e-12)
            assert_allclose(direction_vector(path.aoa), aoa, rtol=0.0, atol=1e-12)
