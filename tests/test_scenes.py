import json

import numpy as np
import pytest

from posetune import scenes
from posetune.camera import default_camera, render_depth, visible_mask
from posetune.geometry import PointCloud, Pose, transform_cloud
from posetune.objects import make_box
from posetune.scenes import (
    NoiseConfig,
    Scene,
    apply_domain_randomization,
    default_jump_sizes,
    default_noise_config,
    generate_scene,
    load_scene,
    save_scene,
)


@pytest.fixture(scope="module")
def box():
    return make_box("crate", [45, 60, 35], [0.85, 0.25, 0.2])


class TestNoiseConfig:
    def test_default_levels(self):
        cfg = default_noise_config()
        assert cfg.as_tuple() == (1.0, 0.02, 0.02, 0.04, 5.0, 0.02)

    def test_jump_sizes_are_halves(self):
        assert default_jump_sizes().as_tuple() == (0.5, 0.01, 0.01, 0.02, 2.5, 0.01)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseConfig(-1.0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_levels_are_numbers(self, value):
        with pytest.raises(ValueError, match="rgb_shift must be a number"):
            NoiseConfig(0.0, 0.0, 0.0, value, 0.0, 0.0)

    @pytest.mark.parametrize("name, text", [("xyz_sigma", "NaN"), ("flatten_frac", "Infinity")])
    def test_levels_are_finite(self, name, text):
        # json.loads reads NaN and Infinity, so an edited levels file can hold them
        data = dict.fromkeys(NoiseConfig.__dataclass_fields__, 0.0)
        levels = json.loads(json.dumps(data).replace(f'"{name}": 0.0', f'"{name}": {text}'))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseConfig(**levels)


class TestGenerateScene:
    def test_clean_scene_contains_only_object_points(self, box):
        scene = generate_scene([box], clutter_level=0.0, occlusion_level=0.0, seed=5)
        assert len(scene.cloud) > 500
        placed = transform_cloud(box.cloud, scene.gt_poses["crate"]).points
        # every scene point must be one of the object's (visible subset)
        from scipy.spatial import cKDTree
        dist, _ = cKDTree(placed).query(scene.cloud.points)
        assert dist.max() < 1e-9

    def test_same_seed_reproduces_exactly(self, box):
        a = generate_scene([box], 0.5, 0.2, seed=9)
        b = generate_scene([box], 0.5, 0.2, seed=9)
        assert np.array_equal(a.cloud.points, b.cloud.points)
        assert np.array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.gt_poses["crate"].rotation,
                                      b.gt_poses["crate"].rotation)

    def test_full_occlusion_removes_object(self, box):
        scene = generate_scene([box], clutter_level=0.0, occlusion_level=1.0, seed=3)
        placed = transform_cloud(box.cloud, scene.gt_poses["crate"]).points
        from scipy.spatial import cKDTree
        dist, _ = cKDTree(scene.cloud.points).query(placed)
        assert dist.min() > 1.0  # no object point survived

    def test_clutter_adds_points(self, box):
        clean = generate_scene([box], 0.0, 0.0, seed=7)
        cluttered = generate_scene([box], 0.8, 0.0, seed=7)
        assert len(cluttered.cloud) > len(clean.cloud) + 1000

    def test_depth_image_consistent_with_cloud(self, box):
        scene = generate_scene([box], 0.4, 0.0, seed=11)
        expected = render_depth(scene.cloud.points, scene.cam)
        assert np.array_equal(scene.depth, expected)

    def test_levels_validated(self, box):
        with pytest.raises(ValueError):
            generate_scene([box], 1.5, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_scene([], 0.0, 0.0, seed=0)


class TestZBufferOracle:
    def test_two_plane_scene(self):
        # brute-force oracle: per pixel, only the nearest plane survives
        cam = default_camera()
        grid = np.stack(np.meshgrid(np.linspace(-80, 80, 60),
                                    np.linspace(-80, 80, 60)), axis=-1).reshape(-1, 2)
        near = np.column_stack([grid, np.full(len(grid), 300.0)])
        far = np.column_stack([grid * (500.0 / 300.0), np.full(len(grid), 500.0)])
        pts = np.vstack([near, far])
        depth = render_depth(pts, cam)
        keep = visible_mask(pts, depth, cam, tolerance=5.0)
        assert keep[: len(near)].all()
        assert not keep[len(near):].any()


class TestDomainRandomization:
    def make_plane_scene(self, slope=0.0, n=400, seed=21):
        g = np.random.default_rng(seed)
        xy = g.uniform(-60, 60, (n, 2))
        z = 500.0 + slope * xy[:, 0]
        pts = np.column_stack([xy, z])
        normals = np.tile([0.0, 0.0, -1.0], (n, 1))
        colors = np.full((n, 3), 0.5)
        cloud = PointCloud(pts, normals, colors)
        cam = default_camera()
        return Scene(cloud, {}, cam, seed)

    def test_zero_config_is_identity(self, box):
        scene = generate_scene([box], 0.3, 0.0, seed=13)
        out = apply_domain_randomization(scene, NoiseConfig.zero(), seed=1)
        assert np.array_equal(out.cloud.points, scene.cloud.points)
        assert np.array_equal(out.cloud.colors, scene.cloud.colors)
        assert np.array_equal(out.depth, scene.depth)
        np.testing.assert_array_equal(out.gt_poses["crate"].rotation,
                                      scene.gt_poses["crate"].rotation)

    def test_xyz_noise_statistics(self):
        # pooled displacement std across seeds ~ E[level^2]^0.5 = max/2
        cfg = NoiseConfig(1.0, 0, 0, 0, 0, 0)
        scene = self.make_plane_scene(n=2000)
        displacements = []
        for seed in range(30):
            out = apply_domain_randomization(scene, cfg, seed=seed)
            displacements.append(out.cloud.points - scene.cloud.points)
        std = np.std(np.concatenate(displacements))
        assert 0.2 <= std <= 1.0

    def test_point_count_and_color_range_preserved(self, box):
        scene = generate_scene([box], 0.5, 0.0, seed=15)
        cfg = NoiseConfig(3.0, 0.1, 0.3, 0.5, 10.0, 0.2)
        out = apply_domain_randomization(scene, cfg, seed=2)
        assert len(out.cloud) == len(scene.cloud)
        assert out.cloud.colors.min() >= 0.0 and out.cloud.colors.max() <= 1.0
        lengths = np.linalg.norm(out.cloud.normals, axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-9)

    def test_rotation_keeps_labels_exact(self, box):
        pose = Pose(np.eye(3), [0, 0, 520.0])
        cloud = transform_cloud(box.cloud, pose)
        cam = default_camera()
        scene = Scene(cloud, {"crate": pose}, cam, 8)
        cfg = NoiseConfig(0, 0, 0, 0, 45.0, 0)
        out = apply_domain_randomization(scene, cfg, seed=4)
        assert not np.allclose(out.cloud.points, scene.cloud.points)
        relabeled = out.gt_poses["crate"].apply(box.cloud.points)
        np.testing.assert_allclose(relabeled, out.cloud.points, atol=1e-9)

    def test_full_flatten_collapses_to_median(self):
        scene = self.make_plane_scene(slope=0.5)
        cfg = NoiseConfig(0, 0, 0, 0, 0, 1.0)
        out = apply_domain_randomization(scene, cfg, seed=5)
        median = np.median(scene.cloud.points[:, 2])
        np.testing.assert_allclose(out.cloud.points[:, 2], median)

    def test_partial_flatten_touches_fraction(self):
        scene = self.make_plane_scene(slope=0.5, n=1000)
        cfg = NoiseConfig(0, 0, 0, 0, 0, 0.25)
        out = apply_domain_randomization(scene, cfg, seed=6)
        changed = np.abs(out.cloud.points[:, 2] - scene.cloud.points[:, 2]) > 1e-12
        assert changed.sum() <= 250
        assert changed.sum() >= 100

    def test_deterministic(self, box):
        scene = generate_scene([box], 0.5, 0.1, seed=17)
        cfg = default_noise_config()
        a = apply_domain_randomization(scene, cfg, seed=7)
        b = apply_domain_randomization(scene, cfg, seed=7)
        assert np.array_equal(a.cloud.points, b.cloud.points)
        assert np.array_equal(a.depth, b.depth)


class TestLazyDepth:
    """``Scene.depth`` is rendered through ``scenes.render_depth`` on its
    first read, once."""

    @pytest.fixture
    def renders(self, monkeypatch):
        """The camera of every ``scenes.render_depth`` call."""
        cams = []

        def counted(points, cam):
            cams.append(cam)
            return render_depth(points, cam)

        monkeypatch.setattr(scenes, "render_depth", counted)
        return cams

    def test_generate_makes_only_the_coarse_visibility_render(self, box, renders):
        generate_scene([box], 0.4, 0.1, seed=19)
        assert renders == [scenes._coarse_camera(default_camera())]

    def test_randomization_and_load_make_no_render(self, box, tmp_path, monkeypatch):
        scene = generate_scene([box], 0.4, 0.1, seed=19)
        save_scene(scene, tmp_path)
        cams = []
        monkeypatch.setattr(scenes, "render_depth", lambda *args: cams.append(args))
        apply_domain_randomization(scene, default_noise_config(), seed=1)
        load_scene(tmp_path)
        assert cams == []

    def test_first_read_renders_once(self, box, renders):
        scene = generate_scene([box], 0.4, 0.1, seed=19)
        del renders[:]
        first = scene.depth
        assert renders == [scene.cam]
        assert scene.depth is first and scene.depth is first
        assert renders == [scene.cam]
        assert np.array_equal(first, render_depth(scene.cloud.points, scene.cam))

    def test_depth_is_read_only(self, box):
        scene = generate_scene([box], 0.4, 0.1, seed=19)
        with pytest.raises(ValueError, match="read-only"):
            scene.depth[0, 0] = 1.0
        with pytest.raises(AttributeError):
            scene.depth = np.zeros((scene.cam.height, scene.cam.width))


class TestSceneIO:
    def test_roundtrip(self, box, tmp_path):
        scene = generate_scene([box], 0.4, 0.1, seed=19)
        save_scene(scene, tmp_path / "s0")
        loaded = load_scene(tmp_path / "s0")
        for channel in ("points", "normals", "colors"):
            assert np.array_equal(getattr(loaded.cloud, channel), getattr(scene.cloud, channel))
        assert loaded.seed == scene.seed
        assert loaded.cam == scene.cam
        for key in ("rotation", "translation"):
            assert np.array_equal(getattr(loaded.gt_poses["crate"], key),
                                  getattr(scene.gt_poses["crate"], key))
        assert np.array_equal(loaded.depth, scene.depth)

    @pytest.mark.parametrize("name", ["seed", "width"])
    def test_load_rejects_float_seed_or_width(self, box, tmp_path, name):
        save_scene(generate_scene([box], 0.4, 0.1, seed=19), tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        owner = meta if name == "seed" else meta["camera"]
        owner[name] = float(owner[name])
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=name):
            load_scene(tmp_path)

    def test_rewrite_is_byte_identical(self, box, tmp_path):
        scene = generate_scene([box], 0.4, 0.1, seed=19)
        save_scene(scene, tmp_path / "a")
        save_scene(scene, tmp_path / "b")
        for name in ("points.npy", "normals.npy", "colors.npy", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
