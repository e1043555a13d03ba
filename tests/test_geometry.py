import numpy as np
import pytest

from posetune.geometry import (
    MAX_KEYPOINTS,
    ObjectModel,
    PointCloud,
    Pose,
    bbox_diagonal,
    farthest_point_sample,
    random_rotation,
    rotation_about_axis,
    transform_cloud,
    voxel_downsample,
)
from posetune.objects import load_object, make_object, save_object

from clouds import cloud_of


def rng(seed=0):
    return np.random.default_rng(seed)


def random_pose(generator) -> Pose:
    return Pose(random_rotation(generator), generator.uniform(-50, 50, 3))


class TestPose:
    def test_identity(self):
        p = Pose.identity()
        pts = rng().uniform(-10, 10, (5, 3))
        np.testing.assert_allclose(p.apply(pts), pts)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(reflect, np.zeros(3))

    def test_compose_inverse_roundtrip(self):
        g = rng(3)
        for _ in range(20):
            p = random_pose(g)
            back = p.inverse().compose(p)
            np.testing.assert_allclose(back.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(back.translation, 0, atol=1e-10)

    def test_dict_roundtrip(self):
        p = random_pose(rng(7))
        q = Pose.from_dict(p.to_dict())
        np.testing.assert_allclose(q.rotation, p.rotation)
        np.testing.assert_allclose(q.translation, p.translation)


class TestTransformCloud:
    def test_identity_pose_is_noop(self):
        cloud = cloud_of(rng().uniform(-5, 5, (10, 3)))
        out = transform_cloud(cloud, Pose.identity())
        np.testing.assert_allclose(out.points, cloud.points)

    def test_quarter_turn_about_z(self):
        cloud = cloud_of([[1.0, 0.0, 0.0]])
        pose = Pose(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
        np.testing.assert_allclose(transform_cloud(cloud, pose).points,
                                   [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_matches_per_point_arithmetic(self):
        # independent oracle: plain per-point matrix multiply in a loop
        g = rng(11)
        pts = g.uniform(-20, 20, (5, 3))
        pose = random_pose(g)
        out = transform_cloud(cloud_of(pts), pose)
        for i in range(5):
            expected = pose.rotation @ pts[i] + pose.translation
            np.testing.assert_allclose(out.points[i], expected, atol=1e-12)

    def test_normals_rotate_colors_stay(self):
        g = rng(13)
        normals = g.normal(size=(6, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        colors = g.uniform(0, 1, (6, 3))
        cloud = PointCloud(g.uniform(-5, 5, (6, 3)), normals, colors)
        pose = random_pose(g)
        out = transform_cloud(cloud, pose)
        np.testing.assert_allclose(out.normals, normals @ pose.rotation.T)
        np.testing.assert_allclose(out.colors, colors)

    def test_roundtrip_through_inverse(self):
        g = rng(17)
        cloud = cloud_of(g.uniform(-30, 30, (50, 3)))
        pose = random_pose(g)
        back = transform_cloud(transform_cloud(cloud, pose), pose.inverse())
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)


class TestVoxelDownsample:
    def test_merges_close_points(self):
        cloud = cloud_of([[0.1, 0.1, 0.1], [0.3, 0.1, 0.1]])
        out = voxel_downsample(cloud, 1.0)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0.2, 0.1, 0.1])

    def test_keeps_far_points(self):
        cloud = cloud_of([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        assert len(voxel_downsample(cloud, 1.0)) == 2

    def test_respects_voxel_bucket_count(self):
        pts = rng(5).uniform(0, 10, (1000, 3))
        out = voxel_downsample(cloud_of(pts), 5.0)
        assert len(out) <= 8
        # independent bucketing oracle
        buckets = {tuple(np.floor(p / 5.0).astype(int)) for p in pts}
        assert len(out) == len(buckets)

    def test_centroids_match_bucket_means(self):
        pts = rng(6).uniform(-4, 4, (200, 3))
        out = voxel_downsample(cloud_of(pts), 2.0)
        oracle = {}
        for p in pts:
            oracle.setdefault(tuple(np.floor(p / 2.0).astype(int)), []).append(p)
        expected = sorted(tuple(np.mean(v, axis=0)) for v in oracle.values())
        got = sorted(tuple(p) for p in out.points)
        np.testing.assert_allclose(got, expected)

    def test_idempotent_when_sparse(self):
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [0, 5.0, 0]])
        once = voxel_downsample(cloud_of(pts), 1.0)
        twice = voxel_downsample(once, 1.0)
        np.testing.assert_allclose(np.sort(once.points, axis=0),
                                   np.sort(twice.points, axis=0))

    def test_empty_input(self):
        out = voxel_downsample(cloud_of(np.empty((0, 3))), 1.0)
        assert len(out) == 0

    def test_normals_renormalized(self):
        normals = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        cloud = cloud_of([[0.1, 0, 0], [0.2, 0, 0]], normals)
        out = voxel_downsample(cloud, 1.0)
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0)

    @staticmethod
    def row_unique_reference(cloud: PointCloud, voxel: float) -> PointCloud:
        """The earlier formulation: ``np.unique`` over (x, y, z) key rows."""
        keys = np.floor(cloud.points / voxel).astype(np.int64)
        _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                       return_counts=True)

        def bucket_mean(values):
            acc = np.zeros((len(counts), 3))
            np.add.at(acc, inverse.reshape(-1), values)
            return acc / counts[:, None]

        normals = bucket_mean(cloud.normals)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        return PointCloud(bucket_mean(cloud.points), normals, bucket_mean(cloud.colors))

    # the last case spans more voxels than one int64 key can number
    @pytest.mark.parametrize("seed,voxel", [(0, 1.0), (1, 5.0), (2, 0.37), (3, 40.0),
                                            (4, 1e-5)])
    def test_packed_keys_match_row_unique_reference(self, seed, voxel):
        g = rng(seed)
        pts = g.uniform(-120, 80, (3000, 3)) + g.uniform(-1e4, 1e4, 3)
        normals = g.normal(size=(3000, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(pts, normals, g.uniform(0, 1, (3000, 3)))
        out = voxel_downsample(cloud, voxel)
        ref = self.row_unique_reference(cloud, voxel)
        np.testing.assert_array_equal(out.points, ref.points)
        np.testing.assert_array_equal(out.normals, ref.normals)
        np.testing.assert_array_equal(out.colors, ref.colors)

    def test_lshape_normals_stay_unit(self):
        # the two boxes of the L share a face with opposite normals
        out = voxel_downsample(make_object({"shape": "lshape", "id": "l"}).cloud, 5.0)
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0)

    def test_cancelled_normals_take_first_point_normal(self):
        normals = np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]])
        cloud = cloud_of([[0.1, 0, 0], [0.2, 0, 0], [5.0, 0, 0]], normals)
        out = voxel_downsample(cloud, 1.0)
        np.testing.assert_array_equal(out.normals, [[0, 0, 1.0], [1.0, 0, 0]])


class TestBboxDiagonal:
    def test_unit_cube(self):
        corners = np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).T.reshape(-1, 3)
        assert bbox_diagonal(cloud_of(corners)) == pytest.approx(np.sqrt(3))

    def test_single_point_is_zero(self):
        assert bbox_diagonal(cloud_of([[3.0, 4.0, 5.0]])) == 0.0

    def test_flat_box(self):
        pts = np.array([[0, 0, 0], [3.0, 0, 0], [0, 4.0, 0], [3.0, 4.0, 0]])
        assert bbox_diagonal(cloud_of(pts)) == pytest.approx(5.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            bbox_diagonal(cloud_of(np.empty((0, 3))))

    def test_translation_invariant(self):
        g = rng(9)
        pts = g.uniform(-10, 10, (40, 3))
        a = bbox_diagonal(cloud_of(pts))
        b = bbox_diagonal(cloud_of(pts + [100.0, -50.0, 7.0]))
        assert a == pytest.approx(b)


class TestPointCloudValidation:
    def test_every_channel_is_required(self):
        with pytest.raises(TypeError, match="colors"):
            PointCloud([[0, 0, 0]], [[0, 0, 1.0]])
        with pytest.raises(TypeError, match="normals"):
            PointCloud([[0, 0, 0]], colors=[[0.5, 0.5, 0.5]])

    def test_channel_length_mismatch(self):
        with pytest.raises(ValueError, match="normals has 1 rows"):
            PointCloud([[0, 0, 0], [1, 1, 1]], [[0, 0, 1.0]], [[0.5, 0.5, 0.5]] * 2)

    def test_non_unit_normals_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            PointCloud([[0, 0, 0]], [[0, 0, 2.0]], [[0.5, 0.5, 0.5]])

    def test_colors_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="colors outside"):
            PointCloud([[0, 0, 0]], [[0, 0, 1.0]], [[0, 0, 1.5]])

    @staticmethod
    def full_cloud(seed=10):
        g = rng(seed)
        normals = g.normal(size=(4, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        return PointCloud(g.uniform(-5, 5, (4, 3)), normals, g.uniform(0, 1, (4, 3)))

    def test_save_load_roundtrip(self, tmp_path):
        cloud = self.full_cloud()
        cloud.save(tmp_path)
        back = PointCloud.load(tmp_path)
        for channel in ("points", "normals", "colors"):
            assert np.array_equal(getattr(back, channel), getattr(cloud, channel))

    def test_load_names_a_missing_channel(self, tmp_path):
        self.full_cloud().save(tmp_path)
        (tmp_path / "colors.npy").unlink()
        with pytest.raises(FileNotFoundError, match="colors.npy"):
            PointCloud.load(tmp_path)

    def test_load_rejects_nan(self, tmp_path):
        np.save(tmp_path / "points.npy", np.array([[0.0, 0.0, np.nan]]))
        with pytest.raises(ValueError, match="NaN"):
            PointCloud.load(tmp_path)

    def test_load_refuses_pickled_arrays(self, tmp_path):
        rows = np.empty(2, dtype=object)
        rows[:] = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]
        np.save(tmp_path / "points.npy", rows, allow_pickle=True)
        with pytest.raises(ValueError, match="allow_pickle"):
            PointCloud.load(tmp_path)


class TestObjectModel:
    def test_keypoint_cap(self):
        pts = rng(12).uniform(-10, 10, (500, 3))
        model = ObjectModel("thing", cloud_of(pts))
        assert len(model.keypoints) == MAX_KEYPOINTS
        np.testing.assert_array_equal(model.keypoints, farthest_point_sample(pts, MAX_KEYPOINTS))
        assert model.diagonal == bbox_diagonal(model.cloud)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError, match="diagonal must be positive"):
            ObjectModel("bad", cloud_of([[0, 0, 0]]))

    def test_saved_object_reloads_exactly(self, tmp_path):
        model = make_object({"shape": "cylinder", "id": "cyl"})
        save_object(model, tmp_path / "cyl")
        back = load_object(tmp_path / "cyl")
        assert back.object_id == "cyl" and back.diagonal == model.diagonal
        assert np.array_equal(back.keypoints, model.keypoints)
        assert np.array_equal(back.cloud.normals, model.cloud.normals)
        assert len(back.symmetry) == len(model.symmetry) == 11
        for a, b in zip(back.symmetry, model.symmetry):
            assert np.array_equal(a.rotation, b.rotation)

    def test_farthest_point_sample_spreads(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0], [0.1, 0, 0]])
        sample = farthest_point_sample(pts, 2)
        assert [0.0, 0, 0] in sample.tolist()
        assert [10.0, 0, 0] in sample.tolist()


class TestMakeObject:
    @pytest.mark.parametrize("spec, diagonal", [
        ({"shape": "box", "id": "b", "size": [10, 20, 20], "color": [0, 1, 0]}, 30.0),
        ({"shape": "cylinder", "id": "c", "radius": 10.0, "height": 40.0,
          "color": [0, 1, 0]}, np.sqrt(2400.0)),
        ({"shape": "lshape", "id": "l", "size": [20, 40, 40], "color": [0, 1, 0]}, 60.0),
    ], ids=["box", "cylinder", "lshape"])
    def test_every_key_a_shape_reads_is_used(self, spec, diagonal):
        model = make_object(spec)
        assert model.diagonal == pytest.approx(diagonal)
        np.testing.assert_array_equal(np.unique(model.cloud.colors, axis=0), [[0, 1, 0]])

    def test_unknown_keys_are_named(self):
        # a misspelt key used to build the default box in the default colour
        with pytest.raises(ValueError, match=r"\['colour', 'sise'\]"):
            make_object({"shape": "box", "id": "b", "sise": [10, 10, 10], "colour": [0, 1, 0]})

    def test_a_path_spec_holds_only_the_path(self, tmp_path):
        save_object(make_object({"shape": "box", "id": "b"}), tmp_path / "b")
        assert make_object({"path": str(tmp_path / "b")}).object_id == "b"
        with pytest.raises(ValueError, match=r"\['id'\]"):
            make_object({"path": str(tmp_path / "b"), "id": "other"})

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape 'sphere'"):
            make_object({"shape": "sphere", "id": "s", "radius": 3.0})
