"""Metrics against hand-computed oracles and invariance properties."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volpose import metrics
from volpose.anatomy import FLIP_PERMUTATION
from volpose.metrics import (
    DEFAULT_THRESHOLDS,
    MetricsError,
    auc,
    build_report,
    euclidean,
    labelling_counts,
    pck_curve,
    segment_lengths,
    write_report,
)
from volpose.registration import Pose


def pose_of(xyz):
    return Pose(np.asarray(xyz, dtype=np.float64))


def random_pose(rng, scale=30.0):
    return Pose(rng.normal(scale=scale, size=(16, 3)))


def test_euclidean_identical_poses_zero():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    np.testing.assert_array_equal(euclidean(p, p), np.zeros(16))


def test_euclidean_3_4_5():
    rng = np.random.default_rng(1)
    gt = random_pose(rng)
    pred = gt.copy()
    pred.xyz_mm[6] += [3.0, 4.0, 0.0]
    d = euclidean(pred, gt)
    assert d[6] == 5.0
    assert d[0] == 0.0


def test_euclidean_masked_pairs_are_nan():
    rng = np.random.default_rng(2)
    gt = random_pose(rng)
    pred = gt.copy()
    pred.present[3] = False
    d = euclidean(pred, gt)
    assert np.isnan(d[3])
    assert np.isfinite(np.delete(d, 3)).all()


def test_euclidean_rigid_invariance():
    rng = np.random.default_rng(4)
    gt = random_pose(rng)
    pred = random_pose(rng)
    base = euclidean(pred, gt)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    t = rng.normal(scale=100.0, size=3)
    moved = euclidean(
        pose_of(pred.xyz_mm @ rot.T + t), pose_of(gt.xyz_mm @ rot.T + t)
    )
    np.testing.assert_allclose(moved, base, atol=1e-9)


def test_pck_hand_values():
    # distances {1, 3}: threshold 2 -> exactly one of two below
    d = np.array([[1.0, 3.0]])
    curve = pck_curve(d.T, np.array([2.0]))  # two cases, one landmark
    assert curve["pooled"][0] == 0.5


def test_pck_above_max_distance_is_one():
    d = np.array([[1.0, 3.0, 7.0]])
    curve = pck_curve(d.T, np.array([8.0]))
    assert curve["pooled"][0] == 1.0


def test_pck_strict_inequality():
    d = np.array([[2.0]])
    curve = pck_curve(d, np.array([2.0, 2.0001]))
    assert curve["pooled"][0] == 0.0  # distance == threshold does not count
    assert curve["pooled"][1] == 1.0


def test_pck_counting_oracle_five_distances():
    dists = np.array([0.4, 1.1, 2.0, 2.9, 10.0])
    thresholds = np.array([0.5, 1.0, 2.5, 3.0, 11.0])
    curve = pck_curve(dists[:, None], thresholds)
    expected = [
        sum(d < t for d in dists) / 5 for t in thresholds
    ]  # brute-force count
    np.testing.assert_allclose(curve["pooled"], expected)


def test_pck_counts_invalid_distance_as_miss():
    # NaN is a landmark with no valid prediction: a miss at every threshold,
    # never a smaller denominator
    d = np.array([[1.0], [np.nan]])
    curve = pck_curve(d, np.array([2.0, 50.0]))
    np.testing.assert_array_equal(curve["pooled"], [0.5, 0.5])
    np.testing.assert_array_equal(curve["per_landmark"][:, 0], [0.5, 0.5])
    assert curve["n_valid"][0] == 1


def test_report_masked_landmark_lowers_pck_and_coverage(tmp_path):
    rng = np.random.default_rng(12)
    gts = {f"case_{i}": random_pose(rng) for i in range(2)}
    preds = {k: v.copy() for k, v in gts.items()}
    full = build_report(preds, gts)
    assert full.coverage == 1.0 and full.mean_auc == 100.0
    preds["case_1"].present[5] = False
    masked = build_report(preds, gts)
    assert masked.coverage == 31 / 32
    np.testing.assert_array_equal(masked.pck["pooled"], 31 / 32)
    assert masked.per_landmark_auc[5] == 50.0
    assert masked.mean_auc < full.mean_auc
    write_report(masked, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text())["coverage"] == 31 / 32


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_report_without_valid_distance_writes_null(tmp_path):
    rng = np.random.default_rng(13)
    gts = {f"case_{i}": random_pose(rng) for i in range(2)}
    preds = {k: v.copy() for k, v in gts.items()}
    for p in preds.values():
        p.present[5] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = build_report(preds, gts)
    write_report(report, tmp_path / "one")
    doc = _strict_json((tmp_path / "one" / "report.json").read_text())
    assert doc["per_landmark_mean_mm"][5] is None
    assert [v for j, v in enumerate(doc["per_landmark_mean_mm"]) if j != 5] == [0.0] * 15
    assert doc["mean_distance_mm"] == 0.0
    assert None in doc["segment_lengths_mm"]["case_0"]  # segments ending at landmark 6
    for p in preds.values():
        p.present[:] = False
    write_report(build_report(preds, gts), tmp_path / "none")
    doc = _strict_json((tmp_path / "none" / "report.json").read_text())
    assert doc["mean_distance_mm"] is None
    assert doc["per_landmark_mean_mm"] == [None] * 16


def test_pck_rejects_empty_and_bad_grid():
    with pytest.raises(MetricsError, match="empty"):
        pck_curve(np.array([[1.0]]), np.array([]))
    with pytest.raises(MetricsError, match="increasing"):
        pck_curve(np.array([[1.0]]), np.array([1.0, 1.0]))


def test_auc_constant_one_is_100():
    t = np.linspace(0, 30, 61)
    assert auc(np.ones_like(t), t) == 100.0


def test_auc_constant_half_is_50():
    t = np.linspace(0, 30, 61)
    assert auc(np.full_like(t, 0.5), t) == 50.0


def test_auc_step_at_midgrid_hand_computed():
    # PCK 0 on [0, 15), 1 on [15, 30]: trapezoid gives one transition cell
    t = np.arange(0.0, 30.0 + 1e-9, 0.5)
    pck = (t >= 15.0).astype(float)
    # hand computation: 30 cells of width 0.5 at 1.0 starting at 15;
    # the ramp cell 14.5..15 contributes 0.25*0.5
    expected = ((30.0 - 15.0) * 1.0 + 0.5 * 0.5 * 1.0) / 30.0 * 100.0
    assert abs(auc(pck, t) - expected) < 1e-9


def test_auc_single_point_rejected():
    with pytest.raises(MetricsError, match="two-point"):
        auc(np.array([1.0]), np.array([5.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 40))
def test_pck_monotone_and_bounded(seed, n):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0, 40, size=(n, 16))
    curve = pck_curve(d, DEFAULT_THRESHOLDS)
    pooled = curve["pooled"]
    assert np.all(np.diff(pooled) >= 0)
    assert np.all((0 <= pooled) & (pooled <= 1))
    a = auc(pooled, DEFAULT_THRESHOLDS)
    assert 0.0 <= a <= 100.0


def test_auc_grid_refinement_stability():
    rng = np.random.default_rng(7)
    d = rng.gamma(shape=2.0, scale=3.0, size=(50, 16))
    coarse = np.arange(0.0, 30.0 + 1e-9, 0.5)
    fine = np.arange(0.0, 30.0 + 1e-9, 0.25)
    a1 = auc(pck_curve(d, coarse)["pooled"], coarse)
    a2 = auc(pck_curve(d, fine)["pooled"], fine)
    assert abs(a1 - a2) < 1.0  # percent absolute


def test_segment_lengths_unit_offset():
    xyz = np.zeros((16, 3))
    # chain segment (1,2): put neck 1mm from head along x
    xyz[1] = [1.0, 0.0, 0.0]
    # keep remaining landmarks distinct to avoid zero-length confusion
    for j in range(2, 16):
        xyz[j] = [j * 2.0, 0.0, 0.0]
    lengths = segment_lengths(pose_of(xyz))
    assert lengths[0] == 1.0


def test_segment_lengths_rigid_invariance():
    rng = np.random.default_rng(8)
    p = random_pose(rng)
    base = segment_lengths(p)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] *= -1
    moved = segment_lengths(pose_of(p.xyz_mm @ rot.T + rng.normal(size=3)))
    np.testing.assert_allclose(moved, base, atol=1e-9)


def test_segment_lengths_masked_endpoint_absent():
    rng = np.random.default_rng(9)
    p = random_pose(rng)
    p.present[0] = False  # head_top masks segment (1, 2)
    lengths = segment_lengths(p)
    assert np.isnan(lengths[0])
    assert np.isfinite(lengths[1:]).all()


def test_report_perfect_predictions(tmp_path):
    rng = np.random.default_rng(10)
    gts = {f"case_{i}": random_pose(rng) for i in range(4)}
    preds = {k: v.copy() for k, v in gts.items()}
    report = build_report(preds, gts)
    assert report.mean_mm == 0.0
    assert report.mean_auc == 100.0
    write_report(report, tmp_path, stamp={"config_hash": "xyz"})
    header = (tmp_path / "distance_table.csv").read_text().splitlines()
    assert header[0].startswith("# ")
    cols = header[1].split(",")
    assert cols == ["metric"] + [f"L{j}" for j in range(1, 17)] + ["mean"]


def test_report_reproducible_bytes(tmp_path):
    rng = np.random.default_rng(11)
    gts = {f"case_{i}": random_pose(rng) for i in range(3)}
    preds = {k: pose_of(v.xyz_mm + rng.normal(size=(16, 3))) for k, v in gts.items()}
    for sub in ("a", "b"):
        write_report(build_report(preds, gts), tmp_path / sub)
    for name in ("report.json", "distance_table.csv", "auc_table.csv", "pck_curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def labelling_fixture():
    """A truth with every landmark 100 mm from the next on a line, except
    the knees, 14 mm apart, and a prediction with known swaps and collapses
    (0-based indices; left/right pairs 4/7, 5/8, 6/9, 10/13, 11/14, 12/15).
    """
    xyz = np.array([[100.0 * i, 0.0, 0.0] for i in range(16)])
    xyz[11], xyz[14] = [0.0, 500.0, 0.0], [14.0, 500.0, 0.0]
    gt = pose_of(xyz)
    pred = gt.copy()
    pred.xyz_mm[0] = pred.xyz_mm[1] = gt.xyz_mm[4]  # midline: never counts
    pred.xyz_mm[4], pred.xyz_mm[7] = gt.xyz_mm[7], gt.xyz_mm[4]  # shoulders swapped: 2
    pred.xyz_mm[5] = gt.xyz_mm[8] + [3.0, 0.0, 0.0]  # l_elbow on r_elbow: 1, and collapsed
    pred.xyz_mm[6] = pred.xyz_mm[9] = (gt.xyz_mm[6] + gt.xyz_mm[9]) / 2  # wrists: collapsed only
    pred.xyz_mm[10] = gt.xyz_mm[13] + [6.0, 0.0, 0.0]  # l_hip 6 mm from r_hip's truth: 1
    pred.xyz_mm[11] = [8.0, 500.0, 0.0]  # l_knee 8 mm from its own truth: not more than 8
    pred.xyz_mm[12], pred.xyz_mm[15] = gt.xyz_mm[15], gt.xyz_mm[12]  # ankles swapped, but
    pred.present[12] = False  # l_ankle's prediction and
    gt.present[12] = False  # truth are masked: neither counts
    return pred, gt


def test_labelling_counts_on_a_hand_fixture(tmp_path):
    pred, gt = labelling_fixture()
    assert labelling_counts(pred, gt) == (4, 2)
    assert labelling_counts(gt, gt) == (0, 0)
    # every pair swapped: each limb landmark sits on its partner's truth
    mirrored = pose_of(gt.xyz_mm[list(FLIP_PERMUTATION)])
    assert labelling_counts(mirrored, pose_of(gt.xyz_mm)) == (12, 0)
    # midline and masked landmarks never count, wherever they are predicted
    for i in (0, 1, 2, 3, 12, 15):
        moved = pred.copy()
        moved.xyz_mm[i] = gt.xyz_mm[7] + [0.5, 0.0, 0.0]
        assert labelling_counts(moved, gt) == (4, 2), i

    report = build_report({"a": pred, "b": gt.copy()}, {"a": gt, "b": gt})
    assert (report.mislabelled, report.collapsed_pairs) == (4, 2)
    write_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert (doc["mislabelled"], doc["collapsed_pairs"]) == (4, 2)
    assert doc["labelling_margins_mm"] == {
        "mislabelled_own_more_than": metrics.MISLABEL_OWN_MM,
        "mislabelled_partner_within": metrics.MISLABEL_PARTNER_MM,
        "collapsed_within": metrics.COLLAPSE_MM,
    } == {"mislabelled_own_more_than": 8.0, "mislabelled_partner_within": 6.0,
          "collapsed_within": 4.0}
