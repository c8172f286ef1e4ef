"""Test-time refinement: isolation, no-op loop, declined path, loss trend,
the label proxy's bits and what an iteration holds."""

import tracemalloc
import weakref

import numpy as np
import pytest

from volpose import ops
from volpose.model import (
    DetectorConfig,
    build_detector,
    decode_prediction,
    infer,
    output_node,
    predict,
    prepare_volume,
)
from volpose.optim import Adam
import volpose.refine as refine_module
from volpose.refine import RefineConfig, refine, refine_batch
from volpose import heatmap
from volpose.anatomy import NUM_LANDMARKS
from volpose.registration import Pose, PoseLibrary, build_label_proxy


CFG = DetectorConfig(depth=1, base_channels=4, input_scale=1.0, sigma_vox=2.0)


def detector():
    return build_detector(CFG, seed=0)


def plain_pose(graph, vol, confidence_floor):
    return decode_prediction(*infer(graph, vol, 1.0, CFG), confidence_floor=confidence_floor)


def library(rng, n=12, shape=(16, 16, 16), margin=5.0):
    nz, ny, nx = shape
    lo, hi = margin, np.array([nx, ny, nz]) - 1 - margin
    poses = [Pose(rng.uniform(lo, hi, size=(16, 3))) for _ in range(n)]
    return PoseLibrary([f"atlas_{i:02d}" for i in range(n)], poses, ["train"] * n)


def volume(rng, shape=(16, 16, 16)):
    return rng.uniform(0, 1, size=shape).astype(np.float32)


def test_zero_iterations_equals_plain_inference():
    rng = np.random.default_rng(0)
    g = detector()
    vol = volume(rng)
    lib = library(rng)
    cfg = RefineConfig(iterations=0, confidence_floor=0.0)
    res = refine(g, vol, 1.0, lib, CFG, cfg)
    plain = plain_pose(g, vol, confidence_floor=0.0)
    np.testing.assert_array_equal(res.pose.xyz_mm, plain.xyz_mm)
    assert res.trace == []
    assert not res.declined


@pytest.mark.parametrize("last", [False, True])
def test_update_returns_the_head_a_fresh_predict_gives(last):
    # the proxy loss after the step reads the head without writing it: the
    # head that refine decodes is the updated detector's prediction
    rng = np.random.default_rng(3)
    g = detector()
    net_in, frame = prepare_volume(volume(rng), 1.0, CFG)
    g.forward({"volume": net_in}, to_node=output_node(g))
    proxy = rng.uniform(size=(NUM_LANDMARKS, *frame.net_shape)).astype(np.float32)
    adam = Adam(g.parameters(), lr=1e-3)
    _, loss_post, head = refine_module._update(g, adam, net_in, proxy, last)
    fresh = predict(g, net_in)
    assert head.tobytes() == fresh.tobytes()
    assert loss_post == float(ops.l2_loss_forward(fresh, proxy))


def test_defaults_match_protocol():
    cfg = RefineConfig()
    assert cfg.iterations == 6
    assert cfg.lr == 5e-4
    assert cfg.k_support == 10


def test_base_model_parameters_bitwise_unchanged():
    rng = np.random.default_rng(1)
    g = detector()
    before = {k: v.copy() for k, v in g.parameters().items()}
    refine(g, volume(rng), 1.0, library(rng), CFG, RefineConfig(iterations=3, confidence_floor=0.0))
    for k, v in g.parameters().items():
        np.testing.assert_array_equal(v, before[k])


def test_trace_has_one_record_per_iteration():
    rng = np.random.default_rng(2)
    res = refine(
        detector(), volume(rng), 1.0, library(rng), CFG,
        RefineConfig(iterations=4, k_support=5, confidence_floor=0.0),
    )
    assert [r.iteration for r in res.trace] == [0, 1, 2, 3]
    for rec in res.trace:
        assert len(rec.support_ids) == 5
        assert rec.mean_support_error >= 0.0


def test_declined_when_too_few_valid_landmarks():
    rng = np.random.default_rng(3)
    g = detector()
    vol = volume(rng)
    # an untrained float32 net never reaches peak 1e9, so every landmark is
    # invalid and retrieval must decline, returning the raw prediction
    cfg = RefineConfig(iterations=4, confidence_floor=1e9)
    res = refine(g, vol, 1.0, library(rng), CFG, cfg)
    assert res.declined
    assert res.trace == []
    plain = plain_pose(g, vol, confidence_floor=1e9)
    np.testing.assert_array_equal(res.pose.xyz_mm, plain.xyz_mm)


def test_proxy_loss_does_not_increase_within_iteration():
    rng = np.random.default_rng(4)
    res = refine(
        detector(), volume(rng), 1.0, library(rng), CFG,
        RefineConfig(iterations=6, confidence_floor=0.0),
    )
    assert len(res.trace) == 6
    for rec in res.trace:
        assert rec.loss_post <= rec.loss_pre * (1.0 + 1e-6), (
            f"iteration {rec.iteration}: {rec.loss_pre} -> {rec.loss_post}"
        )


def test_identical_cases_identical_traces():
    rng = np.random.default_rng(5)
    g = detector()
    vol = volume(rng)
    lib = library(rng)
    cfg = RefineConfig(iterations=3, confidence_floor=0.0)
    cases = [("a", vol, np.ones(3)), ("b", vol.copy(), np.ones(3))]
    results, summary = refine_batch(g, cases, lib, CFG, cfg)
    ra, rb = results["a"], results["b"]
    assert [r.loss_pre for r in ra.trace] == [r.loss_pre for r in rb.trace]
    np.testing.assert_array_equal(ra.pose.xyz_mm, rb.pose.xyz_mm)
    assert summary.n_cases == 2 and summary.n_declined == 0


def test_case_order_permutation_invariant():
    rng = np.random.default_rng(6)
    g = detector()
    lib = library(rng)
    vols = [volume(rng) for _ in range(3)]
    cfg = RefineConfig(iterations=2, confidence_floor=0.0)
    cases = [(f"c{i}", v, np.ones(3)) for i, v in enumerate(vols)]
    fwd, _ = refine_batch(g, cases, lib, CFG, cfg)
    rev, _ = refine_batch(g, cases[::-1], lib, CFG, cfg)
    for cid in ("c0", "c1", "c2"):
        np.testing.assert_array_equal(fwd[cid].pose.xyz_mm, rev[cid].pose.xyz_mm)


def test_refine_batch_drops_each_volume_before_drawing_the_next():
    rng = np.random.default_rng(8)
    g = detector()
    lib = library(rng)
    refs = []

    def stream():
        for i in range(3):
            if refs:
                assert refs[-1]() is None, f"case {i - 1}'s volume is held as case {i} is drawn"
            vol = volume(rng)
            refs.append(weakref.ref(vol))
            yield f"c{i}", vol, np.ones(3)
            del vol

    cfg = RefineConfig(iterations=1, confidence_floor=0.0)
    results, summary = refine_batch(g, stream(), lib, CFG, cfg)
    assert len(refs) == 3 and sorted(results) == ["c0", "c1", "c2"]
    assert summary.n_cases == 3 and summary.n_aborted == 0


def test_batch_summary_mean_of_final_losses():
    rng = np.random.default_rng(7)
    g = detector()
    lib = library(rng)
    cfg = RefineConfig(iterations=2, confidence_floor=0.0)
    cases = [(f"c{i}", volume(rng), np.ones(3)) for i in range(4)]
    results, summary = refine_batch(g, cases, lib, CFG, cfg)
    finals = [results[f"c{i}"].trace[-1].loss_post for i in range(4)]
    assert summary.mean_final_proxy_loss == pytest.approx(np.mean(finals))


def test_proxy_lands_in_the_network_frame(monkeypatch):
    # at input_scale 0.5 with padding, net voxels are neither mm nor original
    # voxels: decoding refine's proxy through the frame must give back the
    # aligned atlas in mm
    seen = {}

    def spy(name):
        real = getattr(refine_module, name)

        def wrapper(*args, **kwargs):
            seen[name] = out = real(*args, **kwargs)
            return out

        monkeypatch.setattr(refine_module, name, wrapper)

    spy("retrieve_support")
    spy("build_label_proxy")
    cfg = DetectorConfig(depth=2, base_channels=2, input_scale=0.5, sigma_vox=2.0)
    rng = np.random.default_rng(9)
    vol = rng.uniform(0, 1, size=(20, 24, 28)).astype(np.float32)
    spacing = np.array([0.8, 1.25, 1.0])     # (sx, sy, sz)
    # library poses spread around the volume center, so every aligned atlas
    # lies well inside the grid
    center = (np.array([28, 24, 20]) - 1) * spacing / 2
    poses = [Pose(center + rng.uniform(-5.0, 5.0, size=(16, 3))) for _ in range(4)]
    lib = PoseLibrary([f"atlas_{i}" for i in range(4)], poses, ["train"] * 4)
    net_in, frame = prepare_volume(vol, spacing, cfg)
    assert net_in.shape[1:] != tuple(n // 2 for n in vol.shape)   # padded
    refine(
        build_detector(cfg, seed=0), vol, spacing, lib, cfg,
        RefineConfig(iterations=1, k_support=1, confidence_floor=0.0),
    )
    support, proxy = seen["retrieve_support"], seen["build_label_proxy"]
    assert len(support) == 1 and proxy.shape == (16,) + frame.net_shape
    dec = decode_prediction(proxy, frame)
    err = np.linalg.norm(dec.xyz_mm - support.aligned_mm[0], axis=1)
    assert err.max() < 1.0


def reference_build_label_proxy(points_vox, present, shape, sigma_vox):
    """The label proxy as a whole (16, D, H, W) float64 stack: every present
    map added to its channel in ascending k, then divided by K and cast."""
    nz, ny, nx = shape
    acc = np.zeros((NUM_LANDMARKS, nz, ny, nx), dtype=np.float64)
    chan = np.zeros((nz, ny, nx), dtype=np.float32)
    for k, j in zip(*np.nonzero(present)):
        chan[:] = 0.0
        heatmap.encode_channel(points_vox[k, j], shape, sigma_vox, out=chan)
        acc[j] += chan
    acc /= len(points_vox)
    return acc.astype(np.float32)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_label_proxy_is_byte_equal_to_the_whole_stack_reference(k):
    rng = np.random.default_rng(100 + k)
    shape = (12, 14, 16)
    # positions on and around the grid: some landmarks fall outside it,
    # some only partly, and about a quarter are masked
    points = rng.uniform(-4.0, 19.0, size=(k, NUM_LANDMARKS, 3))
    points[0, 3] = (-30.0, 5.0, 5.0)
    present = rng.uniform(size=(k, NUM_LANDMARKS)) > 0.25
    present[:, 5] = False
    outside = (points < 0).any(axis=-1) | (points > np.array([15, 13, 11])).any(axis=-1)
    assert (outside & present).any() and (~present).any()
    proxy = build_label_proxy(points, present, shape, 2.0)
    expected = reference_build_label_proxy(points, present, shape, 2.0)
    assert proxy.dtype == expected.dtype and proxy.shape == expected.shape
    assert proxy.tobytes() == expected.tobytes()
    assert not proxy[5].any()


def test_later_iterations_hold_no_more_than_the_first():
    # an iteration keeps nothing of the last one: not the old head, not its
    # gradient, not the old proxy. At 32^3 each of those is 2 MB
    cfg = DetectorConfig(depth=1, base_channels=4, input_scale=1.0, sigma_vox=2.0)
    rng = np.random.default_rng(11)
    g = build_detector(cfg, seed=0)
    vol = volume(rng, shape=(32, 32, 32))
    lib = library(rng, shape=(32, 32, 32), margin=8.0)

    def peak(iterations):
        tracemalloc.start()
        try:
            res = refine(g, vol, 1.0, lib, cfg,
                         RefineConfig(iterations=iterations, k_support=4, confidence_floor=0.0))
            return tracemalloc.get_traced_memory()[1], res
        finally:
            tracemalloc.stop()

    one, res1 = peak(1)
    three, res3 = peak(3)
    assert len(res1.trace) == 1 and len(res3.trace) == 3
    assert three <= one + 0.25e6, f"3 iterations peak at {three / 1e6:.2f} MB, 1 at {one / 1e6:.2f} MB"
