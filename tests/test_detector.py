"""Detector graph construction, preprocessing, training, and inference."""

import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from volpose import heatmap, ops
from volpose.fileio import FileFormatError
from volpose.graph import Graph, GraphError, MissingValue, select_checkpoints
from volpose.optim import Adam
from volpose.model import (
    DetectorConfig,
    TrainConfig,
    build_detector,
    decode_prediction,
    infer,
    output_node,
    predict,
    prepare_volume,
    train,
)
from volpose.registration import Pose
from volpose.serialize import load_model, save_model


def encode_targets(pose, frame, sigma_vox):
    """Ground-truth heatmaps in the network frame, as training encodes them."""
    return heatmap.encode(
        frame.mm_to_net_voxel(pose.xyz_mm), frame.net_shape, 1.0, sigma_vox, pose.present
    )


def small_cfg(**kw):
    base = dict(depth=1, base_channels=2, convs_per_block=2, input_scale=1.0, sigma_vox=1.5)
    base.update(kw)
    return DetectorConfig(**base)


def random_case(rng, shape=(16, 16, 16), margin=4.0):
    nz, ny, nx = shape
    vol = rng.uniform(0.0, 1.0, size=shape).astype(np.float32)
    lo, hi = margin, np.array([nx, ny, nz]) - 1 - margin
    pose = Pose(rng.uniform(lo, hi, size=(16, 3)))
    return vol, pose, np.ones(3)


def test_depth1_output_shape():
    cfg = small_cfg()
    g = build_detector(cfg, seed=0)
    vol = np.random.default_rng(0).normal(size=(8, 8, 8)).astype(np.float32)
    stack, frame = infer(g, vol, 1.0, cfg)
    assert stack.shape == (16, 8, 8, 8)


@pytest.mark.parametrize("checkpoints", [set(), {3, 7}])
def test_predict_keeps_no_values_and_gives_the_plain_head(checkpoints):
    # a forward that no backward follows: the plain forward's head bits, the
    # caller's checkpoint set as it was, no value left on the graph, and no
    # backward to run
    cfg = small_cfg(depth=2)
    g = build_detector(cfg, seed=4)
    g.set_checkpoints(checkpoints)
    net_in = np.random.default_rng(5).normal(size=(1, 8, 8, 8)).astype(np.float32)
    g.forward({"volume": net_in}, to_node=output_node(g))
    plain = g.value(output_node(g)).copy()
    head = predict(g, net_in)
    assert head.tobytes() == plain.tobytes()
    assert g.checkpoint_set == checkpoints
    assert all(node.value is None for node in g.nodes)
    with pytest.raises(MissingValue):
        g.backward_plain(np.ones_like(head))


def test_depth3_has_three_concats():
    g = build_detector(DetectorConfig(depth=3, base_channels=2), seed=0)
    concats = [n for n in g.nodes if n.op == "channel_concat"]
    assert len(concats) == 3


def test_output_spatial_shape_preserved_any_valid_config():
    cfg = DetectorConfig(depth=2, base_channels=2, convs_per_block=3, input_scale=1.0)
    g = build_detector(cfg, seed=1)
    vol = np.random.default_rng(1).normal(size=(8, 12, 16)).astype(np.float32)
    stack, _ = infer(g, vol, 1.0, cfg)
    assert stack.shape == (16, 8, 12, 16)


def test_infer_deterministic():
    cfg = small_cfg()
    g = build_detector(cfg, seed=2)
    vol = np.random.default_rng(3).normal(size=(8, 8, 8)).astype(np.float32)
    a, _ = infer(g, vol, 1.0, cfg)
    b, _ = infer(g, vol, 1.0, cfg)
    np.testing.assert_array_equal(a, b)


def test_prepare_volume_pads_and_frames():
    cfg = DetectorConfig(depth=2, input_scale=1.0)
    vol = np.random.default_rng(4).normal(size=(6, 8, 7)).astype(np.float32)
    net_in, frame = prepare_volume(vol, 1.0, cfg)
    assert net_in.shape == (1, 8, 8, 8)
    # round trip: mm -> net voxel -> mm
    p = np.array([3.0, 4.0, 5.0])
    np.testing.assert_allclose(frame.net_voxel_to_mm(frame.mm_to_net_voxel(p)), p)


def test_prepare_volume_downscale_frame_round_trip():
    cfg = DetectorConfig(depth=1, input_scale=0.5)
    vol = np.random.default_rng(5).normal(size=(16, 16, 16)).astype(np.float32)
    net_in, frame = prepare_volume(vol, 1.0, cfg)
    assert net_in.shape == (1, 8, 8, 8)
    assert frame.net_spacing == (2.0, 2.0, 2.0)
    # a point at original voxel (10, 10, 10) mm=10: net voxel (10-0.5)/2 = 4.75
    np.testing.assert_allclose(frame.mm_to_net_voxel([10.0, 10.0, 10.0]), [4.75, 4.75, 4.75])
    np.testing.assert_allclose(frame.net_voxel_to_mm([4.75, 4.75, 4.75]), [10.0, 10.0, 10.0])


def test_prepare_volume_normalizes():
    cfg = DetectorConfig(depth=1, input_scale=1.0)
    vol = (np.random.default_rng(6).normal(size=(8, 8, 8)) * 7 + 3).astype(np.float32)
    net_in, _ = prepare_volume(vol, 1.0, cfg)
    assert abs(float(net_in.mean())) < 1e-5
    assert abs(float(net_in.std()) - 1.0) < 1e-4


def test_encode_decode_through_frame():
    cfg = DetectorConfig(depth=1, input_scale=0.5, sigma_vox=2.0)
    rng = np.random.default_rng(7)
    vol, pose, spacing = random_case(rng, (32, 32, 32), margin=8.0)
    _, frame = prepare_volume(vol, spacing, cfg)
    target = encode_targets(pose, frame, cfg.sigma_vox)
    dec = decode_prediction(target, frame)
    err = np.linalg.norm(dec.xyz_mm - pose.xyz_mm, axis=1)
    # half a net voxel at scale 0.5 is one original-frame mm
    assert err.max() < 1.0


def test_train_single_case_overfit():
    cfg = small_cfg(depth=2, base_channels=8, sigma_vox=1.5)
    g = build_detector(cfg, seed=8)
    rng = np.random.default_rng(9)
    case = random_case(rng, (16, 16, 16), margin=4.0)
    tc = TrainConfig(lr=1e-3, epochs=50, seed=0)  # 50 steps on one case
    result = train(g, [case], tc, cfg)
    losses = [loss for _, _, loss in result.loss_curve]
    # the all-zeros output scores mean(target^2); having learned the case
    # means beating that baseline clearly, not merely shrinking the first loss
    vol, pose, spacing = case
    _, frame = prepare_volume(vol, spacing, cfg)
    zero_loss = float(np.mean(encode_targets(pose, frame, cfg.sigma_vox) ** 2))
    assert losses[-1] <= 0.5 * zero_loss


def test_fresh_reference_detector_has_live_gradients_everywhere():
    # a dead head (e.g. exactly zero weights) would zero the gradient of
    # every tensor below it, and the bitwise checkpointing comparisons of
    # the reference detector would then compare zeros
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    g = build_detector(cfg, seed=0)
    rng = np.random.default_rng(0)
    g.forward({
        "volume": rng.normal(size=(1, 32, 32, 32)).astype(np.float32),
        "target": rng.normal(size=(16, 32, 32, 32)).astype(np.float32),
    })
    grads = g.backward_plain()
    assert set(grads) == set(g.parameters())
    assert len(grads) == 64
    dead = [key for key, grad in grads.items() if not np.any(grad)]
    assert dead == []


def test_train_deterministic_given_seed():
    cfg = small_cfg(depth=1, base_channels=2)
    rng = np.random.default_rng(10)
    case = random_case(rng, (8, 8, 8), margin=2.0)
    curves = []
    for _ in range(2):
        g = build_detector(cfg, seed=11)
        res = train(g, [case], TrainConfig(epochs=3, seed=1), cfg)
        curves.append([loss for _, _, loss in res.loss_curve])
    assert curves[0] == curves[1]


def test_train_rejects_empty_dataset():
    cfg = small_cfg()
    g = build_detector(cfg)
    with pytest.raises(GraphError, match="empty"):
        train(g, [], TrainConfig(epochs=1), cfg)


def test_train_rejects_out_of_bounds_landmark_with_case_index():
    cfg = small_cfg()
    g = build_detector(cfg)
    rng = np.random.default_rng(12)
    good = random_case(rng, (8, 8, 8), margin=2.0)
    vol, pose, spacing = random_case(rng, (8, 8, 8), margin=2.0)
    pose.xyz_mm[2] = [100.0, 0.0, 0.0]
    before = {k: v.copy() for k, v in g.parameters().items()}
    with pytest.raises(GraphError, match="case 1"):
        train(g, iter([good, (vol, pose, spacing)]), TrainConfig(epochs=1), cfg)
    # the case is rejected before any step: no forward ran, no parameter moved
    assert g.schedule is None and g.meter.peak == 0
    for k, v in g.parameters().items():
        assert v.tobytes() == before[k].tobytes()


@pytest.mark.parametrize("checkpointed", [False, True], ids=["plain", "block_boundary"])
def test_streamed_training_equals_a_loop_over_pre_encoded_targets(checkpointed):
    # train encodes each target when its step runs, from a case it drew once;
    # a hand loop over targets encoded up front gives the same bits
    cfg = small_cfg(depth=2, base_channels=2)
    rng = np.random.default_rng(32)
    cases = [random_case(rng, (8, 8, 8), margin=2.0) for _ in range(3)]
    tc = TrainConfig(epochs=3, seed=4)

    def detector():
        g = build_detector(cfg, seed=33)
        if checkpointed:
            g.set_checkpoints(select_checkpoints(g, "block_boundary"))
        return g

    g = detector()
    result = train(g, (case for case in cases), tc, cfg)
    ref = detector()
    prepared = []
    for vol, pose, spacing in cases:
        net_in, frame = prepare_volume(vol, spacing, cfg)
        prepared.append((net_in, encode_targets(pose, frame, cfg.sigma_vox)))
    adam = Adam(ref.parameters(), lr=tc.lr)
    order_rng = np.random.default_rng(tc.seed)
    curve = []
    for epoch in range(tc.epochs):
        for step, idx in enumerate(order_rng.permutation(len(prepared))):
            net_in, target = prepared[idx]
            loss = ref.forward({"volume": net_in, "target": target}, discard=checkpointed)
            adam.step(ref.backward_checkpointed())
            curve.append((epoch, step, float(loss)))
    assert result.loss_curve == curve
    for key, value in ref.parameters().items():
        assert g.parameters()[key].tobytes() == value.tobytes(), key


def test_train_drops_each_volume_before_drawing_the_next():
    cfg = small_cfg()
    rng = np.random.default_rng(34)
    refs = []

    def stream():
        for i in range(4):
            if refs:
                assert refs[-1]() is None, f"case {i - 1}'s volume is held as case {i} is drawn"
            volume, pose, spacing = random_case(rng, (8, 8, 8), margin=2.0)
            refs.append(weakref.ref(volume))
            yield volume, pose, spacing
            del volume

    result = train(build_detector(cfg, seed=35), stream(), TrainConfig(epochs=2), cfg)
    assert len(refs) == 4 and len(result.loss_curve) == 8


def test_training_memory_does_not_grow_with_the_case_count():
    # of each case, training holds only its network input (16^3 float32 here)
    # and its landmark voxels; a held volume or target (16 times the input)
    # per case would add 6 of them between 2 and 8 cases
    cfg = small_cfg()
    net_in_bytes = 16**3 * 4
    # per-case bookkeeping: voxels, list entries, loss-curve rows (about 1.3 KB)
    slack = 64 * 1024

    def cases(n):
        rng = np.random.default_rng(30)
        for _ in range(n):
            yield random_case(rng, (16, 16, 16), margin=4.0)

    def peak(n):
        g = build_detector(cfg, seed=31)
        tracemalloc.start()
        try:
            train(g, cases(n), TrainConfig(epochs=1), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations land outside the comparison
    two, eight = peak(2), peak(8)
    assert eight - two <= 6 * net_in_bytes + slack, (two, eight)


def test_train_infer_loss_consistency():
    # the training-step loss equals the explicit L2 between infer and targets
    cfg = small_cfg(depth=1, base_channels=2)
    g = build_detector(cfg, seed=13)
    rng = np.random.default_rng(14)
    vol, pose, spacing = random_case(rng, (8, 8, 8), margin=2.0)
    net_in, frame = prepare_volume(vol, spacing, cfg)
    target = encode_targets(pose, frame, cfg.sigma_vox)
    step_loss = g.forward({"volume": net_in, "target": target})
    stack, frame2 = infer(g, vol, spacing, cfg)
    from volpose import ops

    explicit = float(ops.l2_loss_forward(stack, target))
    assert step_loss == explicit  # same reduction: bitwise equal
    # an independent float64 reduction agrees to float32 roundoff
    independent = float(np.mean((stack.astype(np.float64) - target) ** 2))
    assert abs(step_loss - independent) < 1e-6 * max(1.0, abs(independent))


def test_gcp_training_matches_plain_training_bitwise():
    cfg = small_cfg(depth=2, base_channels=2)
    rng = np.random.default_rng(15)
    cases = [random_case(rng, (8, 8, 8), margin=2.0) for _ in range(2)]
    finals = []
    curves = []
    peaks = []
    for checkpointed in (False, True):
        g = build_detector(cfg, seed=16)
        if checkpointed:
            g.set_checkpoints(select_checkpoints(g, "block_boundary"))
        res = train(g, cases, TrainConfig(epochs=2, seed=2), cfg)
        curves.append([loss for _, _, loss in res.loss_curve])
        finals.append({k: v.copy() for k, v in g.parameters().items()})
        peaks.append(g.meter.peak)
    # the checkpoint set alone made training discard, and that changed no bit
    assert peaks[1] < peaks[0]
    assert curves[0] == curves[1]
    for key in finals[0]:
        np.testing.assert_array_equal(finals[0][key], finals[1][key])


@pytest.mark.parametrize("discard", [False, True], ids=["plain", "block_boundary"])
def test_head_seeded_backward_equals_loss_seeded_backward(discard):
    # refinement's step: a forward to the head, then the proxy loss's head
    # gradient as the seed, gives the fed-target backward's gradients exactly
    cfg = small_cfg(depth=2, base_channels=2)
    g = build_detector(cfg, seed=26)
    if discard:
        g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    rng = np.random.default_rng(27)
    volume = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
    target = rng.uniform(size=(16, 8, 8, 8)).astype(np.float32)
    g.forward({"volume": volume, "target": target}, discard=discard)
    fed = g.backward_plain()
    head = output_node(g)
    g.forward({"volume": volume}, discard=discard, to_node=head)
    with pytest.raises(MissingValue):
        g.backward_plain()  # the seed 1 belongs to the loss node, not the head
    pred = g.value(head)
    grad_head, _ = ops.l2_loss_backward(
        pred, target, np.asarray(1.0, dtype=pred.dtype), target_grad=False
    )
    seeded = g.backward_plain(grad_head)
    assert seeded.keys() == fed.keys()
    for key in fed:
        np.testing.assert_array_equal(seeded[key], fed[key])


def test_non_finite_voxel_aborts_training_naming_epoch_step_and_node():
    cfg = small_cfg()
    volume, pose, spacing = random_case(np.random.default_rng(28), (8, 8, 8), margin=2.0)
    volume[3, 4, 5] = np.nan
    g = build_detector(cfg, seed=29)
    with pytest.raises(GraphError, match=r"^epoch 0 step 0: non-finite value at node 0 \(input\)"):
        train(g, [(volume, pose, spacing)], TrainConfig(epochs=1), cfg)


def test_block_boundary_memory_reduction_on_reference_detector():
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    g = build_detector(cfg, seed=17)
    rng = np.random.default_rng(18)
    feeds = {
        "volume": rng.normal(size=(1, 32, 32, 32)).astype(np.float32),
        "target": rng.normal(size=(16, 32, 32, 32)).astype(np.float32),
    }
    g.forward(feeds)
    g.backward_plain()
    plain_peak = g.meter.peak
    g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    g.forward(feeds, discard=True)
    g.backward_checkpointed()
    assert g.meter.peak < plain_peak


def test_model_save_load_round_trip(tmp_path):
    cfg = small_cfg(depth=2, base_channels=2)
    g = build_detector(cfg, seed=19)
    rng = np.random.default_rng(20)
    vol = rng.normal(size=(8, 8, 8)).astype(np.float32)
    before, _ = infer(g, vol, 1.0, cfg)
    save_model(tmp_path / "model", g, extras={"detector_config.json": cfg.to_dict()})
    g2 = load_model(tmp_path / "model")
    after, _ = infer(g2, vol, 1.0, cfg)
    np.testing.assert_array_equal(before, after)
    # a directory written before BN nodes lost their "eps" attribute and
    # graph.json its checkpoint list loads and infers the same bytes
    path = tmp_path / "model" / "graph.json"
    doc = json.loads(path.read_text())
    for node in doc["nodes"]:
        if node["op"] == "batch_norm":
            node["attrs"]["eps"] = 1e-05
    doc["checkpoints"] = sorted(select_checkpoints(g, "block_boundary"))
    path.write_text(json.dumps(doc))
    older, _ = infer(load_model(tmp_path / "model"), vol, 1.0, cfg)
    np.testing.assert_array_equal(before, older)


def test_saved_manifest_lists_exactly_the_parameters(tmp_path):
    g = build_detector(small_cfg(depth=2, base_channels=2), seed=24)
    save_model(tmp_path / "model", g)
    manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
    params = g.parameters()
    assert set(manifest["entries"]) == set(params)
    assert manifest["total_elements"] == sum(v.size for v in params.values())
    assert (tmp_path / "model" / "params.bin").stat().st_size == 4 * manifest["total_elements"]
    assert all(set(e) == {"offset", "shape"} for e in manifest["entries"].values())


def test_version_1_model_rejected(tmp_path):
    save_model(tmp_path / "model", build_detector(small_cfg(), seed=25))
    for name in ("graph.json", "manifest.json"):
        path = tmp_path / "model" / name
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 1}))
    graph_json = re.escape(str(tmp_path / "model" / "graph.json"))
    with pytest.raises(FileFormatError, match=rf"^{graph_json}: .*version 1"):
        load_model(tmp_path / "model")


def _first_relu(doc):
    return next(n for n in doc["nodes"] if n["op"] == "relu")


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda doc: _first_relu(doc).update(op="gelu"), "unknown op"),
        (lambda doc: _first_relu(doc).update(inputs=[len(doc["nodes"]) - 1]), "does not precede"),
        (lambda doc: doc["nodes"][3].update(id=4), "position 3 has id 4"),
    ],
    ids=["unknown-op", "forward-reference", "id-mismatch"],
)
def test_corrupt_graph_json_rejected_at_load(tmp_path, corrupt, match):
    g = build_detector(small_cfg(depth=2, base_channels=2), seed=21)
    save_model(tmp_path / "model", g)
    path = tmp_path / "model" / "graph.json"
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphError, match=match):
        load_model(tmp_path / "model")


def test_epochs_default_is_20():
    assert TrainConfig().epochs == 20


def test_train_defaults_match_protocol():
    tc = TrainConfig()
    assert tc.lr == 1e-3
    assert tc.beta1 == 0.5
