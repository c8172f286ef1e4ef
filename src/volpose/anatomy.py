"""Canonical 16-landmark table and the 15-segment skeleton tree.

The index assignment is this project's own convention (documented, 1-based):
midline chain head-top/neck/spine-mid/sacrum, then left and right arm and
leg chains. The registration subset is the set of landmarks used to fit the
rigid transform when aligning library poses to a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LandmarkDef:
    index: int          # 1-based canonical index
    name: str
    side: str           # "left" | "right" | "midline"
    swap_with: int      # flip partner (itself for midline)


LANDMARKS: tuple[LandmarkDef, ...] = (
    LandmarkDef(1, "head_top", "midline", 1),
    LandmarkDef(2, "neck", "midline", 2),
    LandmarkDef(3, "spine_mid", "midline", 3),
    LandmarkDef(4, "sacrum", "midline", 4),
    LandmarkDef(5, "l_shoulder", "left", 8),
    LandmarkDef(6, "l_elbow", "left", 9),
    LandmarkDef(7, "l_wrist", "left", 10),
    LandmarkDef(8, "r_shoulder", "right", 5),
    LandmarkDef(9, "r_elbow", "right", 6),
    LandmarkDef(10, "r_wrist", "right", 7),
    LandmarkDef(11, "l_hip", "left", 14),
    LandmarkDef(12, "l_knee", "left", 15),
    LandmarkDef(13, "l_ankle", "left", 16),
    LandmarkDef(14, "r_hip", "right", 11),
    LandmarkDef(15, "r_knee", "right", 12),
    LandmarkDef(16, "r_ankle", "right", 13),
)

NUM_LANDMARKS = 16

# 1-based landmark indices used to fit rigid alignments: the four midline
# landmarks, both shoulders and both hips, plus l_wrist (7) and r_elbow (9).
# The last two make it not closed under FLIP_PERMUTATION: their mirror
# partners r_wrist (10) and l_elbow (6) are not in it.
REGISTRATION_SUBSET: tuple[int, ...] = (1, 2, 3, 4, 5, 7, 8, 9, 11, 14)

# The skeleton tree: 15 edges over the 16 landmarks (1-based pairs).
SEGMENTS: tuple[tuple[int, int], ...] = (
    (1, 2),
    (2, 3),
    (3, 4),
    (2, 5),
    (5, 6),
    (6, 7),
    (2, 8),
    (8, 9),
    (9, 10),
    (4, 11),
    (11, 12),
    (12, 13),
    (4, 14),
    (14, 15),
    (15, 16),
)

# 0-based permutation applied to landmark arrays when a volume is mirrored.
FLIP_PERMUTATION: tuple[int, ...] = tuple(ld.swap_with - 1 for ld in LANDMARKS)

# 0-based indices of the left/right limb landmarks (the symmetric subset).
SYMMETRIC_LIMB_INDICES: tuple[int, ...] = tuple(
    ld.index - 1 for ld in LANDMARKS if ld.side != "midline"
)


def landmark_names() -> list[str]:
    return [ld.name for ld in LANDMARKS]


def _validate() -> None:
    assert len(LANDMARKS) == NUM_LANDMARKS
    for ld in LANDMARKS:
        partner = LANDMARKS[ld.swap_with - 1]
        assert partner.swap_with == ld.index, f"swap partners not mutual at {ld.index}"
        if ld.side == "midline":
            assert ld.swap_with == ld.index
    assert len(SEGMENTS) == 15
    # the segment graph must be a tree over all 16 landmarks
    seen = {1}
    edges = list(SEGMENTS)
    while edges:
        progressed = False
        for a, b in list(edges):
            if a in seen or b in seen:
                assert not (a in seen and b in seen), "segment graph has a cycle"
                seen.update((a, b))
                edges.remove((a, b))
                progressed = True
        assert progressed, "segment graph is disconnected"
    assert seen == set(range(1, 17))


_validate()
