"""Evaluation: per-landmark distances, PCK curves, AUC, segment lengths.

PCK at a threshold is the fraction of predictions whose Euclidean distance
to ground truth is strictly below it (an exactly-zero distance counts at
every threshold, so perfect predictions score AUC 100 even at the grid's
zero point). A landmark without a valid distance counts as a miss at every
threshold. A report scores the cases that have a prediction, and counts
every ground-truth case: ``coverage`` is the valid landmarks over
(ground-truth cases x 16), and the ground-truth cases without a prediction
are listed. The PCK curves and the mean distance are over the scored cases,
the mean over their valid landmarks only (``MEAN_RULE``). AUC is the
trapezoidal integral of the PCK curve normalized by the grid span, in
percent. The default threshold grid is 0..30 mm in 0.5 mm steps and is
recorded in every report.

Two counts over the six left/right limb pairs of ``anatomy.LANDMARKS`` show
left/right labelling, which the means cannot tell from a blurry peak. A
limb landmark is ``mislabelled`` when it lies more than ``MISLABEL_OWN_MM``
from its own truth and within ``MISLABEL_PARTNER_MM`` of its partner's; a
pair is collapsed when its two predictions lie within ``COLLAPSE_MM`` of
each other. A landmark takes part only where both its prediction and its
truth are present (and, to be mislabelled, its partner's truth); a midline
landmark never does. The margins are recorded next to the counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from volpose.anatomy import LANDMARKS, NUM_LANDMARKS, SEGMENTS, landmark_names
from volpose.fileio import write_csv, write_json
from volpose.registration import Pose


class MetricsError(ValueError):
    pass


MEAN_RULE = (
    "mean over the valid landmarks of the scored cases; an invalid landmark "
    "and a ground-truth case without a prediction add nothing to it, and "
    "count against coverage"
)

GRID_MAX_MM = 30.0
GRID_STEP_MM = 0.5

# left/right labelling margins (see the module docstring)
MISLABEL_OWN_MM = 8.0
MISLABEL_PARTNER_MM = 6.0
COLLAPSE_MM = 4.0

# 0-based (left, right) landmark indices of each symmetric limb pair
LIMB_PAIRS = tuple((ld.index - 1, ld.swap_with - 1) for ld in LANDMARKS if ld.side == "left")


def threshold_grid(grid_max: float = GRID_MAX_MM, step: float = GRID_STEP_MM) -> np.ndarray:
    """PCK thresholds from 0 to ``grid_max`` mm inclusive, ``step`` mm apart."""
    return np.arange(0.0, grid_max + 1e-9, step)


DEFAULT_THRESHOLDS = threshold_grid()


def euclidean(pred: Pose, gt: Pose) -> np.ndarray:
    """Per-landmark Euclidean distance in mm; NaN where either side is masked."""
    d = np.linalg.norm(pred.xyz_mm - gt.xyz_mm, axis=1)
    d = np.where(pred.present & gt.present, d, np.nan)
    return d


def pck_curve(distances: np.ndarray, thresholds: np.ndarray) -> dict:
    """PCK per landmark and pooled over a strictly increasing threshold grid.

    ``distances``: (n_cases, 16) mm; a NaN entry (a masked or invalid
    landmark) is a miss at every threshold but stays in the denominator.
    """
    distances = np.atleast_2d(np.asarray(distances, dtype=np.float64))
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if distances.size == 0:
        raise MetricsError("distance set is empty")
    if thresholds.size == 0:
        raise MetricsError("threshold grid is empty")
    if thresholds.size > 1 and np.any(np.diff(thresholds) <= 0):
        raise MetricsError("threshold grid must be strictly increasing")
    below = distances[None, :, :] < thresholds[:, None, None]
    below |= (distances == 0.0)[None, :, :]
    per_landmark = below.sum(axis=1) / distances.shape[0]
    pooled = below.sum(axis=(1, 2)) / distances.size
    return {
        "thresholds": thresholds,
        "per_landmark": per_landmark,        # (T, 16)
        "pooled": pooled,                    # (T,)
        "n_valid": np.isfinite(distances).sum(axis=0),  # per landmark
    }


def auc(pck_values: np.ndarray, thresholds: np.ndarray) -> float:
    """Normalized area under the PCK curve, in percent."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size < 2:
        raise MetricsError("AUC needs at least a two-point threshold grid")
    span = thresholds[-1] - thresholds[0]
    return float(np.trapezoid(np.asarray(pck_values, dtype=np.float64), thresholds) / span * 100.0)


def labelling_counts(pred: Pose, gt: Pose) -> tuple[int, int]:
    """(mislabelled limb landmarks, collapsed limb pairs) of one case."""
    valid = pred.present & gt.present
    mislabelled = collapsed = 0
    for a, b in LIMB_PAIRS:
        for own, partner in ((a, b), (b, a)):
            if valid[own] and gt.present[partner]:
                p = pred.xyz_mm[own]
                mislabelled += bool(
                    np.linalg.norm(p - gt.xyz_mm[own]) > MISLABEL_OWN_MM
                    and np.linalg.norm(p - gt.xyz_mm[partner]) <= MISLABEL_PARTNER_MM
                )
        if valid[a] and valid[b]:
            collapsed += bool(np.linalg.norm(pred.xyz_mm[a] - pred.xyz_mm[b]) <= COLLAPSE_MM)
    return mislabelled, collapsed


def segment_lengths(pose: Pose) -> np.ndarray:
    """The 15 canonical segment lengths in mm; NaN where an endpoint is masked."""
    out = np.zeros(len(SEGMENTS))
    for i, (a, b) in enumerate(SEGMENTS):
        if pose.present[a - 1] and pose.present[b - 1]:
            out[i] = np.linalg.norm(pose.xyz_mm[a - 1] - pose.xyz_mm[b - 1])
        else:
            out[i] = np.nan
    return out


@dataclass
class EvalReport:
    per_landmark_mean_mm: np.ndarray          # (16,)
    per_landmark_auc: np.ndarray              # (16,)
    mean_mm: float
    mean_auc: float
    coverage: float                           # valid landmarks / (ground-truth cases * 16)
    pck: dict
    case_ids: list[str]                       # the scored cases
    gt_case_count: int
    missing_case_ids: list[str]               # ground-truth cases without a prediction
    mislabelled: int                          # limb landmarks, over the scored cases
    collapsed_pairs: int                      # limb pairs, over the scored cases
    segment_lengths_mm: dict[str, list[float]] = field(default_factory=dict)
    thresholds: np.ndarray = field(default_factory=lambda: DEFAULT_THRESHOLDS.copy())

    @property
    def case_count(self) -> int:
        return len(self.case_ids)


def build_report(
    preds: dict[str, Pose],
    gts: dict[str, Pose],
    thresholds: np.ndarray | None = None,
) -> EvalReport:
    """Score every case of ``preds`` against ``gts``, which must hold each of
    them; a case of ``gts`` without a prediction scores nothing and is
    listed in ``missing_case_ids``."""
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS.copy()
    ids = sorted(preds)
    missing = [i for i in ids if i not in gts]
    if missing:
        raise MetricsError(f"no ground truth for cases {missing}")
    if not ids:
        raise MetricsError("no cases to evaluate")
    rows = np.stack([euclidean(preds[i], gts[i]) for i in ids])
    curve = pck_curve(rows, thresholds)
    with warnings.catch_warnings():
        # a landmark with no valid distance has a NaN mean; coverage says so
        warnings.simplefilter("ignore", RuntimeWarning)
        per_mean = np.nanmean(rows, axis=0)
        mean_mm = float(np.nanmean(rows))
    per_auc = np.array(
        [auc(curve["per_landmark"][:, j], thresholds) for j in range(rows.shape[1])]
    )
    seg = {i: segment_lengths(preds[i]).tolist() for i in ids}
    missing_gt = sorted(set(gts) - set(preds))
    mislabelled, collapsed = np.sum([labelling_counts(preds[i], gts[i]) for i in ids], axis=0)
    return EvalReport(
        per_landmark_mean_mm=per_mean,
        per_landmark_auc=per_auc,
        mean_mm=mean_mm,
        mean_auc=auc(curve["pooled"], thresholds),
        coverage=float(curve["n_valid"].sum() / (len(gts) * NUM_LANDMARKS)),
        pck=curve,
        case_ids=ids,
        gt_case_count=len(gts),
        missing_case_ids=missing_gt,
        mislabelled=int(mislabelled),
        collapsed_pairs=int(collapsed),
        segment_lengths_mm=seg,
        thresholds=thresholds,
    )


def _mm_or_null(v: float) -> float | None:
    return float(v) if np.isfinite(v) else None


def write_report(report: EvalReport, out_dir: str | Path, stamp: dict | None = None) -> None:
    """Emit report.json plus the landmark-table and PCK-curve CSVs.

    Table CSVs carry one column per landmark (L1..L16) plus a mean column;
    the PCK CSV has one row per threshold for plotting. A mean distance
    without a valid landmark behind it, or a segment length with a masked
    endpoint, is written as JSON ``null``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "case_count": report.case_count,
        "case_ids": report.case_ids,
        "gt_case_count": report.gt_case_count,
        "missing_case_ids": report.missing_case_ids,
        "mean_distance_mm": _mm_or_null(report.mean_mm),
        "mean_distance_rule": MEAN_RULE,
        "mean_auc_percent": report.mean_auc,
        "coverage": report.coverage,
        "mislabelled": report.mislabelled,
        "collapsed_pairs": report.collapsed_pairs,
        "labelling_margins_mm": {
            "mislabelled_own_more_than": MISLABEL_OWN_MM,
            "mislabelled_partner_within": MISLABEL_PARTNER_MM,
            "collapsed_within": COLLAPSE_MM,
        },
        "per_landmark_mean_mm": [_mm_or_null(v) for v in report.per_landmark_mean_mm],
        "per_landmark_auc_percent": report.per_landmark_auc,
        "landmark_names": landmark_names(),
        "threshold_grid_mm": report.thresholds,
        "segment_lengths_mm": {
            cid: [_mm_or_null(v) for v in lengths]
            for cid, lengths in report.segment_lengths_mm.items()
        },
    }
    write_json(out_dir / "report.json", doc, stamp)

    header = [f"L{j}" for j in range(1, NUM_LANDMARKS + 1)] + ["mean"]
    tables = {
        "distance_table.csv": [
            ["metric"] + header,
            ["euclidean_mm"]
            + [f"{v:.4f}" for v in report.per_landmark_mean_mm]
            + [f"{report.mean_mm:.4f}"],
        ],
        "auc_table.csv": [
            ["metric"] + header,
            ["auc_percent"]
            + [f"{v:.4f}" for v in report.per_landmark_auc]
            + [f"{report.mean_auc:.4f}"],
        ],
        "pck_curve.csv": [["threshold_mm", "pooled"] + header[:-1]] + [
            [f"{thr:.3f}", f"{report.pck['pooled'][ti]:.6f}"]
            + [f"{report.pck['per_landmark'][ti, j]:.6f}" for j in range(NUM_LANDMARKS)]
            for ti, thr in enumerate(report.thresholds)
        ],
    }
    for name, rows in tables.items():
        write_csv(out_dir / name, rows, stamp)
