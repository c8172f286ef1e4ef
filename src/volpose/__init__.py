"""volpose: volumetric landmark detection at desk scale.

A small numpy toolkit that detects 16 skeletal landmarks in 3D volumes via
Gaussian heatmap regression, refines predictions at test time against a
library of reference poses, and trains under gradient checkpointing to trade
recomputation for peak memory.
"""

from volpose.graph import (
    Graph,
    Node,
    MemMeter,
    select_checkpoints,
)
from volpose.model import (
    DetectorConfig,
    TrainConfig,
    build_detector,
    train,
    infer,
)
from volpose.heatmap import encode, decode, DecodedPose
from volpose.registration import (
    Pose,
    RigidTransform,
    PoseLibrary,
    SupportSet,
    fit_rigid,
    retrieve_support,
    build_label_proxy,
)
from volpose.refine import RefineConfig, refine, refine_batch
from volpose.phantom import PhantomSpec, PhantomCase, sample_case, augment, make_dataset
from volpose.metrics import euclidean, pck_curve, auc, segment_lengths, build_report

__version__ = "0.1.0"
