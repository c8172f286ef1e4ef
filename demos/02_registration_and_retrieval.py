"""Rigid registration and pose-library retrieval, step by step.

Makes a small library of phantom poses, perturbs one into a fake
"prediction", and walks through: fitting the rigid alignment, ranking the
library, and averaging the top-K aligned poses into a label proxy.
"""

import numpy as np

from volpose.phantom import PhantomSpec, sample_case
from volpose.registration import (
    PoseLibrary,
    build_label_proxy,
    fit_rigid,
    retrieve_support,
)

spec = PhantomSpec(shape=(48, 48, 48), noise_multiplicative=0.0, shadow_probability=0.0)
poses = [sample_case(spec, seed=s).pose for s in range(12)]
library = PoseLibrary([f"case_{s:02d}" for s in range(12)], poses, ["demo"] * 12)

# a "prediction": pose 5 plus noise and one grossly wrong landmark
rng = np.random.default_rng(0)
query = poses[5].xyz_mm + rng.normal(scale=0.8, size=(16, 3))
query[9] += 15.0  # a bad wrist

tr, rms = fit_rigid(poses[5].xyz_mm, query)
print(f"alignment of the true source pose: rms {rms:.2f} mm, "
      f"|R - I| = {np.abs(tr.rotation - np.eye(3)).max():.4f}")

support = retrieve_support(query, np.ones(16, dtype=bool), library, k=5)
print("\ntop-5 support set (summed subset residuals):")
for atlas_id, error_mm in zip(support.atlas_ids, support.errors_mm):
    print(f"  {atlas_id}: {error_mm:7.2f} mm")

# the proxy is built on voxel positions; the phantom grid's voxel centers sit
# at index * spacing, so mm / spacing is the voxel position
points_vox = support.aligned_mm / spec.spacing_mm
proxy = build_label_proxy(points_vox, support.present, spec.shape, sigma_vox=2.0)
print(f"\nproxy stack: {proxy.shape}, values in [{proxy.min():.3f}, {proxy.max():.3f}]")
peak = np.unravel_index(np.argmax(proxy[9]), proxy[9].shape)
print(f"channel 10 proxy peak at voxel (z,y,x)={peak}: the aligned atlases "
      "put the wrist back near its plausible location")
