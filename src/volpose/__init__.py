"""volpose: volumetric landmark detection at desk scale.

A small numpy toolkit that detects 16 skeletal landmarks in 3D volumes via
Gaussian heatmap regression, refines predictions at test time against a
library of reference poses, and trains under gradient checkpointing to trade
recomputation for peak memory.

The package exposes only its modules: ``from volpose.<module> import ...``.
"""
