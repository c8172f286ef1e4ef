import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# as in run.py: BLAS threads are pinned before numpy is first imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, str(len(os.sched_getaffinity(0))))
os.environ.setdefault("VOLPOSE_LOG", "warning")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
