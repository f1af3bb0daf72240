"""Set-up shared by the benchmark's scripts.  Call `setup()` before importing
numpy, lsbench or the benchmark's other modules."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def setup() -> None:
    """Pin BLAS to one thread and put the checkout's `src` first on the
    import path.  Exits non-zero when the checkout holds no lsbench source,
    so an installed copy is never measured by mistake."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pkg = SRC / "lsbench"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no lsbench source at {pkg}; run from the root of a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lsbench
    if Path(lsbench.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported lsbench from {lsbench.__file__}, not {pkg}")
