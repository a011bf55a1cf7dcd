"""Shared start-up of the benchmark's processes: pin BLAS to one thread,
work from the repository root and import cukf from its `src` directory.

Call `prepare()` before anything imports numpy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def prepare():
    """Return the imported cukf package; exit 2 if the repository's own
    sources are not there."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CUKF_OUTPUT_DIR", None)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    try:
        import cukf
    except ImportError as exc:
        print(f"bench: cannot import cukf from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    where = os.path.dirname(os.path.abspath(cukf.__file__))
    if os.path.dirname(where) != SRC:
        print(f"bench: cukf was imported from {where}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return cukf
