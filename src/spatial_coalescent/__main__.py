"""``python -m spatial_coalescent``, and the ``coalsim`` console script: the
CLI, with numpy's BLAS held to one thread unless the caller chose a count.
On a busy host a BLAS thread pool made the small matrix products of a run
(the exact KS p-value, the Green cubature) 20-40x slower.  The variables
are read when numpy loads, so they are set before ``cli`` is imported."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from spatial_coalescent.cli import main  # noqa: E402

if __name__ == "__main__":
    main(prog_name="coalsim")
