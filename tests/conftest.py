import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest
from click.testing import CliRunner

# numpy's BLAS on one thread unless the caller chose a count, as in
# `python -m spatial_coalescent`: the variables are read when numpy loads,
# which the imports below do, and child interpreters inherit them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import spatial_coalescent  # noqa: E402
from spatial_coalescent import cli  # noqa: E402
from spatial_coalescent.measure import LambdaMeasure  # noqa: E402
from spatial_coalescent.rates import RateKernel  # noqa: E402

# the directory holding the imported package (src/ in a checkout), so that a
# child interpreter runs the code under test and never an installed copy
_PACKAGE_PARENT = str(Path(spatial_coalescent.__file__).resolve().parent.parent)

# set by the acceptance gate: the list of failed checks a test records
CHECK_FAILURES = pytest.StashKey()
# set here: why the test body itself did not pass, or None if it did
BODY_ERROR = pytest.StashKey()


def run_python(*args, timeout=None):
    """Run a child interpreter with `args`, importing the package under
    test; works whether or not the package is installed.  A run still going
    after `timeout` seconds raises TimeoutExpired."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_PARENT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def wide_kernel():
    """An 11-site move kernel for the compiled loop's draw paths: site 0
    moves to the ten others, with weights 1..10; site 1 never moves; site 2
    moves to sites 3, 4 and 5 with weights 0.5, 1e-20 and 0.5, so its
    normalised cumulative law repeats a value, [0.5, 0.5, 1.0]; and sites
    3..10 leave at rate 0.6, to site 0 or 2, so the move rates differ."""
    kernel = np.zeros((11, 11))
    kernel[0, 1:] = np.arange(1, 11) / 55.0
    kernel[1, 1] = 1.0
    kernel[2, 3:6] = 0.5, 1e-20, 0.5
    kernel[3:, 0], kernel[3:, 2] = 0.4, 0.2
    kernel[range(3, 11), range(3, 11)] = 0.4
    return kernel


def coalsim(*args, timeout=None):
    """Run the ``coalsim`` CLI as ``python -m spatial_coalescent`` in a child
    interpreter (see run_python)."""
    return run_python("-m", "spatial_coalescent", *args, timeout=timeout)


def cli_run(*args):
    """Run the ``coalsim`` CLI in this process, through click's CliRunner,
    and return what `coalsim` returns from a child interpreter: a
    CompletedProcess with its exit code, stdout and stderr, an uncaught
    exception's traceback in stderr.  A test whose subject is the process
    (its imports, its environment, a signal, a hang guard, a digest
    compared across interpreters) runs `coalsim` instead."""
    args = [str(a) for a in args]
    result = CliRunner().invoke(cli.main, args, prog_name="coalsim")
    stderr = result.stderr
    if not isinstance(result.exception, (SystemExit, type(None))):
        stderr += "".join(traceback.format_exception(*result.exc_info))
    return subprocess.CompletedProcess(["coalsim", *args], result.exit_code,
                                       result.stdout, stderr)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Keep the outcome of the test body on the item, so fixtures can read
    it during teardown, and fail the call phase of a test whose recorded
    checks failed."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    item.stash[BODY_ERROR] = _body_error(report)
    failures = item.stash.get(CHECK_FAILURES, [])
    if failures and report.passed:
        report.outcome = "failed"
        report.longrepr = "failed checks:\n" + "\n".join(failures)


def _body_error(report):
    """Why the test body did not pass, or None if it did."""
    if report.passed:
        return None
    crash = getattr(report.longrepr, "reprcrash", None)
    message = crash.message if crash is not None else str(report.longrepr)
    first_line = message.partition("\n")[0]
    return f"{report.outcome}: {first_line[:200]}"


@pytest.fixture(scope="session")
def kingman_kernel():
    return RateKernel(LambdaMeasure.unit_atom(0.0))


@pytest.fixture(scope="session")
def lebesgue_kernel():
    return RateKernel(LambdaMeasure.lebesgue())


@pytest.fixture(scope="session")
def beta_heavy_kernel():
    """Beta(0.5, 1.5) probability density (comes down from infinity)."""
    return RateKernel(LambdaMeasure.beta(1.5))


@pytest.fixture(scope="session")
def beta_light_kernel():
    """Beta(1.5, 0.5) probability density (stays infinite)."""
    return RateKernel(LambdaMeasure.beta(0.5))


@pytest.fixture(scope="session")
def half_atom_kernel():
    return RateKernel(LambdaMeasure.unit_atom(0.5))


@pytest.fixture(scope="session")
def one_atom_kernel():
    return RateKernel(LambdaMeasure.unit_atom(1.0))
