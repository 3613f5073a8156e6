import os
import subprocess
import sys
from pathlib import Path

import pytest

import spatial_coalescent
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel

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


def coalsim(*args, timeout=None):
    """Run the ``coalsim`` CLI as ``python -m spatial_coalescent`` in a child
    interpreter (see run_python)."""
    return run_python("-m", "spatial_coalescent", *args, timeout=timeout)


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
