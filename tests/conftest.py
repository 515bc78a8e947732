import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_configure(config):
    # Ray Data's non-shuffle repartition calls Ray's own deprecated ``free``
    # (ray/data/_internal/memory_tracing.py); the warning is Ray's, not ours
    config.addinivalue_line(
        "filterwarnings",
        r"ignore:`free` is a deprecated API and will be removed"
        r":DeprecationWarning:ray\._private\.internal_api",
    )


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def run_until_killed():
    """``run(script, *argv)``: run ``python -c script *argv`` from the repo
    root, assert that it died by SIGKILL and return its stderr. The child
    runs in its own session, and its process group is killed after it: a
    SIGKILLed child that started its own Ray cluster otherwise leaves Ray's
    dashboard agent and an idle worker running for 30-60 s."""

    def run(script: str, *argv: str, timeout: float = 300) -> str:
        child = subprocess.Popen(
            [sys.executable, "-c", script, *argv], cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, err = child.communicate(timeout=timeout)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert child.returncode == -signal.SIGKILL, err[-2000:]
        return err

    return run
