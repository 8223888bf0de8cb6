"""Fault-injected renders stay byte-identical to the sequential path.

The guarantee: a worker crash, hang, or corrupt return mid-render
re-executes only the affected chunk, and the stitched image is
byte-identical to the fault-free sequential render at every worker
count.  Faults inject **only inside pool workers**, so the 1-worker
rows are the no-fault control; the drills run on
:func:`render_source_views`, the renderer that fans its chunks over
the frame pool.
"""

import pytest

from repro.core import frame_pool
from repro.core.faults import FaultPlan, FaultSpec, injected_faults
from repro.models import render_source_views
from repro.scenes.datasets import make_scene

WORKER_COUNTS = (1, 2, 4)

# (fault plan, worker count, REPRO_TASK_TIMEOUT or None)
FAULT_DRILLS = [
    *[pytest.param(FaultPlan(tasks={0: FaultSpec("crash")},
                             scope="frame_pool"), workers, None,
                   id=f"crash-w{workers}") for workers in WORKER_COUNTS],
    *[pytest.param(FaultPlan(tasks={1: FaultSpec("hang", hang_s=5.0)},
                             scope="frame_pool"), workers, "0.5",
                   id=f"hang-w{workers}") for workers in WORKER_COUNTS],
    *[pytest.param(FaultPlan(tasks={0: FaultSpec("corrupt")},
                             scope="frame_pool"), workers, None,
                   id=f"corrupt-w{workers}") for workers in WORKER_COUNTS],
    # Every pooled attempt crashes chunk 0: the render finishes on the
    # in-process backstop, still byte-identical.
    *[pytest.param(FaultPlan(tasks={0: FaultSpec(
        "crash", attempts=tuple(range(8)))}, scope="frame_pool"),
        workers, None, id=f"persistent-crash-w{workers}")
      for workers in (2, 4)],
]


@pytest.fixture(scope="module")
def scene():
    return make_scene("llff", seed=3, image_scale=1 / 16)


@pytest.fixture(scope="module")
def sequential(scene):
    return render_source_views(scene, num_points=32, workers=1)


@pytest.fixture(autouse=True)
def retire_pool():
    frame_pool.shutdown_pool()
    yield
    frame_pool.shutdown_pool()


class TestSourceViewsUnderInjectedFaults:
    @pytest.mark.parametrize("plan, workers, timeout", FAULT_DRILLS)
    def test_crash_during_source_view_render(self, scene, sequential, plan,
                                             workers, timeout, monkeypatch):
        if timeout is not None:
            monkeypatch.setenv("REPRO_TASK_TIMEOUT", timeout)
        with injected_faults(plan):
            sharded = render_source_views(scene, num_points=32,
                                          workers=workers)
        assert sharded.tobytes() == sequential.tobytes()
        assert sharded.dtype == sequential.dtype
