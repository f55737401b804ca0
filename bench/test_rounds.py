"""How a round counts a stage that raises or fails its check.

Run with ``python -m pytest bench/test_rounds.py``; glekit is not needed.
"""

import signal
import time
from time import perf_counter

import pytest

import workloads
from checks import CheckFailed
from probe import PERIOD, SpeedProbe


def three_stages(raise_in=None, fail_in=None):
    def run(lib, ctx, seed, rnd, r):
        for name in ("a", "b", "c"):
            def call(name=name):
                if name == raise_in:
                    raise RuntimeError("boom")
                return name

            def check(out):
                if out == fail_in:
                    raise CheckFailed("wrong")

            r.stage(name, call, check, kernel=name == "a")
    return workloads.Workload(setup=None, run=run, stages=3)


def test_clean_round():
    r = workloads.run_round(three_stages(), None, {}, 0, 0)
    assert (r.attempted, r.failed, r.error) == (3, 0, None)
    assert 0 < r.kernel <= r.wall
    assert workloads.outcome([r]) == {"correct": True, "attempted": 3, "failed": 0}


def test_raising_stage_fails_the_round():
    r = workloads.run_round(three_stages(raise_in="b"), None, {}, 0, 0)
    assert r.attempted == 3 and r.failed == 2      # b raised, c never ran
    assert r.error.startswith("b: RuntimeError")
    assert [s["name"] for s in r.stages] == ["a"]
    ok = workloads.run_round(three_stages(), None, {}, 0, 1)
    assert workloads.outcome([ok, r]) == {"correct": False, "attempted": 6, "failed": 2}


def test_failed_check_fails_the_round():
    r = workloads.run_round(three_stages(fail_in="c"), None, {}, 0, 0)
    assert (r.attempted, r.failed, r.error) == (3, 1, None)
    assert r.check_failures == ["c: wrong"]
    assert not workloads.outcome([r])["correct"]


def test_round_must_make_every_stage_call():
    short = workloads.Workload(setup=None, run=three_stages().run, stages=4)
    with pytest.raises(RuntimeError):
        workloads.run_round(short, None, {}, 0, 0)


class FakeProbe:
    """Stands in for probe.SpeedProbe; stages add its samples themselves."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def run(self, seconds):
        start = perf_counter()
        time.sleep(seconds)
        self.samples.append((start, perf_counter() - start))


def test_probes_come_off_their_stage_and_set_its_speed():
    probe = FakeProbe()

    def run(lib, ctx, seed, rnd, r):
        def kernel_stage():
            probe.run(0.02)
            time.sleep(0.01)

        probe.run(0.05)                       # outside every stage
        r.stage("a", kernel_stage, kernel=True)
        r.stage("b", lambda: time.sleep(0.01))

    r = workloads.run_round(workloads.Workload(None, run, 2), None, {}, 0, 0,
                            probe=probe)
    a, b = r.stages
    p = probe.samples[1][1]
    assert a["probes"] == [p] and b["probes"] == []
    assert 0.01 <= a["seconds"] < 0.02       # the probe's time is taken off
    assert r.kernel_ref == pytest.approx(a["seconds"] / p)
    # b had no probe of its own, so it runs at the round's mean speed.
    assert r.wall_ref == pytest.approx((a["seconds"] + b["seconds"]) / p)


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = perf_counter() + 3 * PERIOD
        while perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 2
    assert all(d > 0 for _, d in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
