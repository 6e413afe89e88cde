"""forks.map_trials, the one helper that spreads independent work over
forked workers, and the callers that map through it: their outputs do not
depend on the process count, and a map inside a spread map runs
serially."""

import os
import signal
import threading
import time

import pytest

from sarqc import forks
from sarqc.gbs import GAMMA_GRID_DEFAULT, LAMBDA_GRID_GBS_DEFAULT, select_hparams_gbs
from sarqc.harness import SynthLayerSpec, calib_size_study, gen_calibration, gen_layer, sweep_lambda
from sarqc.linalg import NumericalFailure, gram
from sarqc.quantizer import QuantScheme
from sarqc.saliency import channel_stats


def set_workers(monkeypatch, n: int):
    monkeypatch.setattr(forks, "cpus", lambda: n)


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for_a_worker_to_exit():
    """Block until some child has exited, without reaping it."""
    while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        time.sleep(0.005)


def squares_raising_at(raise_at: int, exc=NumericalFailure):
    def trial(t):
        if t == raise_at:
            raise exc(f"planted at trial {t}")
        return t * t

    return trial


class TestMapTrials:
    """`map_trials` with the process count pinned through `cpus`."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("trials", [1, 3, 10])
    def test_records_come_in_trial_order(self, monkeypatch, workers, trials):
        set_workers(monkeypatch, workers)
        assert list(forks.map_trials(lambda t: t * t, trials, forks.never)) == [t * t for t in range(trials)]
        assert_no_worker_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_stop_record_ends_the_run(self, monkeypatch, workers):
        # with 3 workers trial 7 lies in the third span and trial 5 in the second
        set_workers(monkeypatch, workers)
        assert list(forks.map_trials(lambda t: t, 10, lambda t: t in (5, 7))) == list(range(6))
        assert_no_worker_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_later_spans_exception_keeps_its_type(self, monkeypatch, workers):
        set_workers(monkeypatch, workers)
        seen = []
        with pytest.raises(ValueError, match="planted at trial 8"):
            for record in forks.map_trials(squares_raising_at(raise_at=8, exc=ValueError), 10, forks.never):
                seen.append(record)
        assert seen == [t * t for t in range(8)]
        assert_no_worker_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_an_earlier_stop_wins_over_a_later_exception(self, monkeypatch, workers):
        set_workers(monkeypatch, workers)
        records = list(forks.map_trials(squares_raising_at(raise_at=9), 10, lambda r: r == 16))
        assert records == [0, 1, 4, 9, 16]
        assert_no_worker_left()

    def test_closing_early_reaps_every_worker(self, monkeypatch):
        set_workers(monkeypatch, 3)
        records = forks.map_trials(lambda t: t, 3000, forks.never)
        assert next(records) == 0
        records.close()
        assert_no_worker_left()

    @pytest.mark.parametrize("fail_fast", [False, True])
    @pytest.mark.parametrize("end", ["exit-0", "sigkill"])
    def test_a_worker_that_ends_without_a_result_fails_loudly(self, monkeypatch, end, fail_fast):
        set_workers(monkeypatch, 2)

        def trial(t):
            if t == 7:  # in the second span, so only a worker gets here
                if end == "exit-0":
                    os._exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return t

        with pytest.raises(ChildProcessError, match=r"trials 5\.\.9 ended without a result"):
            list(forks.map_trials(trial, 10, forks.never, fail_fast=fail_fast))
        assert_no_worker_left()

    def test_explicit_process_count(self, monkeypatch):
        set_workers(monkeypatch, 1)
        pids = list(forks.map_trials(lambda t: os.getpid(), 6, forks.never, processes=3))
        assert pids[:2] == [os.getpid()] * 2 and len(set(pids)) == 3
        assert_no_worker_left()


    @pytest.mark.parametrize("fail_fast, seen", [(False, [0, 1, 4, 9, 16]), (True, [0])])
    def test_fail_fast_raises_a_workers_exception_between_this_process_trials(self, monkeypatch, fail_fast, seen):
        # trial 5 opens the worker's span and fails; the parent's trial 0
        # returns only once the worker has sent that failure and exited
        set_workers(monkeypatch, 2)
        raising = squares_raising_at(raise_at=5, exc=ValueError)

        def trial(t):
            if t == 0:
                wait_for_a_worker_to_exit()
            return raising(t)

        records = []
        with pytest.raises(ValueError, match="planted at trial 5"):
            for record in forks.map_trials(trial, 10, forks.never, fail_fast=fail_fast):
                records.append(record)
        assert records == seen
        assert_no_worker_left()

    def test_fail_fast_does_not_wait_for_an_earlier_worker(self, monkeypatch):
        # spans 0..2 (this process), 3..5 and 6..8: the second span's worker
        # hangs, the third's fails; the hanging worker is killed, not awaited
        set_workers(monkeypatch, 3)
        raising = squares_raising_at(raise_at=6, exc=ValueError)

        def trial(t):
            if t == 3:
                time.sleep(60)
            return raising(t)

        start = time.monotonic()
        with pytest.raises(ValueError, match="planted at trial 6"):
            list(forks.map_trials(trial, 9, forks.never, fail_fast=True))
        assert time.monotonic() - start < 30
        assert_no_worker_left()


class TestCpus:
    """Outside a spread map, cpus() is the size of the affinity set, whatever
    the BLAS thread variables say, and 1 while another thread runs."""

    @pytest.mark.parametrize("blas_threads", [None, "1", "4"])
    def test_cpus_is_the_affinity_count(self, monkeypatch, blas_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            if blas_threads is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, blas_threads)
        assert forks.cpus() == 4

    def test_cpus_is_one_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert forks.cpus() == 1
        finally:
            release.set()
            thread.join()
        assert forks.cpus() == 4


class TestNesting:
    """A process that runs a span of a map spread over more than one
    process maps serially: each worker, and the parent during its own
    span."""

    def test_cpus_is_one_inside_a_spread_map(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        forked = []
        fork = os.fork

        def counting_fork():
            forked.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        assert forks.cpus() == 4

        def trial(t):
            before = len(forked)  # a worker counts on its own copy of the list
            inner = list(forks.map_trials(lambda u: u, 8, forks.never))
            return os.getpid(), forks.cpus(), len(forked) - before, inner

        records = list(forks.map_trials(trial, 4, forks.never, processes=2))
        assert [r[1:] for r in records] == [(1, 0, list(range(8)))] * 4
        # the parent ran the first span and one worker the second
        assert records[0][0] == records[1][0] == os.getpid() != records[2][0] == records[3][0]
        assert len(forked) == 1
        assert forks.cpus() == 4
        assert_no_worker_left()


class TestProcessCountLeavesOutputsUnchanged:
    """GBS selection, the sweep and the calibration-size study give the same
    output at 1, 2 and 3 processes."""

    SCHEME = QuantScheme(bits=3, mode="asymmetric", group_size=16)

    def test_gbs_selection(self, monkeypatch):
        d_in = 64  # the subset is the first 32 channels
        w = gen_layer(SynthLayerSpec(d_out=16, d_in=d_in, outlier_channels=4, outlier_scale=6.0, seed=3))
        batch = gen_calibration(d_in, 96, 1e18, seed=3)
        g0, stats = gram(batch.train), channel_stats(w, batch.train)
        runs = {}
        for n in (1, 2, 3):
            set_workers(monkeypatch, n)
            runs[n] = repr(select_hparams_gbs(
                w, batch, self.SCHEME, g0, stats, LAMBDA_GRID_GBS_DEFAULT, GAMMA_GRID_DEFAULT, "gbs", 128
            ))
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert_no_worker_left()

    @pytest.mark.parametrize("method", ["gs", "gbs"])
    def test_sweep_records(self, monkeypatch, method):
        spec = SynthLayerSpec(d_out=8, d_in=16, outlier_channels=2, outlier_scale=6.0)
        runs = {}
        for n in (1, 2, 3):
            set_workers(monkeypatch, n)
            runs[n] = repr(sweep_lambda(spec, self.SCHEME, method, (0.0, 0.5), range(4), n_calib=32, n_heldout=32))
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert_no_worker_left()

    def test_calib_size_study_rows(self, monkeypatch):
        spec = SynthLayerSpec(d_out=4, d_in=8, outlier_channels=1, outlier_scale=8.0)
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=4)
        runs = {}
        for n in (1, 2, 3):
            set_workers(monkeypatch, n)
            runs[n] = repr(calib_size_study(spec, scheme, [8, 16], seeds=range(3), n_heldout=32))
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert_no_worker_left()
