"""Independent work spread over forked worker processes.

`map_trials` is the one way sarqc runs independent work in parallel: the
verify suites' trials, GBS selection's (λ, γ) pairs, the seeds of a sweep
or of the calibration-size study, and quantize's layers at `--jobs N`.

One rule covers nesting: a process that runs a span of a map spread over
more than one process maps serially. That holds for each forked worker
and for the parent while it runs its own span, so a map inside a spread
map never forks again.
"""

from __future__ import annotations

import os
import pickle
import threading

_spread = False  # set while this process runs a span of a map spread over more than one process


def _forkable() -> bool:
    """Whether this process may fork: not while it runs a span of a spread
    map, and not while another thread runs (fork copies only the calling
    thread, so a lock that another thread holds would stay held in the
    child)."""
    return not _spread and threading.active_count() == 1


def cpus() -> int:
    """How many processes a map's trials are spread over: the CPUs in this
    process's affinity set, or 1 where the platform cannot say or where this
    process may not fork."""
    if _forkable() and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def never(record) -> bool:
    return False


def map_trials(trial, trials: int, stop, *, processes: int | None = None, fail_fast: bool = False):
    """Yield trial(t) for t = 0, 1, … in order, up to and including the
    first record for which stop(record) holds.

    range(trials) is cut into min(processes, trials) contiguous spans;
    `processes` defaults to cpus(), and is 1 wherever this process may not
    fork. The first span runs in this process; each other one runs in a
    forked worker, which stops after its own first stop record and sends
    its records, or the records before the exception that ended it and that
    exception, back through a pipe. Records come out in trial order and a
    worker's exception is raised where the serial loop would have raised
    it, so the caller sees the same for any process count. This holds
    because each trial depends only on t and on the state of the moment the
    workers were forked, test patches included; a trial's side effects on
    this process's memory stay in the worker that ran it.

    Once a stop record or an exception ends the run, the workers still
    running are killed. Every worker is reaped before the generator
    finishes, whether the caller reads to the end, closes it early or
    raises. A worker that ends without sending a result raises
    ChildProcessError (exit 3); it never counts as a pass.

    With fail_fast, a worker's exception is raised as soon as this process
    sees it, between its own trials or while it waits for the workers,
    instead of where the serial loop would raise it: the trials before it
    are then not all run, and where several trials fail, which exception is
    raised depends on timing. quantize's layers take it: any failed layer
    ends the run, so the layers before it need not finish.
    """
    n = max(1, min(cpus() if processes is None else processes, trials)) if _forkable() else 1
    ends = [trials * k // n for k in range(n + 1)]
    workers = {}  # pid -> (read end of its pipe, first trial, end), for every worker not yet reaped
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the read ends it inherits are closed, so a closed pipe ends a writing worker
                _worker(trial, ends[k], ends[k + 1], stop, w, [r, *(v[0] for v in workers.values())])
            os.close(w)
            workers[pid] = (r, ends[k], ends[k + 1])
        pids, done = list(workers), {}  # done: pid -> (records, exception or None) of a worker reaped
        for t in range(ends[1]):
            record = _in_span(trial, t) if n > 1 else trial(t)
            yield record
            if stop(record):
                return
            if fail_fast and workers:
                _collect_ready(workers, done, 0)
        for pid in pids:
            while pid in workers:
                if fail_fast:
                    _collect_ready(workers, done, None)
                else:
                    done[pid] = _collect(pid, *workers.pop(pid))
            records, error = done.pop(pid)
            for record in records:
                yield record
                if stop(record):
                    return
            if error is not None:
                raise error
    finally:
        if workers:
            import signal  # loaded only here, so importing sarqc loads no new module

            for pid, (r, _, _) in workers.items():
                os.close(r)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _in_span(trial, t: int):
    """trial(t), run by the parent as part of its own span of a spread map."""
    global _spread
    _spread = True
    try:
        return trial(t)
    finally:
        _spread = False


def _worker(trial, start: int, end: int, stop, w: int, inherited: list[int]):
    """A forked worker's whole life: close the inherited read ends, run
    trials start…end−1, write (records, the exception that ended them or
    None) to w and exit. Its body sits inside try/finally os._exit, so
    nothing it raises unwinds into the caller's stack, and it exits 0 only
    once its result is written."""
    global _spread
    _spread = True
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        records, error = [], None
        try:
            for t in range(start, end):
                records.append(trial(t))
                if stop(records[-1]):
                    break
        except Exception as exc:  # raised again by the parent, at trial start + len(records)
            error = exc
        payload = pickle.dumps((records, error), pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _collect_ready(workers: dict, done: dict, timeout: float | None):
    """Reap into done every worker whose pipe is readable within timeout
    seconds (None: until one is), and raise the first exception among their
    results. A worker writes only once its span has ended, so a readable
    pipe is read to its end at once."""
    import select  # loaded only here, so importing sarqc loads no new module

    ready, _, _ = select.select([v[0] for v in workers.values()], [], [], timeout)
    for pid in [pid for pid, v in workers.items() if v[0] in ready]:
        records, error = done[pid] = _collect(pid, *workers.pop(pid))
        if error is not None:
            raise error


def _collect(pid: int, r: int, start: int, end: int):
    """Read a worker's (records, exception or None) from its pipe and reap
    it, also when the read fails: closing the pipe ends a worker that is
    still writing."""
    chunks = []
    try:
        while chunk := os.read(r, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return pickle.loads(b"".join(chunks))
        except Exception as exc:
            code = f"0 and an unreadable result ({exc})"
    raise ChildProcessError(f"the worker for trials {start}..{end - 1} ended without a result: exit code {code}")
