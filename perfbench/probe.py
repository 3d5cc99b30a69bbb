"""Fixed pieces of work that measure how fast the machine is right now.

On a shared host the CPU time of the same work moves by up to 2x within
seconds (frequency and contention from other tenants), and it moves the
program and these probes alike. ``worker.py`` runs its workload's probes
right before and right after the timed section and divides the section's
CPU time by the slowdown, the mean probe CPU time over ``NOMINAL_S``. The
probes are benchmark code and never change with the program, so the scaled
time moves only when the program does.

Two kinds, matched to what dominates a workload; a workload scaled by both
uses the mean of their slowdowns:
- ``calls``: many numpy calls on small arrays from a Python loop, the shape
  of the per-GoP and per-step code in ``traces``, ``streaming``, ``bpea``
  and ``leakage``. It also scales the set-up time (interpreter start and
  imports), which is Python-bound work of the same kind. Every workload
  runs it.
- ``matmul``: (256 x 3) @ (3 x 20000) float64 products, thresholded and
  counted per row, as ``oracle.grid_attacker_best`` scores its candidate
  chunks at the workload's trial count: each product is a fresh 41 MB
  array, so page faults and memory traffic dominate as they do there. It
  runs in a forked child (see ``Prober``). ``attack_grid`` uses it with
  ``calls``.
"""

import os
import time

import numpy as np

# CPU seconds of each probe on an idle 2-core x86-64 VM (numpy 2, OpenBLAS
# pinned to one thread); only a scale, so scaled times read as seconds.
NOMINAL_S = {"calls": 0.2, "matmul": 0.5}


def _calls() -> float:
    v = np.random.default_rng(0).normal(size=(64, 3))
    acc = 0.0
    for _ in range(12_000):
        w = v / np.linalg.norm(v, axis=1, keepdims=True)
        acc += float(np.sum(np.arccos(np.clip(w @ w[0], -1.0, 1.0))))
    return acc


def _matmul() -> int:
    rng = np.random.default_rng(1)
    guesses = rng.normal(size=(256, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, 20_000)
    actual = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    best = 0
    for _ in range(20):
        best = max(best, int(np.max(np.sum(guesses @ actual.T >= 0.5, axis=1))))
    return best


_PROBES = {"calls": _calls, "matmul": _matmul}


def _timed(kind: str) -> float:
    start = time.process_time()
    _PROBES[kind]()
    return time.process_time() - start


class Prober:
    """Runs one kind of probe on request.

    ``matmul`` runs in a child forked when the prober is made, right after
    set-up: its 41 MB products then count in the child's resident memory,
    not the worker's, and a probe run after the timed section still starts
    from the heap as it was before it, not from the one the workload left.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.pid = 0
        if kind != "matmul":
            return
        cmd_read, self._cmd = os.pipe()
        result_read, result_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self._cmd)
                os.close(result_read)
                while os.read(cmd_read, 1):
                    os.write(result_write, f"{_timed(kind)!r}\n".encode())
            finally:
                os._exit(0)
        os.close(cmd_read)
        os.close(result_write)
        self._results = os.fdopen(result_read)

    def run(self) -> float:
        """CPU seconds the probe takes now."""
        if not self.pid:
            return _timed(self.kind)
        os.write(self._cmd, b"x")
        return float(self._results.readline())

    def close(self) -> None:
        if self.pid:
            os.close(self._cmd)
            self._results.close()
            os.waitpid(self.pid, 0)
            self.pid = 0


def slowdown(kind: str, seconds: list) -> float:
    """How much slower than nominal the machine ran, from its probe times."""
    return sum(seconds) / (len(seconds) * NOMINAL_S[kind])
