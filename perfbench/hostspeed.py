"""A fixed reference job that tracks the host's speed while a run measures.

On a shared virtual machine the host's speed drifts: the same pass of calls
can take a third longer for minutes at a time, with nothing else running in
the machine. A median over passes cannot remove drift that lasts longer than
a run, so two runs of the same program minutes apart disagree by more than
any useful bound.

The runner therefore interleaves this job with the measured calls, about one
job per ``EVERY_S`` of measured time, and scales each call's time by
``REFERENCE_S / (mean time of the jobs right around the call)``. A reported
time reads as the time the program would take on a host where the job takes
``REFERENCE_S``.
The job mixes the kinds of work the program does: dict and tuple updates,
small integer matrix products mod q, and ``argparse`` parsing. It is the
benchmark's own code and runs only between the program's calls, so a change
to the program changes the program's times, not the job's.
"""

import argparse
import time

import numpy as np

REFERENCE_S = 0.008  # nominal job time; scaled timings read as on such a host
EVERY_S = 0.1  # measured seconds per job: the jobs add about a tenth to a run

_A = np.random.default_rng(0).integers(0, 7, (49, 8))
_B = np.random.default_rng(1).integers(0, 7, (8, 8))


def job():
    """Run the reference job once; returns its wall seconds."""
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    for _ in range(100):
        int((_A @ _B % 7).sum())
    for _ in range(20):
        parser = argparse.ArgumentParser()
        parser.add_argument("--q", type=int)
        parser.add_argument("--generators")
        parser.parse_args(["--q", "7", "--generators", "1,2;1,3"])
    return time.perf_counter() - start


class HostSpeed:
    """Jobs run alongside one stretch of measured work (a pass, or a set-up)."""

    def __init__(self):
        self.job_s = [job()]
        self.owed = 0.0
        self.bracket = []  # per measured piece: (last job before it, jobs run by its end)

    def after(self, measured_s):
        """Record a measured piece of measured_s seconds; run the jobs it is owed."""
        first = len(self.job_s) - 1
        self.owed += measured_s
        while self.owed >= EVERY_S:
            self.owed -= EVERY_S
            self.job_s.append(job())
        self.bracket.append((first, len(self.job_s)))

    def scales(self):
        """End the stretch with one last job; returns each piece's scale.

        A piece's scale is REFERENCE_S over the mean time of the jobs right
        around it: the last one before it and those it was owed, or the next
        one when it was owed none. Multiply the piece's time by it. Jobs
        close to a call track the host's speed during that call better than
        the mean over a pass of several seconds.
        """
        self.job_s.append(job())
        near = (self.job_s[first:max(end, first + 2)] for first, end in self.bracket)
        return [REFERENCE_S * len(jobs) / sum(jobs) for jobs in near]
