"""Entry point of every benchmark child process (see worker.py).

The set-up time a child reports runs from its spawn to its first timed op.
To scale it like an op's time, the probes of ``calib.Sampler`` start here,
before the heavy imports (numpy, ifgames) that make up most of it.
"""

import sys

import calib

probes = calib.Sampler().start()
import worker  # noqa: E402  (imported while the probes run)

sys.exit(worker.main(probes=probes))
