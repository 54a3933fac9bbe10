"""Host reference loop, host-speed scaling and machine fingerprint.

``ref_loop`` is a fixed pure-Python workload timed between benchmark
units, so host drift shows in every result as ``host.ref_s``.  The CPU
speed of a shared host swings by up to 2x in phases of several seconds,
each vCPU on its own, and every timing follows it; :func:`host_seconds`
scales a wall time by reference loops that bracket it in the same
process, which cancels most of that swing.  Importing this module loads
nothing beyond ``os``, ``sys`` and ``time``, so cold launches can time
the loop cheaply.  Run as a script, it prints the machine fingerprint
as one JSON line:

    PYTHONPATH=src python3 perfbench/host.py
"""

import os
import sys
import time


def ref_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (a few ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    if total != 19_999:  # keeps the loop from being optimised away
        raise AssertionError("reference loop miscounted")
    return elapsed


#: The reference loop's time on the nominal host.  Scaled times read as
#: seconds on a host where :func:`ref_loop` takes this long.
REF_NOMINAL_S = 1.0e-3


def host_seconds(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` seconds scaled to the nominal host speed."""
    return wall * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


def _cpu_model() -> str:
    import platform
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy < 1.25 has no dict mode
        return {}
    deps = config.get("Build Dependencies", {})
    return {key: {"name": deps.get(key, {}).get("name"),
                  "version": deps.get(key, {}).get("version")}
            for key in ("blas", "lapack")}


def fingerprint() -> dict:
    """What the numbers depend on besides the code."""
    import platform

    import numpy as np
    import scipy
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "dont_write_bytecode": sys.dont_write_bytecode,
    }


if __name__ == "__main__":
    import json
    sys.stdout.write(json.dumps(fingerprint()) + "\n")
