"""One cold repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script as `python3 child.py '<json spec>'` with
PYTHONPATH set to the checkout's `src`. It imports qdissect, loads the
catalog (the end of set-up), and in "setup" mode stops there. Otherwise
it runs the workload's timed calls, optionally under the span tracer,
and checks the results outside the timed region. Its last stdout line
is one JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    import qdissect
    from qdissect import dissect

    dissect.load_catalog()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(qdissect.__file__).startswith(src + os.sep):
        print(f"child: qdissect was imported from {qdissect.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = {"ready": ready}
    if spec["mode"] == "setup":
        print(json.dumps(out))
        return 0

    import numpy

    import spans
    import workloads

    profile = workloads.PROFILES[spec["profile"]]
    run, check = workloads.WORKLOADS[spec["workload"]]
    tracer = spans.install() if spec["trace"] else None
    if tracer:
        tracer.active = True
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    result = run(profile, spec["workdir"])
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False
        out["spans"] = tracer.metrics(wall)
        out["absent"] = tracer.absent

    out.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=rss_mb,
        checks=check(result, profile, spec["seed"], spec["profile"]),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
