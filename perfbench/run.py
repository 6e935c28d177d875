"""qdissect benchmark: batch workloads timed in cold child interpreters.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and workloads.py): `catalog` verifies the
identity catalog through the CLI, `exact` does big-integer series work
and the exact table's disk cache, `hunt` builds residue tables and scans
them for congruences. `--workload all` runs the three in turn.

Every repetition is a fresh interpreter with `QDISSECT_CACHE` removed
and its own scratch directory under perfbench/_work, so module-level
caches start cold as they do for a CLI user. Children run one at a time.
Repetitions continue while the next one is expected to finish within
`--seconds` (counted from the start of the run); there is always at
least one, and with `--trace 1` at least one untraced and one traced.

`--trace 0` reports the end-to-end metrics:
  wall_s       median time from the workload's first call to its last
  setup_s      median time from spawn until `import qdissect` and
               `load_catalog()` returned (extra set-up-only children add
               samples)
  cpu_s        median user+system CPU of the child over the same interval
               as wall_s (above wall_s means a second core was used)
  peak_rss_mb  median ru_maxrss of the child at the end of the workload
  passed_share passed checks / attempted checks over all repetitions
               (1 at a correct program; the record also gives
               failed_share, its complement, and names the failed checks)
`--trace 1` reports the per-layer metrics of spans.py from traced
repetitions (medians), and `trace.overhead_s`, the traced minus the
untraced median wall time.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is the run record (commit,
Python and numpy versions, nproc, seed, sample counts). The exit code
is 0 on a completed run, 1 when a child failed and 2 when the checkout
holds no qdissect sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ("catalog", "exact", "hunt")

# Each run must end well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
SETUP_PROBES = {"full": 5, "smoke": 1}


class BenchError(RuntimeError):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so child timestamps compare with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(spec: dict, deadline: float) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"{spec['mode']}-", dir=WORK)
    env = dict(os.environ)
    env.pop("QDISSECT_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = workdir
    spec = dict(spec, workdir=workdir, src=str(SRC))
    start = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} child ran past the run's time limit") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['mode']} child exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    out["duration_s"] = _now() - start
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool, profile: str) -> dict:
    """Run one workload's repetitions and aggregate them."""
    start = _now()
    deadline = start + HARD_LIMIT_S
    base = {"workload": workload, "seed": seed, "profile": profile}
    _spawn(dict(base, mode="setup"), deadline)  # writes bytecode caches; not counted
    setups = [_spawn(dict(base, mode="setup"), deadline)["setup_s"] for _ in range(SETUP_PROBES[profile])]
    plain, traced = [], []
    while True:
        traced_turn = trace and len(plain) > len(traced)
        rep = _spawn(dict(base, mode="run", trace=traced_turn), deadline)
        (traced if traced_turn else plain).append(rep)
        setups.append(rep["setup_s"])
        minimum_met = bool(plain) and (traced or not trace)
        finish = _now() + rep["duration_s"]
        if minimum_met and (finish > start + seconds or finish > deadline):
            break

    checks = [c for rep in plain + traced for c in rep["checks"]]
    failed = [name for name, ok in checks if not ok]
    end_to_end = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "passed_share": (len(checks) - len(failed)) / len(checks),
    }
    per_layer = {}
    if traced:
        for key in traced[0]["spans"]:
            per_layer[key] = statistics.median(r["spans"][key] for r in traced)
        per_layer["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - end_to_end["wall_s"]
    first = plain[0]
    record = {
        "workload": workload,
        "profile": profile,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "setup_samples": len(setups),
        "wall_samples": [r["wall_s"] for r in plain],
        "failed_share": len(failed) / len(checks),
        "failed_checks": sorted(set(failed)),
        "absent_spans": traced[0]["absent"] if traced else [],
    }
    return {
        "record": record,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": per_layer if trace else end_to_end,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _declared(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def _report(result: dict, declared, prefix: str = "") -> dict:
    """Print the metrics by name and unit; return the declared ones."""
    metrics = {}
    for name, unit in declared:
        if name not in result["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        value = result["metrics"][name]
        print(f"{prefix}{name:<40} {value:>14.6g} {unit}")
        metrics[prefix + name] = {"value": value, "unit": unit}
    print("record " + json.dumps(result["record"]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qdissect benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "qdissect" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no qdissect sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    profile = "smoke" if args.smoke else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    declared = _declared(bool(args.trace))
    WORK.mkdir(exist_ok=True)
    try:
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), profile)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update(_report(result, declared, prefix))
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
