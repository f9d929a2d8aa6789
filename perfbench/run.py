"""Benchmark driver for streamfem: four CLI studies, end to end and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the WORKLOADS below, or ``all`` to run each in turn.
Every repetition is a fresh worker process (``worker.py``) with the BLAS
thread count fixed at 1.  Repetitions start until S seconds have passed,
so the last one may run past S.

With ``--trace 0`` the result holds the end-to-end metrics: medians over
the repetitions of wall time and peak memory, the median set-up time
over at least MIN_SETUPS fresh processes (set-up-only processes make up
the count), and the shares of levels and documented checks that pass.
With ``--trace 1`` untraced and traced repetitions alternate; the result
holds the per-layer metrics (medians over the traced repetitions) and the
tracing overhead, and every traced output row must be bit-identical to
the untraced one.

Every row is checked against ``reference.json``.  The last line of
standard output is the JSON result; the run record, with every sample
behind each median, goes to ``perfbench/out/``.  Inputs do not depend on
the seed: the studies are deterministic and their rows are pinned, so the
seed is only recorded.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("time-sweep", "high-order", "stationary-fine", "diagnostics")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio", "checks_pass_frac": "ratio"}
OVERHEAD = "trace.overhead_s"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 5
# one workload must finish well inside the 180 s a run may take
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload, deadline, setup_only=False, spans=None):
    """Run one worker; its record gains ``setup_s`` from process start."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--out", str(OUT_DIR / workload)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker passed the time limit")
    finally:
        if proc.poll() is None:   # time limit or termination: stop it first
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no record")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("setup_done") - started
    return record


def outputs(rep):
    """Everything a repetition computed, for the bit-identity check."""
    return ([(lv["level"], lv["status"], lv.get("row"), lv.get("error"))
             for lv in rep["levels"]],
            [tuple(check) for check in rep["checks"]])


def end_to_end(reps, setups):
    levels = [lv for rep in reps for lv in rep["levels"]]
    checks = [check for rep in reps for check in rep["checks"]]
    passed = sum(lv["status"] == "pass" for lv in levels)
    checks_ok = sum(bool(check[3]) for check in checks)
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "pass_frac": passed / len(levels),
        # a workload that runs no documented check has none failing
        "checks_pass_frac": checks_ok / len(checks) if checks else 1.0,
    }


def per_layer(untraced, traced):
    values = {name: statistics.median(rep["layers"][name] for rep in traced)
              for name in spans.LAYER_UNITS}
    values[OVERHEAD] = (statistics.median(rep["wall_s"] for rep in traced)
                        - statistics.median(rep["wall_s"]
                                            for rep in untraced))
    units = dict(spans.LAYER_UNITS, **{OVERHEAD: "s"})
    return values, units


def measure(workload, seed, seconds, trace, deadline):
    """Run one workload; returns (result, record)."""
    (OUT_DIR / workload).mkdir(parents=True, exist_ok=True)
    untraced, traced, setup_only = [], [], []
    start = time.monotonic()
    while True:
        untraced.append(spawn(workload, deadline))
        if trace:
            path = OUT_DIR / f"{workload}-seed{seed}-spans{len(traced)}.json"
            traced.append(spawn(workload, deadline, spans=path))
        if time.monotonic() - start >= seconds:
            break
    if not trace:
        while len(untraced) + len(setup_only) < MIN_SETUPS:
            setup_only.append(spawn(workload, deadline, setup_only=True))

    reps = untraced + traced
    levels = [lv for rep in reps for lv in rep["levels"]]
    failed = sum(lv["status"] != "pass" for lv in levels)
    identical = all(outputs(rep) == outputs(untraced[0]) for rep in reps)
    correct = identical and all(lv["status"] != "miss" for lv in levels)
    if trace:
        values, units = per_layer(untraced, traced)
    else:
        setups = [rep["setup_s"] for rep in untraced + setup_only]
        values, units = end_to_end(untraced, setups), END_TO_END
    result = {"correct": correct, "attempted": len(levels),
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    checks = [check for rep in reps for check in rep["checks"]]
    derived = {"fail_frac": failed / len(levels),
               "checks_failed": sum(not check[3] for check in checks)
               / len(reps),
               "outputs_identical": identical}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "samples": {"untraced": untraced, "traced": traced,
                          "setup_only": setup_only},
              "derived": derived, "result": result}
    return result, record


def report(workload, result, record):
    samples = record["samples"]
    print(f"{workload}: {len(samples['untraced'])} untraced and "
          f"{len(samples['traced'])} traced repetitions, "
          f"{len(samples['setup_only'])} set-up-only processes, "
          f"seed {record['seed']}, BLAS threads 1")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    derived = record["derived"]
    print(f"  fail_frac = {derived['fail_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} levels failed)")
    print(f"  checks_failed = {derived['checks_failed']:.6g} count "
          f"(documented checks reporting FAIL, per repetition)")
    for rep in samples["untraced"][:1]:
        for lv in rep["levels"]:
            if lv["status"] != "pass":
                detail = lv.get("error") or f"outside {lv['outside']}"
                print(f"  level {lv['level']} {lv['status']}: {detail}")
    print(f"  correct = {result['correct']}")


def git_rev():
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_rev": git_rev(), "src_sha256": src_digest(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so no worker outlives the driver
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "streamfem" / "__init__.py").is_file():
        print(f"no streamfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            result, record = measure(name, args.seed, args.seconds,
                                     bool(args.trace), deadline)
            (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json") \
                .write_text(json.dumps(record, indent=1))
            report(name, result, record)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
