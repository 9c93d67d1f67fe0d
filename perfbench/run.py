"""Benchmark of the metamatrix CLI.

    python3 perfbench/run.py --workload {enumerate,verify,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (the package is imported from src/, so
nothing is built or installed).  One closed-loop client runs the workload's
jobs one after another, each a fresh `python -m metamatrix.cli` process,
and repeats the whole list while the next pass still fits in S seconds.
Every output is checked; a job that fails its check counts as failed and
its time is dropped.

--trace 0 reports the end-to-end metrics: job wall times, set-up time and
peak memory.  --trace 1 instead runs the same jobs inside this process,
each once without and once with timing wrappers on each layer, and reports
the per-layer metrics and the tracing overhead.

Each metric is printed on its own line as `name value unit`; the last line
is one JSON object holding the metrics that BENCHMARK.json lists for the
mode.  The exit code is 0 when every job passed its check, 1 when any
failed, and 2 when the benchmark could not run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Job, Tally, exit_zero, jobs_for, load_golden

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden.py"
SPEC = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".perfbench_tmp"

JOB_TIMEOUT_S = 150
SETUP_SAMPLES = 7
SETUP_JOB = Job("setup_s", ("-c", "import metamatrix.cli"), exit_zero)
# Jobs must not see a cache or kernel choice from the caller's environment.
STRIPPED_ENV = ("METAMATRIX_CACHE_DIR", "METAMATRIX_PURE")

PROBE = """\
import json, sys, importlib.metadata as md
import numpy, metamatrix.cli
try:
    from metamatrix._kernels import IMPLEMENTATION as kernel
except ImportError:
    kernel = None
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "click": md.version("click"), "kernel": kernel}))
"""


# --------------------------------------------------------------------------
# Child processes


def _child_env(scratch: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(scratch)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_python(argv: list[str], env: dict, cwd: Path) -> tuple[int, str, float, int]:
    """Run `python <argv>` as a new process group; returns (exit code, stdout,
    wall seconds, peak RSS in KiB of the largest process in its tree).

    Output goes to files, so the wait can be `wait4`, which also reports the
    peak RSS of the child and of the workers it reaped.  The child is reaped
    only after its process group is killed, so no straggler survives it and
    the group id cannot have been reused when it is signalled."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        _kill_group(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").strip()
    if proc.returncode != 0 and stderr:
        print(f"[{' '.join(argv[:4])}] {stderr.splitlines()[-1]}", file=sys.stderr)
    return proc.returncode, out_path.read_text(errors="replace"), wall, usage.ru_maxrss


# --------------------------------------------------------------------------
# Passes


def repeat_for(seconds: float, one_pass) -> int:
    """Run `one_pass(k)` at least once, and again while another pass of the
    mean length still ends within `seconds`.  Returns the pass count."""
    start = time.perf_counter()
    lengths: list[float] = []
    while True:
        began = time.perf_counter()
        one_pass(len(lengths))
        lengths.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.fmean(lengths) > seconds:
            return len(lengths)


def _cache_precondition(job: Job, cache: Path | None) -> str | None:
    if job.warm and not any(cache.glob("*.ntable.json")):
        return "warm job found an empty cache"
    return None


def _cache_args(job: Job, pass_dir: Path) -> tuple[list[str], Path | None]:
    if job.cache is None:
        return [], None
    cache = pass_dir / "cache" / job.cache
    return ["--cache-dir", str(cache)], cache


def measure_cli(jobs, seconds, scratch, tally) -> dict:
    env = _child_env(scratch)
    setup_dir = scratch / "setup"
    setup_dir.mkdir()
    peak_kib = 0
    for _ in range(SETUP_SAMPLES):
        code, out, wall, rss = run_python(list(SETUP_JOB.args), env, setup_dir)
        tally.record(SETUP_JOB, code, out, wall)
        peak_kib = max(peak_kib, rss)

    pass_walls: list[float] = []

    def one_pass(k: int):
        nonlocal peak_kib
        pass_dir = scratch / f"pass{k}"
        pass_dir.mkdir()
        total = 0.0
        for job in jobs:
            extra, cache = _cache_args(job, pass_dir)
            pre = _cache_precondition(job, cache)
            code, out, wall, rss = run_python(
                ["-m", "metamatrix.cli", *job.args, *extra], env, pass_dir)
            if tally.record(job, code, out, wall, pre):
                total += wall
                peak_kib = max(peak_kib, rss)
        pass_walls.append(total)
        shutil.rmtree(pass_dir)

    passes = repeat_for(seconds, one_pass)
    metrics = {
        name: (statistics.median(tally.walls[name]), "s")
        for name in [SETUP_JOB.name] + [job.name for job in jobs]
        if name in tally.walls
    }
    metrics["wall_s"] = (statistics.median(pass_walls), "s")
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    metrics["error_rate"] = (tally.failed / tally.attempted, "ratio")
    return {"passes": passes, "pass_walls": pass_walls, "metrics": metrics}


def measure_traced(jobs, seconds, scratch, tally) -> dict:
    """Run every job in process twice per round, once plain and once with the
    layer wrappers, back to back and in alternating order, so that drift and
    warm-up fall on both sides alike.  Per-layer times are medians over the
    rounds; counts must repeat exactly from round to round."""
    import tracing

    jobs = [job for job in jobs if job.in_process]
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    per_job: list[dict] = []

    def run_job(job: Job, pass_dir: Path, tracer=None) -> float:
        extra, cache = _cache_args(job, pass_dir)
        pre = _cache_precondition(job, cache)
        if tracer is None:
            code, out, wall = tracing.run_in_process([*job.args, *extra])
        else:
            before = tracer.recorder.snapshot()
            with tracer:
                code, out, wall = tracing.run_in_process([*job.args, *extra])
            counts = tracer.recorder.since(before)
            per_job.append({"job": job.name, **counts})
            elements = counts["engine.elements"]
            checks = "engine.accumulate_ntable" in tracer.installed
            if pre is None and checks and elements != job.elements:
                pre = f"accumulated {elements} elements, expected {job.elements}"
        return wall if tally.record(job, code, out, wall, pre) else 0.0

    def one_round(k: int):
        plain_dir, traced_dir = scratch / f"plain{k}", scratch / f"traced{k}"
        plain_dir.mkdir()
        traced_dir.mkdir()
        tracer = tracing.Tracer()
        plain = traced = 0.0
        for i, job in enumerate(jobs):
            if (i + k) % 2:
                traced += run_job(job, traced_dir, tracer)
                plain += run_job(job, plain_dir)
            else:
                plain += run_job(job, plain_dir)
                traced += run_job(job, traced_dir, tracer)
        plain_walls.append(plain)
        traced_walls.append(traced)
        layer_runs.append(tracing.layer_metrics(tracer.recorder, tracer.installed))
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)

    rounds = repeat_for(seconds, one_round)
    metrics = {}
    for name, (_, unit) in layer_runs[0].items():
        values = [run[name][0] for run in layer_runs]
        if unit == "count":
            if len(set(values)) != 1:
                tally.failed += 1
                tally.failures.append(f"{name}: count changed between rounds: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return {"passes": rounds, "metrics": metrics, "per_job_counts": per_job[:len(jobs)],
            "untraced_wall_s": statistics.median(plain_walls),
            "traced_wall_s": statistics.median(traced_walls)}


# --------------------------------------------------------------------------
# Run metadata


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _probe(scratch: Path) -> dict:
    """Versions and the active kernel, as a fresh child process sees them.
    Also compiles the package's bytecode before anything is timed."""
    probe_dir = scratch / "probe"
    probe_dir.mkdir()
    code, out, _, _ = run_python(["-c", PROBE], _child_env(scratch), probe_dir)
    if code != 0:
        raise RuntimeError("the package does not import; see stderr")
    return json.loads(out)


# --------------------------------------------------------------------------


def _listed_metrics(trace: int) -> list[str]:
    spec = json.loads(SPEC.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "metamatrix" / "cli.py", GOLDEN, SPEC) if not p.is_file()]
    if missing:
        print(f"not a metamatrix source tree: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    import selftest

    golden = load_golden(GOLDEN)
    broken = selftest.problems(golden)
    if broken:
        print("checker self-test failed:\n  " + "\n  ".join(broken), file=sys.stderr)
        return 2

    if not args.trace:  # unwind on SIGTERM, so the running job's group is killed
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "git_revision": _git_revision(),
                "src_sha256": _source_digest(), "nproc": len(os.sched_getaffinity(0)),
                **_probe(scratch)}
        inputs = scratch / "inputs"
        inputs.mkdir()
        jobs = jobs_for(args.workload, args.seed, golden, inputs)
        tally = Tally()
        measure = measure_traced if args.trace else measure_cli
        result = measure(jobs, args.seconds, scratch, tally)
    except RuntimeError as exc:  # the package or an input could not be built
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = result.pop("metrics")
    meta.update(result, attempted=tally.attempted, failed=tally.failed,
                exit_codes=tally.exit_codes)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if unit == 'count' else format(value, '.6g')} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    listed = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
              for name in _listed_metrics(args.trace) if name in metrics}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": listed}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
