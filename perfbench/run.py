"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload single-2e20 --seed 1 --seconds 25 --trace 0

The command runs in three kinds of process.  This one orchestrates and
never imports ``repro``.  With ``--trace 0`` it first starts two *probe*
processes, fresh interpreters that each import ``repro``, build the
workload's inputs and run one untimed warm-up iteration; then one
*measure* process does the same set-up and runs timed iterations for
``--seconds``.  ``setup_s`` is the median set-up time of the three.
With ``--trace 1`` the measure process instead runs the timed iterations
untraced, rebuilds the workload, runs the same iterations again with
spans recorded around the calls into each layer, checks that both runs
gave the same results, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
operation makes the run exit with code 1, after naming the workload,
seed and iteration on standard error.  Spans go to
``.perfbench/traces/`` and every run appends a record with the machine
fingerprint to ``.perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: The keys of ``perfbench.workloads.WORKLOADS``, which imports ``repro``.
WORKLOAD_NAMES = ("single-2e20", "fleet-2e16", "sweep-jobs2")
#: Set-up samples taken in fresh interpreters before the measure process.
PROBES = 2
#: The whole command must end within this many seconds (the set-ups)
#: plus ``(2 + trace) * seconds``: the timed iterations, the overrun of
#: the last one and, with ``--trace 1``, the traced rerun of as many.
DEADLINE_MARGIN_S = 90.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "vertex_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--role", choices=("main", "probe", "measure"), default="main",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _setup(args: argparse.Namespace, workdir: Path) -> tuple[Any, Any, dict]:
    """Import ``repro``, build the inputs, run the warm-up iteration."""
    start = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    from perfbench.spans import NullTracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.build()
    built = time.perf_counter()
    warm = workload.iteration(0, NullTracer())
    done = time.perf_counter()
    times = {
        "import_s": imported - start,
        "build_s": built - imported,
        "warmup_s": done - built,
        "setup_s": done - start,
    }
    return workload, warm, times


def _timed(
    workload: Any, tracer: Any, *, seconds: float = 0.0, count: int = 0
) -> list:
    """Iterations 1, 2, ... for ``seconds``, or exactly ``count`` of them."""
    iteration = tracer.wrap("bench.iteration", workload.iteration)
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(iteration(len(outcomes) + 1, tracer))
        if count:
            if len(outcomes) >= count:
                return outcomes
        elif time.perf_counter() - start >= seconds:
            return outcomes


def _tally(outcomes: list) -> tuple[int, list[str]]:
    """Operations attempted by iterations 1, 2, ..., and their failures."""
    attempted = sum(o.ops for o in outcomes)
    failures = [
        f"iteration {i}: {msg}"
        for i, o in enumerate(outcomes, start=1)
        for msg in o.failures
    ]
    return attempted, failures


def run_probe(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    _, warm, times = _setup(args, workdir)
    failures = [f"warm-up: {m}" for m in warm.failures]
    return {"setup": times, "attempted": warm.ops, "failures": failures}


def run_measure(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    from perfbench.spans import NullTracer

    workload, warm, setup = _setup(args, workdir)
    untraced = _timed(workload, NullTracer(), seconds=args.seconds)
    failures = [f"warm-up: {m}" for m in warm.failures]
    attempted, timed_failures = _tally(untraced)
    attempted += warm.ops
    failures += timed_failures
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.counts_children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [o.wall_s for o in untraced]
    result: dict[str, Any] = {
        "setup": setup,
        "attempted": attempted,
        "failures": failures,
        "samples": len(walls),
        "walls": walls,
        "metrics": {
            "wall_s": statistics.median(walls),
            # Rates are per iteration, medians like wall_s, so that one
            # slow iteration moves them no more than it moves wall_s.
            "ops_per_s": statistics.median(o.ops / o.wall_s for o in untraced),
            "vertex_rounds_per_s": statistics.median(
                o.vertex_rounds / o.wall_s for o in untraced
            ),
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }
    if args.trace:
        traced_result = _run_traced(args, workdir, untraced, setup)
        result["attempted"] += traced_result["attempted"]
        result["failures"] += traced_result["failures"]
        result["layers"] = traced_result["layers"]
        result["trace_files"] = traced_result["files"]
    return result


def _run_traced(
    args: argparse.Namespace, workdir: Path, untraced: list, setup: dict
) -> dict[str, Any]:
    """Rebuild, rerun the same iterations with spans, compare results."""
    from perfbench import layers
    from perfbench.spans import NullTracer, Tracer, summary_text
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir / "traced")
    tracer = Tracer()
    workload.build()
    warm = workload.iteration(0, NullTracer())
    pools = layers.install(tracer)
    try:
        traced = _timed(workload, tracer, count=len(untraced))
    finally:
        tracer.unpatch_all()
    failures = [f"traced warm-up: {m}" for m in warm.failures]
    attempted, timed_failures = _tally(traced)
    failures += [f"traced {m}" for m in timed_failures]
    for i, (a, b) in enumerate(zip(untraced, traced), start=1):
        if a.digest != b.digest:
            failures.append(f"iteration {i}: traced result differs from untraced")
    metrics = layers.layer_metrics(tracer, pools, traced, untraced, setup)
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}"
    spans_path = traces / f"{stem}.jsonl"
    summary_path = traces / f"{stem}.txt"
    tracer.write_jsonl(spans_path)
    summary_path.write_text(summary_text(tracer.spans, len(traced)) + "\n")
    return {
        "attempted": warm.ops + attempted,
        "failures": failures,
        "layers": metrics,
        "files": [str(spans_path.relative_to(ROOT)),
                  str(summary_path.relative_to(ROOT))],
    }


def child_main(args: argparse.Namespace) -> int:
    # The orchestrator removes this directory when the process has ended.
    workdir = OUT / "work" / str(os.getpid())
    if args.role == "probe":
        result = run_probe(args, workdir)
    else:
        result = run_measure(args, workdir)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


def _stop_session(proc: subprocess.Popen) -> None:
    """Stop the child and everything left in its session, and reap it.

    SIGTERM comes first: multiprocessing's resource tracker ignores it
    and, once the child is gone, unlinks any shared memory the child
    left behind; SIGKILL follows for whatever is still alive.
    """
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        end = time.monotonic() + 2.0
        while time.monotonic() < end:
            proc.poll()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
    proc.wait()


def _spawn(args: argparse.Namespace, role: str, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is its result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process exceeded the time limit") from None
    finally:
        _stop_session(proc)
        shutil.rmtree(OUT / "work" / str(proc.pid), ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process printed no result")
    return json.loads(lines[-1])


def _print_report(
    args: argparse.Namespace, measured: dict, setups: list[dict],
    metrics: dict, units: dict, fp: dict,
) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine  nproc={fp['nproc']} affinity={fp['affinity']} "
          f"cpu={fp['cpu_model']!r} blas={fp['blas']} env={fp['env']}")
    print(f"versions python={fp['python']} numpy={fp['numpy']} "
          f"scipy={fp['scipy']} commit={fp['commit']}")
    for i, s in enumerate(setups):
        print(f"setup[{i}]  import {s['import_s']:.3f} s  build "
              f"{s['build_s']:.3f} s  warm-up {s['warmup_s']:.3f} s  "
              f"total {s['setup_s']:.3f} s")
    for name, value in metrics.items():
        note = f"  (median of {measured['samples']})" if name == "wall_s" else ""
        print(f"{name:<32}{value:>16.6g} {units[name]}{note}")
    failed = len(measured["failures"])
    print(f"{'failed_frac':<32}{failed / max(1, measured['attempted']):>16.6g} "
          f"({failed} of {measured['attempted']} operations)")
    for path in measured.get("trace_files", []):
        print(f"trace    {path}")
    if "layers" in measured:
        print((ROOT / measured["trace_files"][1]).read_text(), end="")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_MARGIN_S + (
        2 + args.trace
    ) * args.seconds
    # A SIGTERM unwinds through _spawn, which stops the running child.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        probes = [] if args.trace else [
            _spawn(args, "probe", deadline) for _ in range(PROBES)
        ]
        measured = _spawn(args, "measure", deadline)
    except (RuntimeError, KeyboardInterrupt) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc!r}",
              file=sys.stderr)
        return 1
    from perfbench.fingerprint import fingerprint

    setups = [p["setup"] for p in probes] + [measured["setup"]]
    failures = [f"probe {i}: {m}" for i, p in enumerate(probes)
                for m in p["failures"]] + measured["failures"]
    attempted = sum(p["attempted"] for p in probes) + measured["attempted"]
    if args.trace:
        from perfbench.layers import PER_LAYER_UNITS as units

        metrics = measured["layers"]
    else:
        units = E2E_UNITS
        metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
        metrics.update(measured["metrics"])
    fp = fingerprint(ROOT)
    measured = {**measured, "failures": failures, "attempted": attempted}
    _print_report(args, measured, setups, metrics, units, fp)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": measured["samples"],
        "walls": measured["walls"],
        "setups": setups,
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures[:50],
        "fingerprint": fp,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for message in failures[:20]:
        print(f"perfbench: FAILED {args.workload} seed {args.seed}: {message}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
