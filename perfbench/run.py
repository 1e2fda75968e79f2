"""Benchmark of betaquad: cold ``betaquad verify`` runs and an edge-margin sweep.

    python3 perfbench/run.py --workload verify-default --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --trace 1

Run from the root of a checkout; the package is imported from ``src``.

Workloads (one process generates all load, one pass at a time):

- ``verify-default``: a cold ``python -m betaquad.cli verify --report R
  --seed N`` process at the default flags (20 samples, ``--jobs``
  ``os.cpu_count()``).  Import, CLI, thread pool and the consistency suite
  carry a large share of its time.
- ``verify-200``: the same command with ``--samples 200``; quadrature
  dominates.
- ``verify-edge``: in-process ``verify.verify_entry`` over every entry
  with the sampling margin cut to 0.01, 20 samples, at EDGE_ROUNDS seeds
  starting at N.  Heavier integrals, known non-pass outcomes; no CLI,
  import or thread pool inside the timed region.

End-to-end metrics (``--trace 0``, tracing off): ``setup_s`` (median cold
import of the entry point the workload uses), ``wall_s``, ``outcomes_per_s``
and ``peak_rss_mb`` (medians over the passes of the run) and
``pass_ratio`` (passing outcomes over outcomes attempted).  ``fail_ratio``,
its complement, is printed too; it is 0 on the CLI workloads, so it is not
a bounded metric.

Per-layer metrics (``--trace 1``): the run also makes the untraced passes,
then TRACED_RUNS traced runs (see tracer.py) whose counts must agree
exactly; times are their medians and ``trace.overhead_s`` is the traced
pass wall minus the untraced one.  PER_LAYER lists the metrics every
workload has.  A layer's ``self_s`` sums the self time of its spans;
``verify.concurrency`` is the child span time of ``verify_all`` (CLI
workloads) or of the ``verify_entry`` calls (edge) over their wall.  The
full per-span table (with the CLI-only ``verify.verify_all.*``,
``verify.consistency.s`` and ``cli.self_s``), the ten costliest entries
and the edge non-pass list are printed and written to ``perfbench/out/``.

Output checks, made on every pass: the CLI exits 0 with verdict ``pass``,
80 x samples outcomes, and a report whose sha256 is the same on every pass
and traced run of the seed; an edge pass completes with the same report
sha256 and non-pass set every time.  A failed check fails all outcomes of
its pass, sets ``correct`` to false and makes the exit code 1.  The
``failed`` count of the result line holds only those; the edge workload's
expected non-pass outcomes count in ``fail_ratio`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import ENGINES, counts_of, median_layers  # noqa: E402
from worker import EDGE_ROUNDS, EDGE_SAMPLES, MIN_PASSES  # noqa: E402

ENTRIES = 80
SETUP_RUNS = 11
IMPORTTIME_RUNS = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "verify-default": {"kind": "cli", "samples": 20, "module": "betaquad.cli"},
    "verify-200": {"kind": "cli", "samples": 200, "module": "betaquad.cli"},
    "verify-edge": {"kind": "edge", "module": "betaquad"},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "outcomes_per_s": "1/s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "import.total_s", "import.numpy_s", "import.betaquad_s",
    *(
        f"quad.{e}.{m}"
        for e in ENGINES
        for m in ("integrals", "fcalls", "evals", "evals_per_fcall", "self_s", "nonconverged",
                  "status.converged", "status.max_level", "status.diverging",
                  "status.max_evals")
    ),
    "verify.self_s", "verify.concurrency", "verify.report_to_jsonl.s",
    "catalog.sample_params.calls", "catalog.sample_params.self_s",
    "catalog.closed_form_value.self_s",
    "specfun.calls", "specfun.self_s",
    "trace.overhead_s",
]


def unit_of(key):
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith(("evals_per_fcall", "concurrency")):
        return "ratio"
    return "count"


class CheckFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The child is killed after CHILD_TIMEOUT_S and always reaped here.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def nproc():
    return len(os.sched_getaffinity(0))


def jobs_flag():
    """``--jobs $(nproc)`` when the CLI default would oversubscribe."""
    return ["--jobs", str(nproc())] if (os.cpu_count() or 1) > nproc() else []


def cli_argv(spec, seed, report):
    argv = ["verify", "--report", str(report), "--seed", str(seed)]
    if spec["samples"] != 20:
        argv += ["--samples", str(spec["samples"])]
    return argv + jobs_flag()


def check_report(path, samples):
    """Validate a CLI JSON report; returns its sha256."""
    data = Path(path).read_bytes()
    summary = json.loads(data.rstrip().rsplit(b"\n", 1)[-1])
    if summary.get("verdict") != "pass":
        raise CheckFailed(f"verdict {summary.get('verdict')!r}")
    if summary.get("outcomes") != ENTRIES * samples or summary.get("entries") != ENTRIES:
        raise CheckFailed(f"summary counts {summary}")
    return hashlib.sha256(data).hexdigest()


def measure_setup(module, tmp):
    run_child(["-c", f"import {module}"], tmp)  # untimed: compiles bytecode
    walls = []
    for _ in range(SETUP_RUNS):
        code, wall, _ = run_child(["-c", f"import {module}"], tmp)
        if code != 0:
            raise CheckFailed(f"import {module} exited {code}")
        walls.append(wall)
    return walls


def measure_importtime(module, tmp):
    """Median per-module import cost from ``python -X importtime``."""
    rows = []
    for i in range(IMPORTTIME_RUNS):
        err = Path(tmp) / f"importtime-{i}.txt"
        with open(err, "w") as fh:
            code, _, _ = run_child(["-X", "importtime", "-c", f"import {module}"], tmp, stderr=fh)
        if code != 0:
            raise CheckFailed(f"import {module} exited {code}")
        total = numpy = own = 0
        for line in err.read_text().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if not m:
                continue
            self_us, name = int(m.group(1)), m.group(2)
            total += self_us
            if name == "numpy" or name.startswith("numpy."):
                numpy += self_us
            if name == "betaquad" or name.startswith("betaquad."):
                own += self_us
        rows.append((total * 1e-6, numpy * 1e-6, own * 1e-6))
    return {
        "import.total_s": statistics.median(r[0] for r in rows),
        "import.numpy_s": statistics.median(r[1] for r in rows),
        "import.betaquad_s": statistics.median(r[2] for r in rows),
    }


def cli_passes(spec, seed, seconds, tmp, state):
    report = Path(tmp) / "report.jsonl"
    argv = ["-m", "betaquad.cli", *cli_argv(spec, seed, report)]
    outcomes = ENTRIES * spec["samples"]
    start = time.perf_counter()
    attempts = 0
    while attempts < MIN_PASSES or time.perf_counter() - start < seconds:
        attempts += 1
        state["attempted"] += outcomes
        report.unlink(missing_ok=True)
        try:
            code, wall, rss = run_child(argv, tmp)
            if code != 0:
                raise CheckFailed(f"betaquad verify exited {code}")
            state["shas"].add(check_report(report, spec["samples"]))
        except (CheckFailed, OSError, ValueError) as exc:
            state["failed"] += outcomes
            state["errors"].append(str(exc))
            return  # the run is already incorrect; further passes add nothing
        state["passed"] += outcomes
        state["walls"].append(wall)
        state["rss"].append(rss)


def run_worker(args, tmp):
    """Run perfbench/worker.py; returns its JSON result, wall s and peak RSS MB."""
    out = Path(tmp) / "worker.json"
    err = Path(tmp) / "worker.err"
    out.unlink(missing_ok=True)
    with open(err, "w") as fh:
        code, wall, rss = run_child(
            [str(HERE / "worker.py"), args[0], "--out", str(out), *args[1:]], tmp, stderr=fh,
        )
    if code != 0:
        tail = err.read_text().strip().splitlines()[-1:]
        raise CheckFailed(f"worker {args[0]} exited {code}: {' '.join(tail)}")
    return json.loads(out.read_text()), wall, rss


def cli_traced(spec, seed, tmp, state):
    report = Path(tmp) / "report.jsonl"
    outcomes = ENTRIES * spec["samples"]
    summaries, walls = [], []
    for _ in range(TRACED_RUNS):
        report.unlink(missing_ok=True)
        state["attempted"] += outcomes
        try:
            result, wall, _ = run_worker(["cli", "--", *cli_argv(spec, seed, report)], tmp)
            if result["exit_code"] != 0:
                raise CheckFailed(f"traced betaquad verify exited {result['exit_code']}")
            state["shas"].add(check_report(report, spec["samples"]))
        except (CheckFailed, OSError, ValueError) as exc:
            state["failed"] += outcomes
            state["errors"].append(str(exc))
            continue
        state["passed"] += outcomes
        summaries.append(result["traces"][0])
        walls.append(wall)
    return summaries, walls


def edge_run(seed, tmp, state, seconds=0.0, traced=0):
    per_pass = outcomes_per_pass(WORKLOADS["verify-edge"])
    try:
        result, _, rss = run_worker(["edge", "--seed", str(seed), "--seconds", str(seconds),
                                  "--traced", str(traced)], tmp)
    except (CheckFailed, OSError, ValueError) as exc:
        state["attempted"] += per_pass
        state["failed"] += per_pass
        state["errors"].append(str(exc))
        return None
    n = len(result["walls"])
    state["attempted"] += n * per_pass
    if result["outcomes"] != per_pass:
        state["failed"] += n * per_pass
        state["errors"].append(f"edge pass produced {result['outcomes']} outcomes")
        return None
    state["shas"].update(result["digests"])
    state["passed"] += n * result["passes"]
    state["nonpass"].add(json.dumps(
        [[r["entry_id"], r["seed"], r["sample_index"], r["status"]] for r in result["nonpass"]]
    ))
    if not traced:
        state["walls"].extend(result["walls"])
        state["rss"].append(rss)
    return result


def median(values):
    return statistics.median(values) if values else 0.0  # only in an incorrect run


def outcomes_per_pass(spec):
    if spec["kind"] == "edge":
        return ENTRIES * EDGE_SAMPLES * EDGE_ROUNDS
    return ENTRIES * spec["samples"]


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    state = {"attempted": 0, "failed": 0, "passed": 0, "walls": [], "rss": [],
             "shas": set(), "nonpass": set(), "errors": []}
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    setup, layers, details = [], None, {}
    try:
        setup = measure_setup(spec["module"], tmp)
        if spec["kind"] == "cli":
            cli_passes(spec, seed, seconds, tmp, state)
        else:
            edge_run(seed, tmp, state, seconds=seconds)
        if trace:
            if spec["kind"] == "cli":
                summaries, traced_walls = cli_traced(spec, seed, tmp, state)
            else:
                result = edge_run(seed, tmp, state, traced=TRACED_RUNS)
                summaries = result["traces"] if result else []
                traced_walls = result["walls"] if result else []
                details["nonpass"] = result["nonpass"] if result else []
            if len(summaries) == TRACED_RUNS:
                counts = [counts_of(s["layers"]) for s in summaries]
                if any(c != counts[0] for c in counts[1:]):
                    state["errors"].append("traced counts differ between runs of one seed")
                layers = median_layers([s["layers"] for s in summaries])
                layers.update(measure_importtime(spec["module"], tmp))
                layers["trace.overhead_s"] = median(traced_walls) - median(state["walls"])
                details["traced_wall_s"] = traced_walls
                details["top_by_evals"] = summaries[0]["top_by_evals"]
                details["top_by_quad_self_s"] = summaries[0]["top_by_quad_self_s"]
                details["spans"] = summaries[0]["spans"]
            else:
                state["errors"].append("traced run failed")
    except CheckFailed as exc:
        state["errors"].append(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if len(state["shas"]) > 1:
        state["errors"].append(f"report sha256 differs across passes: {sorted(state['shas'])}")
    if len(state["nonpass"]) > 1:
        state["errors"].append("edge non-pass set differs across passes")
    attempted = max(state["attempted"], 1)
    wall = median(state["walls"])
    e2e = {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (wall, len(state["walls"])),
        "outcomes_per_s": (outcomes_per_pass(spec) / wall if wall else 0.0, len(state["walls"])),
        "pass_ratio": (state["passed"] / attempted, state["attempted"]),
        "fail_ratio": (1.0 - state["passed"] / attempted, state["attempted"]),
        "peak_rss_mb": (median(state["rss"]), len(state["rss"])),
    }
    correct = not state["errors"] and bool(state["walls"]) and bool(setup)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "errors": state["errors"],
        "end_to_end": {k: {"value": v, "n": n, "unit": END_TO_END.get(k, "ratio")}
                       for k, (v, n) in e2e.items()},
        "per_layer": layers,
        "report_sha256": sorted(state["shas"]),
        "wall_s_runs": state["walls"],
        **details,
    }


def environment(seed, seconds):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "seconds": seconds,
        "jobs_passed": bool(jobs_flag()),
        "cli_jobs": int(jobs_flag()[1]) if jobs_flag() else os.cpu_count(),
    }


def print_result(res):
    print(f"{res['workload']}  seed={res['seed']}  trace={res['trace']}  correct={res['correct']}")
    for key, m in res["end_to_end"].items():
        what = "outcomes" if key.endswith("ratio") else "runs"
        print(f"  {key:<34} {m['value']:>14.6g} {m['unit']:<6} ({what}: {m['n']})")
    for key, value in sorted((res["per_layer"] or {}).items()):
        print(f"  {key:<34} {value:>14.6g} {unit_of(key)}")
    for err in res["errors"]:
        print(f"  CHECK FAILED: {err}")


def metrics_for(res, trace):
    if trace:
        layers = res["per_layer"] or {}  # a layer the run never entered reads 0
        return {k: {"value": layers.get(k, 0.0), "unit": unit_of(k)} for k in PER_LAYER}
    return {k: {"value": res["end_to_end"][k]["value"], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "betaquad" / "__init__.py").is_file():
        print(f"error: no betaquad sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(res)
        results.append(res)

    OUT.mkdir(exist_ok=True)
    dump = {"environment": environment(args.seed, args.seconds), "results": results}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dump, indent=1) + "\n"
    )
    if len(results) == 1:
        metrics = metrics_for(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_for(r, args.trace).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
