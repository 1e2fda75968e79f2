"""Child process of the benchmark: one workload pass loop or traced run.

    python3 perfbench/worker.py edge --seed N --seconds S --out PATH
    python3 perfbench/worker.py edge --seed N --traced 2 --out PATH
    python3 perfbench/worker.py cli --out PATH -- verify --report R ...

``edge`` runs the edge-margin workload in-process: one untimed warm-up
round (it fills the node tables), then either timed passes until ``S``
seconds have gone or ``--traced`` traced passes.  ``cli`` imports
``betaquad.cli``, installs the tracer and runs ``cli.run`` with the given
arguments.  Results go to ``PATH`` as JSON; the package is taken from
``PYTHONPATH``, which the caller points at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402

EDGE_MARGIN = 0.01
EDGE_SAMPLES = 20
# The edge margin makes the cost of a sample heavy-tailed: a few draws near
# an endpoint exponent of -1 run to MAX_LEVEL.  One pass therefore covers
# EDGE_ROUNDS seeds, the benchmark seed first, so that the work in a pass
# varies little from one benchmark seed to the next.
EDGE_ROUNDS = 16
ROUND_STRIDE = 100_000
MIN_PASSES = 3


def edge_records():
    from betaquad import catalog

    return [
        dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, margin=EDGE_MARGIN))
        for rec in catalog.all_entries()
    ]


def edge_pass(records, seed, rounds=EDGE_ROUNDS):
    """All outcomes of one pass, tagged with the RunConfig seed they used."""
    from betaquad import verify

    tagged = []
    for k in range(rounds):
        run_seed = seed + ROUND_STRIDE * k
        cfg = verify.RunConfig(seed=run_seed, samples_per_entry=EDGE_SAMPLES)
        for rec in records:
            tagged.extend((run_seed, o) for o in verify.verify_entry(rec, cfg))
    return tagged


def edge_digest(records, tagged):
    """sha256 of the pass serialized as a JSON report, plus its non-pass set."""
    from betaquad import verify

    outcomes = [o for _, o in tagged]
    passes = sum(1 for o in outcomes if o.status == "pass")
    worst = max((o.rel_err for o in outcomes if math.isfinite(o.rel_err)), default=0.0)
    report = verify.VerificationReport(
        outcomes, len(records), passes, len(outcomes) - passes, worst, 0.0
    )
    payload = verify.report_to_jsonl(report)
    nonpass = [
        {"entry_id": o.entry_id, "seed": s, "sample_index": o.sample_index,
         "status": o.status, "rel_err": o.rel_err}
        for s, o in tagged if o.status != "pass"
    ]
    return hashlib.sha256(payload.encode()).hexdigest(), passes, nonpass


def run_edge(args):
    records = edge_records()
    edge_pass(records, args.seed, rounds=1)  # warm-up: fills the node tables
    walls, digests, traces = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer().install() if args.traced else None
        try:
            pass_start = time.perf_counter()
            tagged = edge_pass(records, args.seed)
            walls.append(time.perf_counter() - pass_start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digest, passes, nonpass = edge_digest(records, tagged)
        digests.append(digest)
        if tracer is not None:
            summary = tracer.summary()
            engine_status = {
                r[2]: r[5] for r in tracer.integrals if r[2] is not None
            }
            for row in nonpass:
                key = (row["entry_id"], row["seed"], row["sample_index"])
                row["engine_status"] = engine_status.get(key)
            traces.append(summary)
            if len(traces) >= args.traced:
                break
        elif time.perf_counter() - start >= args.seconds and len(walls) >= MIN_PASSES:
            break
    return {
        "walls": walls,
        "digests": digests,
        "outcomes": len(tagged),
        "passes": passes,
        "nonpass": nonpass,
        "traces": traces,
    }


def run_cli(args):
    from betaquad import cli

    tracer = Tracer().install()
    try:
        code = cli.run(args.argv)
    finally:
        tracer.uninstall()
    return {"exit_code": code, "traces": [tracer.summary()]}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("edge", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", type=int, default=0)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    result = run_edge(args) if args.mode == "edge" else run_cli(args)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
