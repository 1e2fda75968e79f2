"""Command-line front end: list, show, verify, export.

Exit codes: 0 everything passed; 1 at least one verification failure or
non-convergence; 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import catalog, verify


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="betaquad",
        description="Numerically verify the catalog of beta-function integral identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the roster (id, group, citation)")

    p_show = sub.add_parser("show", help="print one entry's domain and metadata")
    p_show.add_argument("id")

    p_verify = sub.add_parser("verify", help="run the verification harness")
    p_verify.add_argument("--id", action="append", dest="ids", metavar="ID",
                          help="restrict to this entry (repeatable)")
    p_verify.add_argument("--samples", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--rtol", type=float, default=None,
                          help="override the per-class relative tolerance")
    p_verify.add_argument("--atol", type=float, default=1e-12)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted for compatibility (>= 1); no effect, runs are serial")
    p_verify.add_argument("--report", metavar="PATH", default=None,
                          help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")

    p_export = sub.add_parser("export", help="write catalog.json")
    p_export.add_argument("--out", required=True, metavar="PATH")
    return parser


def _cmd_list():
    for rec in sorted(catalog.all_entries(), key=lambda r: r.id):
        print(f"{rec.id:<16} {rec.group}  {rec.citation}")
    return 0


def _cmd_show(entry_id):
    rec = catalog.entry(entry_id)
    print(f"id:              {rec.id}")
    print(f"group:           {rec.group}")
    print(f"tolerance class: {rec.tolerance_class} (rtol {rec.rtol:g})")
    if rec.zero_atol is not None:
        print(f"zero atol:       {rec.zero_atol:g}")
    print(f"citation:        {rec.citation}")
    print("parameters:")
    # an integer is drawn from its closed range; a real from its open one,
    # shrunk by the margin on each side, and a real draw closer than that
    # shrink to an excluded value is drawn again
    for prm, (_, integer, a, w, shrink, exclude) in zip(rec.domain.params, rec.domain.plan):
        bounds = f"[{prm.lo:g}, {prm.hi:g}]" if integer else f"({prm.lo:g}, {prm.hi:g})"
        carve = "".join(f", excluding ({ex - shrink:g}, {ex + shrink:g})" for ex in exclude)
        print(f"  {prm.name:<6} {prm.kind:<8} range {bounds}, drawn in [{a:g}, {a + w:g}]{carve}")
    if rec.domain.relations:
        print("relations:")
        for r in rec.domain.relations:
            print(f"  {r.text}")
    print(f"margin:          {rec.domain.margin:g}")
    return 0


def _cmd_verify(args):
    # RunConfig checks the flags and ids before the report opens; run() maps its errors to 2
    cfg = verify.RunConfig(
        seed=args.seed,
        samples_per_entry=args.samples,
        rtol_override=args.rtol,
        atol=args.atol,
        entry_filter=tuple(args.ids) if args.ids else None,
        parallelism=args.jobs,
    )
    if args.report is None:
        sink = nullcontext(sys.stdout)
    else:
        sink = open(args.report, "w", encoding="utf-8")
    with sink as fh:
        verdict = verify.write_report(cfg, fh, args.format)
    return 1 if verdict == "fail" else 0


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "show":
            return _cmd_show(args.id)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "export":
            catalog.write_catalog_json(args.out)
            return 0
    except catalog.UnknownEntryError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
