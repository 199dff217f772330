"""Command line: ``python -m bench run`` and ``python -m bench compare``.

``run --workload W`` measures one workload in this process (the form
``BENCHMARK.json`` names).  Without ``--workload``, or with
``--repeat``/``--out``, each run goes to a fresh subprocess and a summary
with the per-metric spread follows.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ROOT, use_src
from .sets import DEFAULT_SECONDS

#: --smoke runs one-second windows.
SMOKE_SECONDS = 1.0


def _run(args) -> int:
    if args.workload and len(args.workload) == 1 and args.repeat == 1 and not args.out:
        use_src()
        from .runner import run

        seconds = SMOKE_SECONDS if args.smoke else args.seconds
        return run(args.workload[0], args.seed, seconds, bool(args.trace), args.smoke)
    from .sets import run_child, save, summary
    from .workloads import WORKLOADS

    use_src()
    runs, failures = [], 0
    for workload in args.workload or list(WORKLOADS):
        for seed in range(args.seed, args.seed + args.repeat):
            code, detail = run_child(
                ROOT, workload, seed, args.seconds, bool(args.trace), args.smoke
            )
            failures += code != 0 or detail is None
            if detail is not None:
                runs.append(detail)
    print("\n".join(summary(runs)))
    if args.out:
        save(Path(args.out), runs)
    return 1 if failures else 0


def _compare(args) -> int:
    from .sets import alternate, judge, load, render, save

    base, change = Path(args.base), Path(args.change)
    failures = 0
    if base.is_dir() and change.is_dir():
        base_runs, change_runs, failures = alternate(base, change)
        if args.save:
            save(Path(args.save) / "base.json", base_runs)
            save(Path(args.save) / "change.json", change_runs)
    else:
        base_runs, change_runs = load(base), load(change)
    rows = judge(base_runs, change_runs)
    print("\n".join(render(rows)))
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", help="workload name (repeatable)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer metrics from a traced run (after an untraced one)",
    )
    run.add_argument("--smoke", action="store_true", help="one-second windows, small pools")
    run.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..")
    run.add_argument("--out", help="save the runs as a set (JSON)")

    compare = commands.add_parser(
        "compare", help="judge a change against its parent, pair by pair"
    )
    compare.add_argument("base", help="parent: a saved set, or a checkout to run")
    compare.add_argument("change", help="change: a saved set, or a checkout to run")
    compare.add_argument("--save", help="directory for the two sets run")

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.workload:
            from .workloads import WORKLOADS

            unknown = [w for w in args.workload if w not in WORKLOADS]
            if unknown:
                parser.error(f"unknown workload(s): {', '.join(unknown)}")
        return _run(args)
    return _compare(args)


if __name__ == "__main__":
    sys.exit(main())
