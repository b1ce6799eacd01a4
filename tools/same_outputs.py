#!/usr/bin/env python3
"""Print, or compare between two checkouts, the outputs of a fixed command set.

    python tools/same_outputs.py [--tree DIR]
    python tools/same_outputs.py --against OTHER_CHECKOUT

The commands are the 7 ``signalprop`` commands of the README's "Command
line" block (``--out FILE`` dropped, so every table goes to stdout), the 5
``DEFECT_PROBE`` commands, cycles 0-1 of the sweep and trajectory
workloads and cycle 0 of the montecarlo workload at seeds 1 and 5: 102
commands. The perfbench commands come from this checkout's
``perfbench/workloads.py``, by import only.

Without ``--against`` each command runs in this process through
``signalprop.cli.main``, with signalprop imported from ``DIR/src``
(default: this checkout) and a RuntimeWarning raised as an error; one JSON
line per command gives its argv, exit status (or the exception it raised)
and stdout. ``--against`` runs that for this checkout and for
OTHER_CHECKOUT, each in a fresh interpreter, lists the commands whose
status or stdout differ, and exits 1 if any does.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 5)
CYCLES = {"sweep": 2, "trajectory": 2, "montecarlo": 1}


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of each command in the README's "Command line" sh block."""
    text = readme.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)[1:]  # drop the program name
        if "--out" in argv:
            at = argv.index("--out")
            del argv[at:at + 2]
        commands.append(argv)
    return commands


def commands() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = readme_commands(ROOT / "README.md")
    argvs += [list(argv) for _, argv in workloads.DEFECT_PROBE]
    for seed in SEEDS:
        for workload, cycles in CYCLES.items():
            ctx = workloads.context(workload, seed)
            for index in range(cycles):
                argvs += [list(cmd.argv) for cmd in workloads.cycle(workload, seed, index, ctx)]
    return argvs


def run_all(tree: Path) -> None:
    """Print one JSON line per command, run with the signalprop of ``tree``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(tree / "src"))
    from signalprop import cli

    for argv in commands():
        buffer = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(buffer):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                status = cli.main(list(argv))
            except (Exception, SystemExit) as exc:
                status = f"raised {type(exc).__name__}: {exc}"
        print(json.dumps({"argv": argv, "status": status, "stdout": buffer.getvalue()}))


def outputs(tree: Path) -> list[dict]:
    """The JSON lines of ``run_all(tree)``, from a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, "--tree", str(tree)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ runs the commands (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="another checkout to compare this one with")
    args = parser.parse_args(argv)
    if args.against is None:
        run_all(args.tree.resolve())
        return 0
    ours, theirs = outputs(ROOT), outputs(args.against.resolve())
    if [o["argv"] for o in ours] != [o["argv"] for o in theirs]:
        raise SystemExit("the two runs ran different commands")
    differ = [o["argv"] for o, t in zip(ours, theirs) if o != t]
    for argv in differ:
        print("differs:", shlex.join(argv))
    print(f"{len(ours) - len(differ)} of {len(ours)} commands byte-identical "
          f"(status and stdout), {ROOT} against {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
