"""Compare the CLI output of two source trees on a fixed corpus of commands.

Usage, from the root of a checkout:
    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``chromaspec`` package, such as the
``src`` directory of a checkout. Every command runs in-process through
``chromaspec.cli.main``: the whole corpus on PARENT_SRC first, then on
CHANGE_SRC. The tool prints each command whose exit code, stdout or stderr
differs, with the differing lines, then a summary line; it exits 1 if any
command differs.

The corpus:
  - ``verify all --seed S`` for S = 1..15;
  - ``search sharp`` and ``search sharp-mult=M`` (M = 1..6), ``--max-n 7``;
  - the benchmark's ``report`` corpus: the odd cycles of
    ``perfbench/run.py`` read from edge-list files, and the family specs of
    ``perfbench/oracle.py``;
  - ``report`` on C_19 read from an edge-list file: its 87,381
    chi-colorings, 4x the benchmark's largest and under
    ``ENUMERATION_BUDGET``, check the enumeration past the benchmark's sizes;
  - ``report`` on each graph of ``perfbench/chi_pool.json``, read from an
    edge-list file.
"""

from __future__ import annotations

import difflib
import importlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import oracle  # noqa: E402
import run as bench  # noqa: E402


def corpus(tmp: Path) -> list[list[str]]:
    cmds = [["verify", "all", "--seed", str(s)] for s in range(1, 16)]
    cmds += [
        ["search", pred, "--max-n", "7"]
        for pred in ["sharp"] + [f"sharp-mult={m}" for m in range(1, 7)]
    ]
    rng = random.Random(0)
    for n in bench.REPORT_CYCLES + (19,):
        path = tmp / f"C{n}.txt"
        bench.write_edge_list(path, *oracle.cycle(n), rng)
        cmds.append(["report", str(path)])
    cmds += [["report", spec] for spec in oracle.FAMILY_GRAPHS]
    pool = json.loads((ROOT / "perfbench" / "chi_pool.json").read_text())["graphs"]
    for i, g in enumerate(pool):
        path = tmp / f"chi_pool-{i}.txt"
        bench.write_edge_list(path, g["n"], [int(r, 16) for r in g["rows"]], rng)
        cmds.append(["report", str(path)])
    return cmds


def outputs(src: Path, cmds: list[list[str]]) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each command, run on the tree at src."""
    for name in [m for m in sys.modules if m == "chromaspec" or m.startswith("chromaspec.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("chromaspec.cli")
        if not Path(cli.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"chromaspec was imported from {cli.__file__}, not from {src}")
        results = []
        for argv in cmds:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results
    finally:
        sys.path.remove(str(src))


def main() -> int:
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    parent, change = (Path(arg).resolve() for arg in sys.argv[1:])
    for src in (parent, change):
        if not (src / "chromaspec" / "cli.py").is_file():
            sys.stderr.write(f"no chromaspec package under {src}\n")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        cmds = corpus(Path(tmp))
        before = outputs(parent, cmds)
        after = outputs(change, cmds)
        differ = 0
        for argv, old, new in zip(cmds, before, after):
            if old == new:
                continue
            differ += 1
            print("differs: " + " ".join(a.replace(tmp + "/", "") for a in argv))
            for label, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    lines = difflib.unified_diff(
                        str(a).splitlines(), str(b).splitlines(), "parent", "change",
                        lineterm="", n=0,
                    )
                    print(f"  {label}:")
                    print("\n".join("    " + line for line in lines))
    print(f"{differ} of {len(cmds)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
