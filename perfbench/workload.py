"""One workload as a closed loop with one client, in its own process.

run.py starts this script with PYTHONPATH pointing at the checkout's ``src``
and writes the job to its stdin as JSON:

    {"src": "...", "seconds": 30, "trace": false, "spans_path": "...",
     "warmup": [argv, ...], "passes": [[[item, argv], ...], ...]}

Each pass issues its commands one after another through
``chromaspec.cli.main`` with stdout and stderr captured; pass i uses
``passes[i % len(passes)]``. Every command is timed twice: in wall seconds
and in CPU seconds of this process (see ``cpu_seconds``). During untraced
passes a ``Yardstick`` measures the host's speed. With tracing, each pass
is a pair: an untraced and a traced run of the same commands, in alternating
order. A new pass starts only while the typical pass still fits in
``seconds``. The result goes to stdout as one JSON object; run.py checks the
captured outputs against its oracles.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import chromaspec.cli
from chromaspec import _kernels
from spans import SpanRecorder
from yardstick import Yardstick, cpu_seconds


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "using_numba": _kernels.using_numba(),
    }


class Client:
    def __init__(self, yardstick: Yardstick) -> None:
        self.yardstick = yardstick
        self.outputs: dict[str, Counter] = defaultdict(Counter)
        self.attempted = 0
        self.errors: list[str] = []

    def command(self, item: str, argv: list[str]) -> tuple[float, float]:
        """Run one CLI command; return its wall and CPU seconds, leaving out
        the yardstick slices that ran meanwhile."""
        out, err = io.StringIO(), io.StringIO()
        ys = self.yardstick
        lent = ys.spent_wall, ys.spent_cpu
        start, cpu_start = perf_counter(), cpu_seconds()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = chromaspec.cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        latency = (perf_counter() - start - (ys.spent_wall - lent[0]),
                   cpu_seconds() - cpu_start - (ys.spent_cpu - lent[1]))
        self.attempted += 1
        if rc == 0:
            self.outputs[item][out.getvalue()] += 1
        else:
            self.errors.append(f"{item}: exit {rc}: {err.getvalue().strip()[:200]}")
        return latency

    def run_pass(self, commands) -> tuple[list[float], list[float]]:
        """Run the commands in order; return their wall and CPU seconds."""
        walls, cpus = zip(*(self.command(item, argv) for item, argv in commands))
        return list(walls), list(cpus)


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(chromaspec.cli.__file__).resolve().parents[1]
    if src != Path(job["src"]).resolve():
        sys.stderr.write(f"chromaspec imported from {src}, expected {job['src']}\n")
        return 2
    yardstick = Yardstick()
    yardstick.slice()  # untimed, like the warm-up commands
    for argv in job["warmup"]:  # neither timed nor checked
        Client(yardstick).command("warmup", argv)

    client = Client(yardstick)
    yardstick.sample()  # so that even the shortest run has a slice
    recorder = SpanRecorder() if job["trace"] else None
    walls, cpus, traced_walls, durations = [], [], [], []
    timed = []  # [item, wall seconds, CPU seconds] of every untraced command
    begin = perf_counter()
    i = 0
    while True:
        start = perf_counter()
        commands = job["passes"][i % len(job["passes"])]
        if recorder is not None and i % 2:  # alternate which side of a pair runs first
            with recorder.traced_pass():
                traced_walls.append(sum(client.run_pass(commands)[0]))
        with yardstick.sampling():
            wall, cpu = client.run_pass(commands)
        timed += [[item, w, c] for (item, _), w, c in zip(commands, wall, cpu)]
        walls.append(sum(wall))
        cpus.append(sum(cpu))
        if recorder is not None and not i % 2:
            with recorder.traced_pass():
                traced_walls.append(sum(client.run_pass(commands)[0]))
        durations.append(perf_counter() - start)
        i += 1
        if perf_counter() - begin + statistics.median(durations) > job["seconds"]:
            break

    result = {
        "env": environment(),
        "walls": walls,
        "cpus": cpus,
        "commands": timed,
        "yardstick": yardstick.slices,
        "attempted": client.attempted,
        "errors": client.errors,
        "outputs": {item: dict(texts) for item, texts in client.outputs.items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result["per_layer"] = recorder.per_layer(traced_walls, walls)
        result["traced_walls"] = traced_walls
        recorder.dump(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
