"""End-to-end and per-layer benchmark of the chromaspec CLI.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {search,report,chi,verify} \
        --seed N --seconds S --trace {0,1}

Each run builds its inputs from the seed, computes the expected outputs with
independent oracles (perfbench/oracle.py), times set-up in fresh
interpreters, and then runs the workload in one child process
(perfbench/workload.py) with single-threaded BLAS: a closed loop with one
client that issues each CLI command through ``chromaspec.cli.main`` only
after the previous one returned. Every captured output is checked.

The last line of stdout is one JSON object. With ``--trace 0`` its metrics
are the end-to-end ones:
  setup_s          CPU seconds of a fresh interpreter until chromaspec.cli is
                   imported and its parser built, median of SETUP_RUNS;
  pass_norm_s      mean CPU seconds of a pass;
  cmd_p90_norm_ms  90th percentile over the workload's commands of each
                   command's mean CPU milliseconds across passes;
  peak_rss_mb      peak resident memory of the workload process.
The three times are scaled by the yardstick (perfbench/yardstick.py) to a host
on which its slice takes yardstick.NOMINAL_S: the same code's CPU and wall
times spread by 10-40% between runs on a shared host, its scaled times by a
few percent. Raw wall and CPU times are printed too.

With ``--trace 1`` the child alternates untraced and traced passes over the
same commands and the metrics are the per-layer ones from the span recorder
(perfbench/spans.py). The lines before the JSON give the environment, the
sample counts, failed_ratio, and for each time per pass and per command, in
wall and in CPU time, the median, the 90th percentile and the highest
percentile with at least ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
from yardstick import nominal_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PASSES = 64  # distinct passes prepared per run; the child cycles through them
SETUP_RUNS = 9
# Times set-up, then three yardstick slices right after it in the same process.
SETUP_CODE = """import time, chromaspec.cli as c; c.build_parser(); setup = time.process_time()
import sys; sys.path.append(sys.argv[1]); from yardstick import Yardstick
y = Yardstick(); y.slice(); [y.sample() for _ in range(3)]; print(setup, *y.slices)"""
SEARCH_MAX_N = 6  # max_n 7 takes about 400 s until the labelled-mask scan goes
SEARCH_PREDICATES = ["sharp"] + [f"sharp-mult={m}" for m in range(1, 6)]
REPORT_CYCLES = (13, 15, 17)


def write_edge_list(path: Path, n: int, rows: list[int], rng: random.Random) -> None:
    """Edge-list file whose line order and pair orientation come from rng."""
    edges = [(v, w) if rng.random() < 0.5 else (w, v) for v, w in oracle.edges_of(rows)]
    rng.shuffle(edges)
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{v} {w}\n" for v, w in edges))


def shuffled_passes(items: list[tuple[str, list[str]]], rng: random.Random) -> list:
    return [rng.sample(items, len(items)) for _ in range(PASSES)]


def build_search(rng: random.Random):
    """`search <predicate> --max-n 6`, one command per pass; isomorphism
    deduplication is about 98% of the time. The first pass checks every hit;
    the seed picks the predicate of the others."""
    atlas = oracle.SearchOracle(SEARCH_MAX_N)
    passes = []
    for i in range(PASSES):
        pred = rng.choice(SEARCH_PREDICATES) if i else "sharp"
        passes.append([(pred, ["search", pred, "--max-n", str(SEARCH_MAX_N)])])

    def check(item: str, text: str):
        mult = int(item.split("=")[1]) if "=" in item else None
        return atlas.check(text, mult)

    return [["search", "sharp", "--max-n", "4"]], passes, check


def build_report(rng: random.Random):
    """One `report` per graph of a fixed corpus: odd cycles read from edge-list
    files, whose colorings make enumeration and equitability the cost, and
    family graphs, most with a single chi-coloring."""
    items, want = [], {}
    for n in REPORT_CYCLES:
        path = WORK / f"report-C{n}.txt"
        cyc = oracle.cycle(n)
        write_edge_list(path, *cyc, rng)
        items.append((f"C{n}", ["report", str(path)]))
        want[f"C{n}"] = oracle.report_expectation(*cyc, odd_cycle=True)
    for spec, make in oracle.FAMILY_GRAPHS.items():
        items.append((spec, ["report", spec]))
        want[spec] = oracle.report_expectation(*make())

    def check(item: str, text: str):
        return oracle.check_report(text, want[item])

    return [["report", "K_3"]], shuffled_passes(items, rng), check


def build_chi(rng: random.Random):
    """One `report` per graph of a fixed pool of connected G(n, 1/2), n in
    33..38: above the enumeration cap, so the chromatic number is the cost."""
    pool = json.loads((Path(__file__).with_name("chi_pool.json")).read_text())["graphs"]
    items, want = [], {}
    for i, g in enumerate(pool):
        path = WORK / f"chi-{i}.txt"
        write_edge_list(path, g["n"], [int(r, 16) for r in g["rows"]], rng)
        items.append((f"G{i}", ["report", str(path)]))
        want[f"G{i}"] = (g["n"], g["chi"])

    def check(item: str, text: str):
        return oracle.check_chi(text, *want[item])

    return [["report", "K_3"]], shuffled_passes(items, rng), check


def build_verify(rng: random.Random):
    """`verify all --seed S` with a new S each pass: many small graphs, so
    per-call overhead and the spectrum carry the most weight here."""
    passes = []
    for _ in range(PASSES):
        s = str(rng.randrange(2**31))
        # One command for cmd_p90_norm_ms: only the seed differs between passes.
        passes.append([("verify all", ["verify", "all", "--seed", s])])
    return [["verify", "families"]], passes, lambda item, text: oracle.check_verify(text)


WORKLOADS = {"search": build_search, "report": build_report, "chi": build_chi, "verify": build_verify}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # numpy's OpenBLAS may start up to 64 threads; the workload is one client.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def setup_seconds(env: dict) -> list[tuple[float, float]]:
    """CPU seconds a fresh interpreter spends from its start until
    chromaspec.cli is imported and its parser built, raw and scaled by the
    yardstick, SETUP_RUNS times after an untimed warm-up that writes the
    bytecode cache."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        setup, *slices = map(float, done.stdout.split())
        times.append((setup, nominal_seconds(setup, slices)))
    return times[1:]


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def tail(values: list[float]) -> str:
    for q in (99.9, 99, 90, 50):
        if len(values) * (1 - q / 100) >= 10:
            return f"p{q:g} {percentile(values, q):.6g}"
    return "none (fewer than 11 samples)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    begin = time.monotonic()
    if not (SRC / "chromaspec" / "cli.py").is_file():
        sys.stderr.write(f"no chromaspec sources under {SRC}\n")
        return 2

    WORK.mkdir(exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    warmup, passes, check = WORKLOADS[args.workload](rng)
    env = child_env()
    setup = [] if args.trace else setup_seconds(env)
    job = {"src": str(SRC), "seconds": args.seconds, "trace": bool(args.trace),
           "spans_path": str(WORK / f"spans-{args.workload}.json"),
           "warmup": warmup, "passes": passes}
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("workload.py"))],
                          input=json.dumps(job), env=env, capture_output=True, text=True,
                          timeout=max(30.0, 170 - (time.monotonic() - begin)))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.stderr.write(f"workload process exited with {done.returncode}\n")
        return 1
    res = json.loads(done.stdout)

    problems = list(res["errors"])
    for item, texts in res["outputs"].items():
        for text, count in texts.items():
            try:
                reason = check(item, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
            if reason is not None:
                problems.extend([f"{item}: {reason}"] * count)
    attempted, failed = res["attempted"], len(problems)
    for problem in problems[:5]:
        sys.stderr.write(f"wrong: {problem}\n")

    walls, cpus = res["walls"], res["cpus"]
    cmd_ms = [1000 * wall for _, wall, _ in res["commands"]]
    cmd_cpu_ms = [1000 * cpu for _, _, cpu in res["commands"]]
    by_item = defaultdict(list)
    for item, _, cpu in res["commands"]:
        by_item[item].append(cpu)
    slices = res["yardstick"]
    cmd_norm_ms = [1000 * nominal_seconds(statistics.fmean(v), slices) for v in by_item.values()]
    print("env: " + " ".join(f"{k}={v}" for k, v in res["env"].items()))
    print(f"workload={args.workload} seed={args.seed} passes={len(walls)} commands={attempted}")
    for name, values, unit in [("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
                               ("cmd_ms", cmd_ms, "ms"), ("cmd_cpu_ms", cmd_cpu_ms, "ms")]:
        print(f"{name}: median {statistics.median(values):.6g} {unit}, "
              f"p90 {percentile(values, 90):.6g}, {tail(values)}, {len(values)} samples")
    print(f"yardstick: slice median {statistics.median(slices):.6g} s, mean "
          f"{statistics.fmean(slices):.6g} s, {len(slices)} slices")
    print(f"cmd_norm_ms, each command's mean across its {len(cmd_ms) / len(by_item):.3g} runs "
          f"on average: median {statistics.median(cmd_norm_ms):.6g} ms, "
          f"p90 {percentile(cmd_norm_ms, 90):.6g}, {len(cmd_norm_ms)} commands")
    if setup:
        print(f"setup: median {statistics.median(raw for raw, _ in setup):.6g} s CPU, "
              f"{statistics.median(norm for _, norm in setup):.6g} s scaled, {len(setup)} samples")
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.6g} ratio")
    if args.trace:
        traced = res["traced_walls"]
        print(f"traced wall_s: median {statistics.median(traced):.6g} s, {len(traced)} samples")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(norm for _, norm in setup), "unit": "s"},
            "pass_norm_s": {"value": nominal_seconds(statistics.fmean(cpus), slices), "unit": "s"},
            "cmd_p90_norm_ms": {"value": percentile(cmd_norm_ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
