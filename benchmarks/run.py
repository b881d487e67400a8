"""cubegal benchmark: cold-process time to a checked certificate.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; the package is imported from
`src/` in fresh interpreters, one per command, so every cache starts
cold as it does for a user.  Workloads are closed loops: one command at
a time, never more than two worker processes.

  cube-orders  `cubegal order --cube 3|4|5`, each with a seed drawn from
               the workload seed (the seed changes the BSGS build);
  suites-j1    `cubegal verify --theorem rubik|revenge|professor --jobs 1`;
  suites-j2    the same suites at `--jobs 2`.

The suites take no seed: their polynomials are the paper's and the prime
stream is deterministic.

With `--trace 0` the benchmark measures set-up (a fresh interpreter that
imports the CLI and builds the sticker models) several times, then runs
whole command sets while another set still fits in `--seconds` (at least
one), and reports the median over sets of every end-to-end metric; each
command's own wall time is printed too.  Every command is checked: exit
code 0, no traceback, the JSON report equal to the one recorded at the
seed commit (`expected_reports.json`, `ms` fields removed), order digits
equal to the paper's, and suite summaries equal to the paper's
pass/inconclusive counts.

With `--trace 1` it runs one command set through `probe.py` twice per
command, first counting calls only and then recording spans, and runs
`micro.py`.  It reports the per-layer metrics, the traced run's self
time per layer, and `trace_overhead_s` (traced minus counted wall time).
Counts must agree between the two passes.  Spans are written to
`.bench_runs/` when the run ends.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
the metric names and units are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_runs")
ENV = dict(os.environ, PYTHONPATH=SRC)

WORKLOADS = ("cube-orders", "suites-j1", "suites-j2")
SUITES = {3: "rubik", 4: "revenge", 5: "professor"}
SETUP_REPS = 7
SETUP_CODE = ("import cubegal.cli\n"
              "from cubegal.cubes import cube_model\n"
              "for n in (5, 4, 3):\n"
              "    cube_model(n)\n")
# a run must end within 180 s; no command may start or run past this
RUN_DEADLINE_S = 170.0
COMMAND_TIMEOUT_S = 150.0

# the exact group orders as printed in the paper, deliberately not
# imported from cubegal.structure, so a wrong constant cannot vouch for itself
PAPER_ORDERS = {
    3: "43252003274489856000",
    4: "16972688908618238933770849245964147960401887232000000000",
    5: "2582636272886959379162819698174683585918088940054237132144778804568925405184000000000000000",
}
PAPER_SUMMARIES = {
    "rubik": {"pass": 7, "inconclusive": 2, "fail": 0, "skip": 0},
    "revenge": {"pass": 14, "inconclusive": 2, "fail": 0, "skip": 0},
    "professor": {"pass": 11, "inconclusive": 1, "fail": 0, "skip": 0},
}


# -- commands ---------------------------------------------------------------


def command_set(workload: str, seed: int, index: int) -> list[tuple[str, int, list[str]]]:
    """(command name, cube size, CLI args) for the index-th pass over the set."""
    if workload == "cube-orders":
        rng = random.Random(f"{workload}:{seed}:{index}")
        return [(f"order{n}", n, ["order", "--cube", str(n), "--jobs", "1",
                                  "--seed", str(rng.randrange(1, 10 ** 6))])
                for n in SUITES]
    jobs = {"suites-j1": "1", "suites-j2": "2"}[workload]
    return [(f"verify_{suite}", n, ["verify", "--theorem", suite, "--jobs", jobs])
            for n, suite in SUITES.items()]


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def spawn(argv: list[str], deadline: Deadline) -> dict:
    """Run argv to completion in its own process group; wall time, rusage
    of the whole tree (pool workers included), stdout and stderr."""
    timeout = min(COMMAND_TIMEOUT_S, deadline.left())
    if timeout <= 0:
        return {"ran": False}
    killed = []

    def kill():
        killed.append(True)
        _kill_group(proc.pid)

    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the command down with us
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the command left behind
        out.seek(0)
        err.seek(0)
        return {
            "ran": True,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
            "timed_out": bool(killed),
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
        }


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):  # wait up to 2 s for the group to disappear
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cubegal.cli", *args, "--report", "json"]


def probe_argv(spans: int, out: str, args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "probe.py"), "--spans", str(spans),
            "--out", out, "--", *args, "--report", "json"]


# -- correctness gate ---------------------------------------------------------


def check_command(name: str, size: int, res: dict, expected: dict) -> list[str]:
    """Every reason this command's result is wrong; empty when it is right."""
    if not res["ran"]:
        return [f"{name}: not started before the run deadline"]
    if res["timed_out"]:
        return [f"{name}: timed out"]
    problems = []
    if res["exit"] != 0:
        problems.append(f"{name}: exit code {res['exit']}")
    if "Traceback" in res["stderr"]:
        problems.append(f"{name}: traceback on stderr")
    try:
        report = json.loads(res["stdout"])
        checks = report["checks"]
        for check in checks:
            del check["ms"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"{name}: unreadable report ({exc})"]
    if report != expected[name]:
        problems.append(f"{name}: report differs from the recorded one")
    if name.startswith("order"):
        digits = [c.get("actual") for c in checks if c.get("status") == "pass"]
        if digits != [PAPER_ORDERS[size]]:
            problems.append(f"{name}: order digits differ from the paper's")
    elif report.get("summary") != PAPER_SUMMARIES[SUITES[size]]:
        problems.append(f"{name}: summary {report.get('summary')} differs from the paper's")
    return problems


# -- untraced run: end-to-end metrics ------------------------------------------


def setup_sample(deadline: Deadline) -> float:
    """Wall time of one fresh interpreter that gets ready; exits the
    benchmark (no result) when the package cannot even get ready."""
    res = spawn([sys.executable, "-c", SETUP_CODE], deadline)
    if not res["ran"] or res["exit"] != 0:
        raise SystemExit("set-up failed: cannot import cubegal.cli and build "
                         "the sticker models\n" + res.get("stderr", ""))
    return res["wall_s"]


def run_untraced(workload: str, seed: int, seconds: float, deadline: Deadline,
                 expected: dict, log) -> tuple[dict, int, int, list[str]]:
    setup_sample(deadline)  # also writes the bytecode cache; not counted
    setup = []
    sets = []
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        per_set = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        for name, size, args in command_set(workload, seed, len(sets)):
            # set-up samples are spread over the run, so that they see the
            # same changes in machine speed as the commands do
            setup.append(setup_sample(deadline))
            res = spawn(cli_argv(args), deadline)
            found = check_command(name, size, res, expected)
            attempted += 1
            failed += bool(found)
            problems += found
            if res["ran"]:
                per_set[f"{name}_s"] = res["wall_s"]
                per_set["wall_s"] += res["wall_s"]
                per_set["cpu_s"] += res["cpu_s"]
                per_set["peak_rss_mb"] = max(per_set["peak_rss_mb"], res["rss_mb"])
                log(f"  set {len(sets)} {name:16s} {' '.join(args[1:]):32s} "
                    f"wall {res['wall_s']:8.4f} s  cpu {res['cpu_s']:8.4f} s  "
                    f"rss {res['rss_mb']:6.2f} MB  {'FAIL' if found else 'ok'}")
        sets.append(per_set)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(sets) > seconds or deadline.left() < elapsed / len(sets):
            break
    while len(setup) < SETUP_REPS:
        setup.append(setup_sample(deadline))
    log(f"setup_s samples: {' '.join(f'{x:.4f}' for x in setup)}")
    log(f"{len(sets)} command set(s) in {time.perf_counter() - start:.1f} s")
    # per-command times are printed, not gated: one pass over a suite
    # holds a single sample of each, too few to repeat within a bound
    for name, _, _ in command_set(workload, seed, 0):
        samples = [s[f"{name}_s"] for s in sets if f"{name}_s" in s]
        if samples:
            log(f"  {name + '_s':58s} {statistics.median(samples):>16.6g} s "
                f"(median of {len(samples)})")
    values = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        values[key] = statistics.median(s[key] for s in sets)
    values["pass_ratio"] = (attempted - failed) / attempted
    return values, attempted, failed, problems


# -- traced run: per-layer metrics ---------------------------------------------


def check_metric(suite: str, check_id: str) -> str:
    """Per-check metric name; revenge re-runs the rubik checks, so those
    carry the suite as well."""
    if check_id.startswith(suite + "."):
        return f"theorems.check_ms.{check_id}"
    return f"theorems.check_ms.{suite}.{check_id}"


def layer_table(spans: list) -> dict:
    """Per layer: spans, total and self seconds.  A span's self time is its
    duration minus that of its direct children (spans nest: one thread).
    Time spent waiting on a process pool gets its own row, so that the
    evidence row holds only the scan loops' own work in this process."""
    child_time = defaultdict(float)
    for name, start, end, parent, cmd in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, parent, cmd) in enumerate(spans):
        row = table[name if name == "evidence.pool" else name.split(".")[0]]
        row["spans"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[idx]
    return dict(table)


def span_totals(spans: list) -> dict:
    totals = defaultdict(float)
    for name, start, end, parent, cmd in spans:
        totals[name] += end - start
    return totals


def run_traced(workload: str, seed: int, deadline: Deadline, expected: dict,
               log) -> tuple[dict, int, int, list[str], list]:
    setup_sample(deadline)
    spans: list = []
    counted_wall = traced_wall = 0.0
    counts: dict = defaultdict(int)
    values: dict = {}
    problems: list[str] = []
    attempted = failed = 0
    for cmd_id, (name, size, args) in enumerate(command_set(workload, seed, 0)):
        passes = {}
        for spans_on in (0, 1):
            out = os.path.join(OUT_DIR, f"probe-{os.getpid()}-{cmd_id}-{spans_on}.json")
            res = spawn(probe_argv(spans_on, out, args), deadline)
            found = check_command(name, size, res, expected)
            record = None
            if not found:
                try:
                    with open(out, encoding="utf-8") as fh:
                        record = json.load(fh)
                except (OSError, ValueError) as exc:
                    found = [f"{name}: probe wrote no record ({exc})"]
            if os.path.exists(out):
                os.remove(out)
            attempted += 1
            failed += bool(found)
            problems += found
            passes[spans_on] = (res, record)
        (res0, rec0), (res1, rec1) = passes[0], passes[1]
        if rec0 is None or rec1 is None:
            continue
        if rec0["counts"] != rec1["counts"]:
            problems.append(f"{name}: counts differ between the counted and traced passes")
            failed += 1
        counted_wall += res0["wall_s"]
        values[f"cli.cube{size}_s"] = res0["wall_s"]
        traced_wall += res1["wall_s"]
        for key, value in rec1["counts"].items():
            counts[key] += value
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1, name] for n, s, e, p in rec1["spans"]]
        if name.startswith("verify"):
            for check in json.loads(res0["stdout"])["checks"]:
                values[check_metric(SUITES[size], check["id"])] = check["ms"]
        log(f"  {name:16s} counted {res0['wall_s']:8.4f} s  traced {res1['wall_s']:8.4f} s")

    out = os.path.join(OUT_DIR, f"micro-{os.getpid()}.json")
    res = spawn([sys.executable, os.path.join(BENCH_DIR, "micro.py"), "--seed", str(seed),
                 "--out", out], deadline)
    attempted += 1
    micro = None
    if res["ran"] and res["exit"] == 0 and not res["timed_out"]:
        with open(out, encoding="utf-8") as fh:
            micro = json.load(fh)
        os.remove(out)
    if micro is None:
        problems.append("micro: microbenchmarks did not finish\n" + res.get("stderr", ""))
        failed += 1
    else:
        values.update(micro["metrics"])
        if micro["problems"]:
            problems += micro["problems"]
            failed += 1

    totals = span_totals(spans)
    table = layer_table(spans)
    for layer in ("cli", "theorems", "evidence", "structure"):
        values[f"{layer}.self_s"] = table.get(layer, {}).get("self_s", 0.0)
    for name in ("scan", "parity_linkage", "triple_parity_linkage", "certify_symmetric"):
        values[f"evidence.{name}_s"] = totals[f"evidence.{name}"]
        values[f"evidence.{name}_calls"] = counts[f"evidence.{name}"]
    examined = counts["polymod.good"] + counts["polymod.bad"]
    calls = counts["polymod.frobenius_type"]
    values.update({
        "evidence.primes_drawn": counts["evidence.primes_drawn"],
        "evidence.good_prime_ratio": counts["polymod.good"] / examined if examined else 0.0,
        "evidence.pools_started": counts["evidence.pool"],
        "evidence.pool_s": totals["evidence.pool"],
        "polymod.frobenius_calls": calls,
        "polymod.frobenius_s": totals["polymod.frobenius_type"],
        "polymod.ms_per_call": totals["polymod.frobenius_type"] / calls * 1e3 if calls else 0.0,
        "polymod.repeat_calls": counts["polymod.repeat_calls"],
        "polyq.discriminant_calls": counts["polyq.discriminant"],
        "polyq.discriminant_s": totals["polyq.discriminant"],
        "sqclass.square_class_calls": counts["sqclass.square_class_equal"],
        "sqclass.square_class_s": totals["sqclass.square_class_equal"],
        "cubes.model_s": totals["cubes.cube_model"],
        "bsgs.build_s": totals["bsgs.PermutationGroup"],
        "bsgs.builds": counts["bsgs.PermutationGroup"],
        "bsgs.strong_gens": counts["bsgs.strong_gens"],
        "bsgs.base_len": counts["bsgs.base_len"],
        "bsgs.transversal_pts": counts["bsgs.transversal_pts"],
        "trace_overhead_s": traced_wall - counted_wall,
    })

    log("")
    log(f"{'layer':10s} {'spans':>7s} {'total s':>10s} {'self s':>10s}")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"{layer:10s} {row['spans']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    log(f"counted wall {counted_wall:.4f} s, traced wall {traced_wall:.4f} s, "
        f"trace_overhead_s {traced_wall - counted_wall:.4f}")
    if workload == "suites-j2":
        log("note: at --jobs 2 the pool workers are forked with the wrappers in place, "
            "but their spans and counts die with them; per-layer numbers here are "
            "the parent side only (pool spans), and cpu_s of the untraced run "
            "covers the whole tree")
    return values, attempted, failed, problems, spans


# -- entry point ------------------------------------------------------------------


def conditions() -> dict:
    head = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or head
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "cubegal"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            with open(os.path.join(folder, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_head": head,
        "src_sha256": digest.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "cubegal")):
        print(f"no cubegal package under {SRC}: run from a source checkout", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_DEADLINE_S)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(BENCH_DIR, "expected_reports.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    def log(line: str) -> None:
        print(line, flush=True)

    cond = conditions()
    log(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    log("conditions: " + json.dumps(cond, sort_keys=True))
    spans: list = []
    if args.trace:
        values, attempted, failed, problems, spans = run_traced(
            args.workload, args.seed, deadline, expected, log)
    else:
        values, attempted, failed, problems = run_untraced(
            args.workload, args.seed, args.seconds, deadline, expected, log)

    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    log("")
    for name, m in metrics.items():
        log(f"  {name:58s} {m['value']:>16.6g} {m['unit']}")
    for problem in problems:
        log(f"problem: {problem}")
    log(f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}")

    cond["loadavg_1m_end"] = os.getloadavg()[0]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "conditions": cond, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "problems": problems}, fh, indent=1)
    if spans:
        with open(os.path.join(OUT_DIR, stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "spans": spans}, fh)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
