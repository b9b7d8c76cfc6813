"""wormbec benchmark: end-to-end and per-layer metrics of the CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {cold_cli,grid_100x,sweep_json} \\
        --seed N --seconds S --trace {0,1}

``sweep_json`` is for runs by hand; BENCHMARK.json does not list it (see
the Noise section of README.md). The package is imported from ``src/`` of
the checkout. One client drives the program in a closed loop, one CLI call
at a time. Every call's output is checked by oracles.py; a call that exits
non-zero or writes a wrong table counts as failed. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones. README.md in this directory defines each
workload and metric.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

SETUPS = 3            # worker set-ups per run; setup_s is their median
TAIL_BEYOND = 10      # cli_ms_tail keeps this many calls above it
TRACE_ROUNDS = 2      # rounds per tracing state in an in-process traced run
IMPORT_RUNS = 3       # `python -X importtime` runs; the median is reported
OP_TIMEOUT_S = 60.0   # a call or worker reply slower than this is killed

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_ms_p50": "ms",
    "cli_ms_tail": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.numpy.ms": "ms",
    "import.scipy.ms": "ms",
    "import.wormbec.ms": "ms",
    "config.load_config.ms": "ms",
    "config.load_config.calls": "count",
    "profile1d.sample_profile_1d.ms": "ms",
    "profile1d.sample_profile_1d.points": "count",
    "profile1d.feasibility_1d.ms": "ms",
    "profile3d.lab_profiles_3d.ms": "ms",
    "profile3d.lab_profiles_3d.points": "count",
    "profile3d.feasibility_report_3d.ms": "ms",
    "gp3d.solve_matching.ms": "ms",
    "gp3d.solve_matching.points": "count",
    "gp3d.solve_matching.converged_ratio": "ratio",
    "gp3d.matching_residuals.ms": "ms",
    "gp3d.matching_residuals.calls": "count",
    "geometry.embedding_height.ms": "ms",
    "geometry.embedding_height.calls": "count",
    "tableio.write_csv.ms": "ms",
    "tableio.write_json.ms": "ms",
    "tableio.bytes": "bytes",
    "tableio.files": "count",
    "cli.self.ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot measure: the program is missing or its worker died."""


@dataclass(frozen=True)
class Op:
    """One CLI call: a subcommand, its --set overrides and table format."""

    sub: str
    sets: tuple[str, ...] = ()
    fmt: str = "csv"

    def argv(self, out: Path) -> list[str]:
        argv = [self.sub, "--out", str(out)]
        if self.fmt != "csv":
            argv += ["--format", self.fmt]
        for item in self.sets:
            argv += ["--set", item]
        return argv


# The 1D demo's sweep; embed needs q < 1.
Q_SWEEP = ("2", "0.95", "-0.5", "-1")
B0_SWEEP = ("0.5", "1", "10")
EMBED_STEP_10X = {"0.5": "0.001", "1": "0.002", "10": "0.02"}  # (5 b0 - b0) / 2000

WORKLOADS = {
    "cold_cli": tuple(Op(sub) for sub in
                      ("profile1d", "solve-gp", "profile3d", "embed", "presets")),
    "grid_100x": (
        Op("profile1d", ("grid.step_um=0.001",)),   # 40001 rows
        Op("solve-gp", ("grid.r_step_um=0.0005",)),  # 17801 rows
        Op("profile3d", ("grid.step_um=0.001",)),   # 10001 rows
        Op("embed", ("grid.r_step_um=0.0002",)),    # 20001 rows
    ),
    "sweep_json": tuple(
        Op("profile1d", (f"wormhole.q={q}", f"wormhole.b0_um={b0}",
                         "grid.step_um=0.01"), "json")
        for q in Q_SWEEP for b0 in B0_SWEEP
    ) + tuple(
        Op("embed", (f"wormhole.q={q}", f"wormhole.b0_um={b0}",
                     f"grid.r_step_um={EMBED_STEP_10X[b0]}"), "json")
        for q in Q_SWEEP if q != "2" for b0 in B0_SWEEP
    ),
}
IN_PROCESS = ("grid_100x", "sweep_json")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Cache bytecode under src/ as an installed package would, so a cold
    # call costs the same whether or not the caller disabled bytecode writes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _warmups(ops: tuple[Op, ...]) -> list[Op]:
    """Each subcommand and format of the workload once, at the default grid."""
    return [Op(sub, (), fmt) for sub, fmt in dict.fromkeys((op.sub, op.fmt) for op in ops)]


class Tally:
    """Op outcomes of one run, and the scratch directories the ops write to."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.attempted = 0
        self.rows = 0
        self.failures: list[str] = []
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"op{self._dirs}"
        path.mkdir()
        return path

    def record(self, op: Op, out: Path, rc: int, stdout: str, error: str | None) -> None:
        self.attempted += 1
        try:
            self.rows += oracles.check(op.sub, op.sets, op.fmt, out, rc, stdout)
        except oracles.OracleError as exc:
            detail = error.strip().splitlines()[-1] if error else stdout.strip()[-200:]
            self.failures.append(f"{' '.join(op.argv(out))}: {exc} {detail}".strip())
        shutil.rmtree(out)


class Worker:
    """A worker.py process; see its docstring for the protocol."""

    def __init__(self, spans: Path | None = None) -> None:
        command = [sys.executable, str(BENCH / "worker.py")]
        if spans is not None:
            command.append(str(spans))
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT,
                                     env=_child_env(), text=True)
        self._read()

    def _read(self) -> dict:
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, argv: list[str], trace: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        """End the worker; returns its final record (peak RSS, absent targets)."""
        self.proc.stdin.close()
        final = self._read()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def set_up(ops: tuple[Op, ...], tally: Tally, live: list[Worker],
           spans: Path | None = None) -> tuple[Worker, float]:
    """Start a worker, import wormbec in it and run the untimed warm-up.

    Returns the worker and the set-up wall time in seconds.
    """
    start = time.perf_counter()
    worker = Worker(spans)
    live.append(worker)
    for op in _warmups(ops):
        out = tally.fresh_dir()
        worker.call(op.argv(out))
        shutil.rmtree(out)
    return worker, time.perf_counter() - start


def worker_op(worker: Worker, op: Op, tally: Tally, trace: bool = False) -> float:
    """One in-process CLI call, checked; returns its wall time in ms."""
    out = tally.fresh_dir()
    reply = worker.call(op.argv(out), trace)
    tally.record(op, out, reply["rc"], reply["stdout"], reply["error"])
    return reply["ms"]


def process_op(op: Op, tally: Tally) -> tuple[float, int]:
    """One `python -m wormbec` process, checked.

    Returns its wall time in ms (spawn to reaped) and its peak RSS in KiB.
    """
    out = tally.fresh_dir()
    log = out.with_suffix(".log")
    with open(log, "w+", encoding="utf-8") as sink:
        gc.collect()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "wormbec", *op.argv(out)],
                                stdout=sink, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ms = (time.perf_counter() - start) * 1e3
        proc.returncode = os.waitstatus_to_exitcode(status)
        sink.seek(0)
        stdout = sink.read()
    log.unlink()
    tally.record(op, out, proc.returncode, stdout, None)
    return ms, usage.ru_maxrss


def _rounds(ops: tuple[Op, ...], rng: random.Random, seconds: float):
    """Shuffled rounds of the workload's ops until `seconds` have passed;
    whole rounds only, so every run has the same op mix."""
    start = time.perf_counter()
    while True:
        yield rng.sample(ops, len(ops))
        if time.perf_counter() - start >= seconds:
            return


def measure(workload: str, seed: int, seconds: float, tally: Tally,
            live: list[Worker]) -> tuple[dict, str]:
    """The untraced run: end-to-end metrics and a note on the tail sample."""
    ops = WORKLOADS[workload]
    setups, workers = [], []
    for _ in range(SETUPS):
        worker, setup_s = set_up(ops, tally, live)
        setups.append(setup_s)
        workers.append(worker)
    if workload not in IN_PROCESS:
        for worker in workers:
            worker.close()

    rng = random.Random(seed)
    op_ms: dict[Op, list[float]] = defaultdict(list)
    if workload in IN_PROCESS:
        # The set-up workers take the rounds in turn, so that no single
        # process's memory layout or hash seed sets the result.
        for k, order in enumerate(_rounds(ops, rng, seconds)):
            worker = workers[k % len(workers)]
            for op in order:
                op_ms[op].append(worker_op(worker, op, tally))
        peak_kb = max(worker.close()["maxrss_kb"] for worker in workers)
    else:
        peak_kb = 0
        for order in _rounds(ops, rng, seconds):
            for op in order:
                ms, rss_kb = process_op(op, tally)
                op_ms[op].append(ms)
                peak_kb = max(peak_kb, rss_kb)

    ordered = sorted(ms for calls in op_ms.values() for ms in calls)
    # Never below the median, even in a run too short to leave 10 above it.
    tail = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    metrics = {
        "setup_s": statistics.median(setups),
        # Each op's median call, averaged over the workload's ops: the median
        # of all calls would jump between the ops' clusters of call times.
        "cli_ms_p50": statistics.fmean(statistics.median(calls)
                                       for calls in op_ms.values()),
        "cli_ms_tail": ordered[tail],
        "points_per_s": tally.rows / (sum(ordered) / 1e3),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    note = (f"cli_ms_tail is p{100.0 * (tail + 1) / len(ordered):.1f} "
            f"of {len(ordered)} calls; setups {[round(s, 4) for s in setups]}")
    return metrics, note


TRACKED_IMPORTS = ("numpy", "scipy", "wormbec")


def parse_importtime(text: str) -> dict[str, float]:
    """Import ms per tracked package from `python -X importtime` output.

    numpy and scipy get the self time of their own modules plus that of
    untracked modules first imported under them; wormbec gets the
    cumulative time of `import wormbec`, all of the above included.
    """
    stack: list[tuple[int, dict]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, raw = line[len("import time:"):].split("|")
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = {"name": raw.strip(), "self": int(self_us),
                "cumulative": int(cumulative_us), "children": []}
        while stack and stack[-1][0] > level:
            node["children"].append(stack.pop()[1])
        stack.append((level, node))

    totals = dict.fromkeys(TRACKED_IMPORTS, 0)

    def walk(node: dict, owner: str | None) -> None:
        top = node["name"].split(".")[0]
        owner = top if top in totals else owner
        if owner is not None:
            totals[owner] += node["self"]
        for child in node["children"]:
            walk(child, owner)

    for _, root in stack:
        walk(root, None)
        if root["name"] == "wormbec":
            totals["wormbec"] = root["cumulative"]
    return {f"import.{name}.ms": us / 1e3 for name, us in totals.items()}


def import_breakdown() -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wormbec"],
                              capture_output=True, text=True, cwd=ROOT,
                              env=_child_env(), timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import wormbec failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def aggregate_spans(span_lists: list[list], rounds: int) -> dict[str, dict[str, float]]:
    """Per span name: self ms, calls and summed counters, per round.

    A span's self time is its duration minus that of its direct children.
    """
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for spans in span_lists:
        inner = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                inner[parent] += end - start
        for (name, start, end, _, attrs), child_s in zip(spans, inner):
            entry = totals[name]
            entry["ms"] += (end - start - child_s) * 1e3
            entry["calls"] += 1
            for key, value in (attrs or {}).items():
                entry[key] += value
    return {name: {key: value / rounds for key, value in entry.items()}
            for name, entry in totals.items()}


def traced(workload: str, seed: int, tally: Tally, live: list[Worker]
           ) -> tuple[dict, str]:
    """The traced run: per-layer metrics over a fixed amount of work."""
    ops = WORKLOADS[workload]
    rng = random.Random(seed)
    metrics = import_breakdown()
    wall_ms = {False: 0.0, True: 0.0}
    span_files: list[Path] = []
    absent: list[str] = []
    if workload in IN_PROCESS:
        rounds = TRACE_ROUNDS
        span_files.append(tally.scratch / "spans.json")
        worker, _ = set_up(ops, tally, live, span_files[0])
        for _ in range(rounds):
            order = rng.sample(ops, len(ops))
            for trace in (False, True):
                for op in order:
                    wall_ms[trace] += worker_op(worker, op, tally, trace)
        absent = worker.close()["absent"]
    else:
        rounds = 1
        set_up(ops, tally, live)[0].close()
        for op in rng.sample(ops, len(ops)):
            wall_ms[False] += process_op(op, tally)[0]
            span_files.append(tally.scratch / f"spans{len(span_files)}.json")
            out = tally.fresh_dir()
            start = time.perf_counter()
            worker = Worker(span_files[-1])
            live.append(worker)
            reply = worker.call(op.argv(out), trace=True)
            absent = worker.close()["absent"]
            wall_ms[True] += (time.perf_counter() - start) * 1e3
            tally.record(op, out, reply["rc"], reply["stdout"], reply["error"])

    layers = aggregate_spans([json.loads(path.read_text(encoding="utf-8"))
                              for path in span_files], rounds)

    def ms(name: str) -> float:
        return layers.get(name, {}).get("ms", 0.0)

    def count(name: str, key: str = "calls") -> int:
        return int(layers.get(name, {}).get(key, 0))

    points = count("gp3d.solve_matching", "points")
    metrics.update({
        "config.load_config.ms": ms("config.load_config"),
        "config.load_config.calls": count("config.load_config"),
        "profile1d.sample_profile_1d.ms": ms("profile1d.sample_profile_1d"),
        "profile1d.sample_profile_1d.points": count("profile1d.sample_profile_1d", "points"),
        "profile1d.feasibility_1d.ms": ms("profile1d.feasibility_1d"),
        "profile3d.lab_profiles_3d.ms": ms("profile3d.lab_profiles_3d"),
        "profile3d.lab_profiles_3d.points": count("profile3d.lab_profiles_3d", "points"),
        "profile3d.feasibility_report_3d.ms": ms("profile3d.feasibility_report_3d"),
        "gp3d.solve_matching.ms": ms("gp3d.solve_matching"),
        "gp3d.solve_matching.points": points,
        # 1.0 when the workload solves nothing: no point failed to converge.
        "gp3d.solve_matching.converged_ratio":
            count("gp3d.solve_matching", "converged") / points if points else 1.0,
        "gp3d.matching_residuals.ms": ms("gp3d.matching_residuals"),
        "gp3d.matching_residuals.calls": count("gp3d.matching_residuals"),
        "geometry.embedding_height.ms": ms("geometry.embedding_height"),
        "geometry.embedding_height.calls": count("geometry.embedding_height"),
        "tableio.write_csv.ms": ms("tableio.write_csv"),
        "tableio.write_json.ms": ms("tableio.write_json"),
        "tableio.bytes": count("tableio.write_csv", "bytes") + count("tableio.write_json", "bytes"),
        "tableio.files": count("tableio.write_csv") + count("tableio.write_json"),
        "cli.self.ms": ms("cli.main"),
        "trace.overhead_pct": 100.0 * (wall_ms[True] - wall_ms[False]) / wall_ms[False],
    })
    note = (f"per round of {len(ops)} calls, {rounds} traced round(s); "
            f"absent targets: {', '.join(absent) or 'none'}")
    return metrics, note


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "wormbec" / "__init__.py").is_file():
        print(f"bench: no wormbec package under {SRC}", file=sys.stderr)
        return 2
    RUN_ROOT.mkdir(exist_ok=True)
    with open(RUN_ROOT / "lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # workloads never run concurrently
        tally = Tally(RUN_ROOT / f"{args.workload}-{os.getpid()}")
        tally.scratch.mkdir()
        live: list[Worker] = []
        try:
            if args.trace:
                metrics, note = traced(args.workload, args.seed, tally, live)
                units = PER_LAYER_UNITS
            else:
                metrics, note = measure(args.workload, args.seed, args.seconds, tally, live)
                units = END_TO_END_UNITS
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        finally:
            for worker in live:
                worker.kill()
            shutil.rmtree(tally.scratch, ignore_errors=True)

    failed = len(tally.failures)
    for failure in tally.failures[:5]:
        print(f"bench: failed op: {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {note}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"error_rate {failed / tally.attempted!r} ({failed} of {tally.attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
