"""bridgecover benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload homology|words|certs --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout (it reads ``src/`` and
``tests/golden/``).  The load is a closed loop with one caller: a worker
process (``worker.py``) runs one op at a time, and the next op is sent only
after the previous answer arrived.  The op list comes from the seed
(``ops.py``); the run repeats whole passes over it until ``--seconds`` have
passed.  Every answer is checked after its op, outside the timing
(``check.py``).  An op that passes its limit, raises, or answers wrongly
counts as failed and the run goes on; a wrong answer makes the exit code 1.

Times in the end-to-end metrics are scaled to a machine of fixed speed.
About four times a second, between ops, the worker times a fixed piece of
pure-Python work that calls no bridgecover code (``worker.reference_work``);
each op's time (but a timeout's, which the limit sets) and the set-up time
are multiplied by its nominal time (``REFERENCE_S``) over its median
measured time.  A change of the shared host's speed during a run cancels
out that way, and a change of bridgecover's speed does not.  The metrics as
measured are printed beside them and kept in ``perfbench/out/``.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones (``END_TO_END``).  With ``--trace 1`` the passes
alternate between plain and traced, and the metrics are the per-layer ones
(``per_layer_names``), counted per traced pass, plus the tracing overhead.
The lines before it give the same figures for people, the failed ops by
input, and the environment; ``perfbench/out/`` keeps the details and the
spans.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import ops as oplib  # noqa: E402
import tracing  # noqa: E402
import worker as workerlib  # noqa: E402

SETUPS = 9             # at least this many worker start-ups are timed
GRACE_S = 10.0         # past an op's limit, the worker is killed
DEADLINE_S = 170.0     # no op starts that could end later than this
REFERENCE_EVERY_S = 0.25  # seconds between timings of the reference work
REFERENCE_S = 0.007    # its nominal time, to which the times are scaled

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

def per_layer_names() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in tracing.TARGETS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms", "ms", "lower"))
    out.append(("intlinalg.smith_normal_form.timeouts", "count", "lower"))
    for layer, (size, unit, _) in tracing.SIZES.items():
        out.append((f"{layer}.{size}", unit, "lower"))
    out += [("qacert.nodes", "count", "lower"),
            ("qacert.bytes_per_node", "B/node", "lower"),
            ("qacert.unique_node_ratio", "ratio", "higher"),
            ("trace.spans", "count", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


def percentile(values: List[float], p: float) -> float:
    """Nearest rank: the smallest value with at least p% of the values at or
    below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: List[float], p: float) -> int:
    """How many values lie above the p-th percentile's rank."""
    return len(values) - max(1, math.ceil(p / 100.0 * len(values)))


class Worker:
    """One worker process and its reply channel."""

    def __init__(self, root: str, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root)
        self.buffer = b""

    def send(self, obj) -> None:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def receive(self, timeout_s: float) -> Optional[dict]:
        """The next reply, or None if none came in time or the worker died."""
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def kill(self) -> int:
        """Stop the worker; return its peak memory in kB."""
        peak = workerlib.peak_rss_kb(self.proc.pid)
        self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        return peak

    def end(self, spans_path: str = "") -> Optional[dict]:
        try:
            self.send({"cmd": "end", "spans": spans_path})
            reply = self.receive(120.0)
            if reply is not None:
                self.proc.wait(timeout=30)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            reply = None
        if reply is None:
            self.kill()
            return None
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        return reply


def start_worker(root: str, workload: str, seed: int):
    """A ready worker and the CPU seconds it spent getting ready.

    CPU time, not wall time, so that other load on the machine does not
    move the figure; work moved into set-up still shows."""
    worker = Worker(root, workload, seed)
    reply = worker.receive(120.0)
    if reply is None or not reply.get("ready"):
        worker.kill()
        raise RuntimeError("the worker did not start (see its stderr)")
    return worker, reply["cpu_s"]


def src_line_count(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def describe(op) -> str:
    """The op's input in one line."""
    parts = [op["kind"], json.dumps(op["args"], separators=(",", ":"))]
    if "ref" in op:
        parts.append(f"ref={op['ref']}")
    if "pick" in op:
        parts.append(f"pick={op['pick']}")
    if op["cli"]:
        parts.append("via cli")
    return " ".join(parts)


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.ops = oplib.op_list(workload, seed)
        self.checker = check.Checker(root)
        self.records: List[dict] = []
        self.peak_kb = 0
        self.setups: List[float] = []
        self.passes = 0
        self.traced_passes = 0
        self.started = time.perf_counter()
        self.complete = True
        self.tracing_now = False
        self.worker = None
        self.references: List[float] = []
        self.last_reference = 0.0

    def _restart(self) -> None:
        self.peak_kb = max(self.peak_kb, self.worker.kill())
        self.worker, _ = start_worker(self.root, self.workload, self.seed)
        if self.tracing_now:
            self._set_trace(True)

    def _set_trace(self, on: bool) -> None:
        self.worker.send({"cmd": "trace", "on": on})
        if self.worker.receive(30.0) is None:
            raise RuntimeError("the worker did not answer a trace request")

    def run_op(self, op, traced: bool) -> dict:
        start = time.perf_counter()
        self.worker.send({"cmd": "run", "id": op["id"]})
        reply = self.worker.receive(op["limit_s"] + GRACE_S)
        if reply is None:
            wall = time.perf_counter() - start
            self._restart()
            reply = {"id": op["id"], "status": "timeout", "error": "killed",
                     "t": wall, "answer": None}
        record = {"id": op["id"], "t": reply["t"], "traced": traced,
                  "status": reply["status"], "error": reply["error"]}
        if reply["status"] == "ok":
            try:
                correct = self.checker.check(op, reply["answer"])
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                correct = False
                record["error"] = f"unreadable answer: {exc!r}"
            if not correct:
                record["status"] = "wrong"
        if op["kind"] in ("write_L", "write_A") and reply["status"] == "ok":
            answer = reply["answer"]
            record["cert"] = (answer["nodes"], answer["links"], answer["bytes"])
        return record

    def time_reference(self) -> None:
        self.worker.send({"cmd": "reference"})
        reply = self.worker.receive(30.0)
        if reply is None:
            raise RuntimeError("the worker did not answer a reference request")
        self.references.append(reply["t"])
        self.last_reference = time.perf_counter()

    def _new_worker(self) -> None:
        """End the current worker, if any, and start a fresh one; its
        set-up time is one sample of ``setup_s``."""
        if self.worker is not None:
            report = self.worker.end() or {}
            self.peak_kb = max(self.peak_kb, report.get("peak_rss_kb", 0))
        self.worker, seconds = start_worker(self.root, self.workload, self.seed)
        self.setups.append(seconds)

    def execute(self) -> None:
        self._new_worker()
        began = time.perf_counter()
        while True:
            traced = self.trace and self.passes % 2 == 1
            if self.trace:
                self._set_trace(traced)
                self.tracing_now = traced
            for op in self.ops:
                if (time.perf_counter() - self.started + op["limit_s"]
                        + GRACE_S > DEADLINE_S):
                    self.complete = False
                    return
                self.records.append(self.run_op(op, traced))
                if time.perf_counter() - self.last_reference >= REFERENCE_EVERY_S:
                    self.time_reference()
            self.passes += 1
            self.traced_passes += traced
            if (time.perf_counter() - began >= self.seconds
                    and (not self.trace or self.passes >= 2)):
                break
            # A fresh worker for each plain pass: set-up samples spread over
            # the run, and no state carried from one pass to the next.  The
            # traced run keeps its worker, which holds the trace.
            if not self.trace:
                self._new_worker()
        while not self.trace and len(self.setups) < SETUPS:
            self._new_worker()

    def finish(self) -> dict:
        """Stop the worker; return its final report."""
        if self.worker is None:
            return {}
        spans = ""
        if self.trace:
            out = os.path.join(self.root, "perfbench", "out")
            os.makedirs(out, exist_ok=True)
            spans = os.path.join(out, f"spans-{self.workload}-{self.seed}.json")
        report = self.worker.end(spans) or {}
        self.peak_kb = max(self.peak_kb, report.get("peak_rss_kb", 0))
        return report

    # -- metrics ----------------------------------------------------------

    @staticmethod
    def op_time(record, scale: float = 1.0) -> float:
        """The op's time multiplied by ``scale``; a timeout keeps its time,
        which the limit set, not the machine's speed."""
        return record["t"] if record["status"] == "timeout" \
            else record["t"] * scale

    def latencies(self, records, scale: float = 1.0) -> List[float]:
        """One latency per op run, over the whole run; a failed run counts
        as at least the op's limit."""
        limit = {op["id"]: op["limit_s"] for op in self.ops}
        return [self.op_time(r, scale) if r["status"] == "ok"
                else max(self.op_time(r, scale), limit[r["id"]])
                for r in records]

    def ops_per_s(self, records, scale: float = 1.0) -> float:
        """Correct ops per second of time spent in ops, failed ones included:
        the median over the passes."""
        per_pass = len(self.ops)
        rates = []
        for start in range(0, len(records) - per_pass + 1, per_pass):
            chunk = records[start:start + per_pass]
            busy = sum(self.op_time(r, scale) for r in chunk)
            rates.append(sum(r["status"] == "ok" for r in chunk) / busy)
        return statistics.median(rates) if rates else 0.0

    def speed_scale(self) -> float:
        """Nominal ÷ measured time of the reference work over this run:
        below 1 when the machine ran slow."""
        return REFERENCE_S / statistics.median(self.references)

    def end_to_end(self, scale: float = 1.0) -> Dict[str, float]:
        """The end-to-end metrics, with measured times multiplied by
        ``scale``."""
        times = self.latencies(self.records, scale)
        return {
            "ops_per_s": self.ops_per_s(self.records, scale),
            "op_p50_ms": percentile(times, 50) * 1e3,
            "op_p95_ms": percentile(times, 95) * 1e3,
            "peak_rss_mb": self.peak_kb / 1024.0,
            "setup_s": statistics.median(self.setups) * scale,
        }

    def per_layer(self, report: dict) -> Dict[str, float]:
        layers = report.get("layers", {})
        n = max(1, self.traced_passes)
        out: Dict[str, float] = {}
        for name, _, _ in per_layer_names():
            if name.endswith(".calls") or name.endswith(".self_ms"):
                out[name] = layers.get(name, 0) / n
        out["intlinalg.smith_normal_form.timeouts"] = \
            layers.get("intlinalg.smith_normal_form.cut", 0) / n
        for layer, (size, _, _) in tracing.SIZES.items():
            out[f"{layer}.{size}"] = layers.get(f"{layer}.{size}", 0)
        first = [r for r in self.records[:len(self.ops)] if "cert" in r]
        nodes = sum(r["cert"][0] for r in first)
        out["qacert.nodes"] = nodes
        out["qacert.bytes_per_node"] = (
            sum(r["cert"][2] for r in first) / nodes if nodes else 0.0)
        out["qacert.unique_node_ratio"] = (
            sum(r["cert"][1] for r in first) / nodes if nodes else 0.0)
        out["trace.spans"] = report.get("spans", 0) / n
        complete = self.records[:self.passes * len(self.ops)]
        plain = [r for r in complete if not r["traced"]]
        traced = [r for r in complete if r["traced"]]
        plain_rate = self.ops_per_s(plain)
        out["trace.overhead_frac"] = (
            1.0 - self.ops_per_s(traced) / plain_rate if plain_rate else 0.0)
        return out


def _environment(root: str, args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "src_lines": src_line_count(root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=oplib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/bridgecover/__init__.py", "tests/golden"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the root of a"
                  f" bridgecover checkout", file=sys.stderr)
            return 2

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    finally:
        report = run.finish()

    records = run.records
    failed = [r for r in records if r["status"] != "ok"]
    wrong = [r for r in records if r["status"] == "wrong"]
    env = _environment(root, args)
    times = run.latencies(records)
    by_id = {op["id"]: op for op in run.ops}

    print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops in"
          f" {run.passes} passes of {len(run.ops)}"
          f"{'' if run.complete else ' (stopped early to end in time)'};"
          f" percentiles over all {len(times)} op runs;"
          f" {beyond(times, 95)} lie beyond p95")
    print(f"environment: python {env['python']}, nproc {env['nproc']},"
          f" src lines {env['src_lines']}")
    scale = run.speed_scale()
    e2e, raw = run.end_to_end(scale), run.end_to_end()
    print(f"reference work: median {REFERENCE_S / scale * 1e3:.4g} ms over"
          f" {len(run.references)} timings, nominal {REFERENCE_S * 1e3:g} ms;"
          f" times below are scaled by {scale:.4g} (as timed in brackets)")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit} ({raw[name]:.6g})")
    print(f"  fail_frac = {len(failed) / len(records):.6g} ratio"
          f" ({len(failed)} of {len(records)})")
    kinds = collections.Counter(
        (r["id"], f"error:{r['error']}" if r["status"] == "error"
         else r["status"]) for r in failed)
    for (op_id, kind), count in kinds.items():
        op = by_id[op_id]
        label = f" [{op['name']}]" if op["name"] else ""
        print(f"  failed x{count} {kind}: {describe(op)}{label}")
    for op in run.ops:
        if op["name"]:
            outcome = {r["status"] for r in records if r["id"] == op["id"]}
            print(f"  baseline case {op['name']}: {'/'.join(sorted(outcome))}")

    if args.trace:
        metrics = run.per_layer(report)
        units = {n: u for n, u, _ in per_layer_names()}
        for name, unit in units.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    detail = {"environment": env, "end_to_end": e2e, "as_timed": raw,
              "speed_scale": scale, "references_s": run.references,
              "metrics": metrics,
              "failed": [dict(r, input=describe(by_id[r["id"]]))
                         for r in failed],
              "setups_s": run.setups, "passes": run.passes}
    path = os.path.join(out_dir, f"result-{args.workload}-{args.seed}"
                                 f"-{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
