"""The qcore benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --workload all --trace 1     # per-layer metrics
    python3 perfbench/run.py --self-test                  # fault injection check

Run it from a checkout of the repository; the program is ``src/qcore``,
started as ``python3 -m qcore`` with ``PYTHONPATH=src``, one fresh process
per request, one request at a time (a closed loop with one client).  The
workloads are described in ``workloads.py``, the correctness gate in
``gate.py`` and the tracing in ``launcher.py``.

``--trace 0`` measures untraced passes for about ``--seconds`` and reports
the ``end_to_end`` metrics of BENCHMARK.json.  verify-all and
expand-sequences repeat one fixed pass, started only while the mean pass
so far still fits (at least one runs).  cli-mix runs a fixed number of
seeded blocks, sized from ``--seconds`` and the seed program's block time,
so that every version of the program is measured on the same requests.

End-to-end times are corrected for the speed of the host.  On a shared
host the same work takes up to 1.5x longer for stretches of a second to
half a minute, which moves the median of a whole run by up to a quarter.
So the runner times ``CALIBRATION``, a fixed job in a fresh interpreter
that shares no code with qcore, before each pass, before a request when
``CALIBRATION_EVERY_S`` have passed since the last one, and once after the
last pass.  Each request's time is scaled by ``CALIBRATION_REF_S`` over the
mean of the calibrations just before and after it, and each set-up probe's
by the one right after it.  A corrected time is the time the work would
take on the reference host at its usual speed; a change to the program
moves it as it moves the raw time.  The uncorrected medians and the
calibration times are reported beside the metrics and kept in the result
record.

- ``wall_s``, ``cpu_s``: wall time and user+sys CPU seconds of the qcore
  processes of one pass, corrected request by request, median over
  passes.  A pass is one ``verify all``, the three expansions, or one
  20-request cli-mix block;
- ``setup_s``: from process start until ``import qcore`` returns, in fresh
  interpreters started before each pass (at least 11 per run), each
  corrected by the calibration run right after it, median;
- ``peak_rss_mb``: the largest peak resident set of a process in a pass,
  median over passes;
- ``request_p50_ms``, ``request_p90_ms``: percentiles of corrected request
  latency over the distinct requests of the run, each taken as the median
  of its repeats, so that they describe the mix of requests rather than
  timing jitter between identical ones (verify-all has one distinct
  request, so both equal ``wall_s`` there).  A request is one qcore process, or two
  for a b-file round trip.

``--trace 1`` runs each pass untraced and then traced (alternating which
goes first) and reports the ``per_layer`` metrics, per pass, computed from
the spans: ``.s`` metrics are self time unless named inclusive in
BENCHMARK.json, ``trace.overhead_s`` is traced minus untraced pass wall
time and ``unattributed_s`` is traced wall time minus every span's self
time and the tracer's own bookkeeping (interpreter start, import, exit).

Every request is checked by the gate.  A request fails if it crashes, exits
with another code than the documented one (0, or 2 for malformed input), or
its output is wrong.  ``failed``/``attempted`` in the result is the
fail ratio; ``correct`` is false when a computed value was wrong.  After
the measured passes, a cli-mix run also sends the requests of
``workloads.KNOWN_DEFECTS`` and reports on a ``KNOWN DEFECT`` line whether
each still fails; they are not counted in the result.  The last line of
standard output is the JSON result; a result record with the raw samples
and the machine is written under ``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from gate import Failure, Gate
from workloads import (
    BFILE_PATH,
    KNOWN_DEFECTS,
    SCRATCH,
    WORKLOADS,
    Request,
    cli_mix_blocks,
    expand_sequences_pass,
    verify_all_pass,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
LAUNCHER = BENCH / "launcher.py"

PROCESS_TIMEOUT_S = 150
# Wall time of one untraced cli-mix block at the seed program on a 2-core
# host; a traced run spends about twice that per block (untraced + traced).
CLI_MIX_BLOCK_S = 3.5
SETUP_PROBES = 11
# perf_counter reads CLOCK_MONOTONIC on Linux, one clock for every process,
# so the child's reading after the import minus the parent's before the
# spawn is the set-up time.
SETUP_PROBE = "import qcore, time; print(repr(time.perf_counter()))"
# A fixed job of the kinds qcore's time goes to: interpreter start, module
# imports, nested loops of small-int arithmetic and big-int products.  It
# imports only the standard library.
CALIBRATION = """
import argparse, dataclasses, fractions, functools, hashlib, itertools, json, re, typing
a = list(range(1, 700))
s = 0
for i in a:
    for j in a:
        s += i * j
b = 7 ** 4000
for _ in range(200):
    b = (b * b) >> 28000
"""
# Wall time of CALIBRATION on the reference host (2 vCPUs of a shared
# x86-64 host, Python 3.11) at its usual speed; corrected times are
# stated at that speed.
CALIBRATION_REF_S = 0.14
CALIBRATION_EVERY_S = 1.0

KERNELS = ("mul", "div", "invert", "pow")
TRACKED_RECORDS = ("lemma.A4B", "lemma.psimodeqforb5", "dissection.inv_f1_5",
                   "ext.b5.before_last")
# Per-layer metrics that are not self time, so the largest-self-time report skips them.
INCLUSIVE_PREFIXES = ("identities.kind.", "identities.record.")


class SetupError(RuntimeError):
    """The program cannot be started from this directory."""


@dataclass
class Proc:
    rc: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_kb: int


@dataclass
class Outcome:
    """One request as run: its cost and, if it failed, why."""

    label: str
    wall: float
    cpu: float
    rss_kb: int
    failure: Optional[Failure]
    traces: list = field(default_factory=list)
    calibration: int = 0  # index of the calibration timed last before it


@dataclass
class HostSpeed:
    """Calibration times of one run, in order, and the set-up probes, each
    with the index of the calibration timed right after it."""

    times: List[float] = field(default_factory=list)
    setup: List[tuple] = field(default_factory=list)
    since: float = 0.0

    def calibrate(self, runner: "Runner") -> int:
        self.times.append(runner.calibrate())
        self.since = perf_counter()
        return len(self.times) - 1

    def probe_setup(self, runner: "Runner") -> None:
        seconds = runner.probe_setup()
        self.setup.append((seconds, self.calibrate(runner)))

    def factor(self, index: int) -> float:
        """Correction for work done between calibrations index and index + 1."""
        return CALIBRATION_REF_S / statistics.mean(self.times[index:index + 2])


class Runner:
    """Starts qcore processes with outputs in a scratch directory."""

    def __init__(self, tmp: Path, gate: Optional[Gate]):
        self.tmp = tmp
        self.gate = gate
        self.env = dict(os.environ)
        self.env.pop("QCORE_DEFAULT_ORDER", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def spawn(self, argv: List[str]) -> Proc:
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                finished, _, _ = select.select([pidfd], [], [], PROCESS_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not finished:
                os.kill(pid, signal.SIGKILL)
        finally:
            _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        return Proc(os.waitstatus_to_exitcode(status), out.read_bytes(), err.read_bytes(),
                    wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)

    def execute(self, request, launcher_args: Optional[List[str]] = None,
                trace: bool = False, request_id: str = "0") -> Outcome:
        """Run one request; ``trace`` or ``launcher_args`` go through the launcher."""
        procs, traces = [], []
        for i, argv in enumerate(request.argvs):
            argv = [a.replace(SCRATCH, str(self.tmp)) for a in argv]
            trace_file = self.tmp / f"trace-{i}.json"
            if trace:
                prefix = [str(LAUNCHER), "--trace", str(trace_file),
                          "--request", f"{request_id}.{i}", "--"]
            elif launcher_args:
                prefix = [str(LAUNCHER), *launcher_args, "--"]
            else:
                prefix = ["-m", "qcore"]
            procs.append(self.spawn(prefix + argv))
            if trace and trace_file.exists():
                traces.append(json.loads(trace_file.read_text()))
                trace_file.unlink()
        bfile_text = None
        bfile_path = Path(BFILE_PATH.replace(SCRATCH, str(self.tmp)))
        if request.kind == "bfile" and bfile_path.exists():
            bfile_text = bfile_path.read_text()
            bfile_path.unlink()
        failure = self.gate.check(request, [(p.rc, p.stdout, p.stderr) for p in procs],
                                  bfile_text)
        return Outcome(request.label, sum(p.wall for p in procs), sum(p.cpu for p in procs),
                       max(p.rss_kb for p in procs), failure, traces)

    def probe_setup(self) -> float:
        start = perf_counter()
        proc = self.spawn(["-c", SETUP_PROBE])
        if proc.rc != 0:
            raise SetupError(f"cannot import qcore: {proc.stderr.decode().strip()}")
        return float(proc.stdout) - start

    def calibrate(self) -> float:
        proc = self.spawn(["-c", CALIBRATION])
        if proc.rc != 0:
            raise SetupError(f"calibration failed: {proc.stderr.decode().strip()}")
        return proc.wall


# -- statistics ------------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (statistics.quantiles' inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- per-layer metrics from spans -------------------------------------------------


def layer_totals(traces: List[dict], names: List[str]) -> Dict[str, float]:
    """Sum the per-layer metrics over the traces of one pass.

    ``names`` are the declared per-layer metrics, all reported even when 0;
    quantities the spans yield beyond them are kept under their own names.
    """
    m: Dict[str, float] = {name: 0 for name in names}
    m["span_self_s"] = 0.0
    for trace in traces:
        m["cli.stdout_bytes"] += trace["stdout_bytes"] or 0
        m["trace.describe_s"] += trace["describe_s"]
        seen = set()
        top_order: Dict[tuple, int] = {}
        for name, start, end, _parent, self_s, attrs in trace["spans"]:
            m["span_self_s"] += self_s
            attrs = attrs or {}  # a call that raised has no attributes
            layer, _, op = name.partition(".")
            if layer == "series":
                if op not in KERNELS:
                    m["series.other.s"] += self_s
                    continue
                m[f"series.{op}.calls"] += 1
                m[f"series.{op}.s"] += self_s
                if op == "pow":
                    m["series.pow.exponent_sum"] += attrs.get("k", 0)
                else:
                    m[f"series.{op}.terms"] += attrs.get("terms", 0)
                if op == "mul":
                    m["series.mul.max_bits"] = max(m["series.mul.max_bits"], attrs.get("bits", 0))
            elif layer == "products":
                m[f"products.{op}.calls"] += 1
                m[f"products.{op}.s"] += self_s
                if not attrs:
                    continue
                # Reuse is judged from the call's arguments alone, whatever
                # cache the program has: the same call again is a repeat, the
                # same spec at a lower order than before is subsumed.
                spec, order = (op, attrs["spec"]), attrs["order"]
                if (spec, order) in seen:
                    m["products.repeat_calls"] += 1
                    m["products.repeat_s"] += end - start
                elif top_order.get(spec, -1) > order:
                    m["products.subsumed_calls"] += 1
                    m["products.subsumed_s"] += end - start
                seen.add((spec, order))
                top_order[spec] = max(order, top_order.get(spec, -1))
            elif name == "identities.verify":
                m["identities.verify.calls"] += 1
                m["identities.self_s"] += self_s
                if not attrs:
                    continue
                key = f"identities.kind.{attrs['kind']}.s"
                m[key] = m.get(key, 0) + end - start
                if attrs["id"] in TRACKED_RECORDS:
                    m[f"identities.record.{attrs['id']}.s"] += end - start
            elif name == "identities.verify_all":
                m["identities.self_s"] += self_s
            elif name == "identities.sign_census":
                m["identities.sign_census.s"] += self_s
            elif name == "registry.sides":
                m["registry.sides.calls"] += 1
                m["registry.sides.self_s"] += self_s
            elif name == "dissection.sides":
                m["dissection.sides.s"] += self_s
            elif name == "dissection.dissect":
                m["dissection.dissect.calls"] += 1
            elif name == "partitions.count_t_cores":
                m["partitions.count_t_cores.calls"] += 1
                m["partitions.count_t_cores.s"] += self_s
            elif layer == "bfile":
                m[f"bfile.{op}.s"] += self_s
                m["bfile.bytes"] += attrs.get("bytes", 0)
            elif name == "cli.main":
                m["cli.main.calls"] += 1
                m["cli.self_s"] += self_s
        m["products.distinct_specs"] += len(top_order)
    return m


def per_layer_metrics(pairs: List[tuple], names: List[str]) -> Dict[str, float]:
    """Per-pass means of the layer totals; ``pairs`` holds (untraced, traced)
    outcome lists of the same requests."""
    summed: Dict[str, float] = {}
    overheads, unattributed = [], []
    for untraced, traced in pairs:
        totals = layer_totals([t for o in traced for t in o.traces], names)
        traced_wall = sum(o.wall for o in traced)
        overheads.append(traced_wall - sum(o.wall for o in untraced))
        unattributed.append(traced_wall - totals.pop("span_self_s") - totals["trace.describe_s"])
        for key, value in totals.items():
            if key == "series.mul.max_bits":
                summed[key] = max(summed.get(key, 0), value)
            else:
                summed[key] = summed.get(key, 0) + value
    count = len(pairs)
    metrics = {k: (v if k == "series.mul.max_bits" else v / count) for k, v in summed.items()}
    calls = sum(metrics[f] for f in metrics if f.startswith("products.") and f.endswith(".calls"))
    reused = metrics["products.repeat_calls"] + metrics["products.subsumed_calls"]
    metrics["products.reuse_ratio"] = reused / calls if calls else 0.0
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["unattributed_s"] = statistics.mean(unattributed)
    return metrics


# -- running a workload ------------------------------------------------------------


def pass_source(workload: str, seed: int, record_ids: List[str]):
    if workload == "verify-all":
        while True:
            yield verify_all_pass()
    elif workload == "expand-sequences":
        while True:
            yield expand_sequences_pass()
    else:
        yield from cli_mix_blocks(seed, record_ids)


def cli_mix_block_count(seconds: float, trace: bool) -> int:
    return max(1, round(seconds / (CLI_MIX_BLOCK_S * (2 if trace else 1))))


def run_passes(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
               record_ids: List[str], host: HostSpeed) -> List[tuple]:
    """Run the passes of one workload: a fixed number of cli-mix blocks, or
    otherwise passes while the mean pass still fits in ``seconds`` (at least one).

    Each entry is (untraced outcomes, traced outcomes or None, requests).
    Untraced runs also time one set-up probe and one calibration before
    each pass, so that they spread over the whole run, and a calibration
    before a request when the last is CALIBRATION_EVERY_S old; ``host``
    keeps them.
    """
    passes = []
    durations = []
    started = perf_counter()
    source = pass_source(workload, seed, record_ids)
    blocks = cli_mix_block_count(seconds, trace) if workload == "cli-mix" else None

    def more() -> bool:
        if blocks is not None:
            return len(passes) < blocks
        return not durations or perf_counter() - started + statistics.mean(durations) <= seconds

    while more():
        requests = next(source)
        begin = perf_counter()
        index = len(passes)
        if not trace:
            host.probe_setup(runner)
            outcomes = []
            for r in requests:
                if perf_counter() - host.since > CALIBRATION_EVERY_S:
                    host.calibrate(runner)
                outcomes.append(runner.execute(r))
                outcomes[-1].calibration = len(host.times) - 1
            passes.append((outcomes, None, requests))
        else:
            def traced():
                return [runner.execute(r, trace=True, request_id=f"{index}.{i}")
                        for i, r in enumerate(requests)]

            def untraced():
                return [runner.execute(r) for r in requests]

            if index % 2 == 0:
                plain, with_spans = untraced(), traced()
            else:
                with_spans, plain = traced(), untraced()
            passes.append((plain, with_spans, requests))
        durations.append(perf_counter() - begin)
    return passes


def end_to_end_metrics(passes: List[tuple], host: HostSpeed) -> Dict[str, float]:
    def corrected(attr):
        return [sum(host.factor(o.calibration) * getattr(o, attr) for o in outs)
                for outs, _, _ in passes]

    walls = [sum(o.wall for o in outs) for outs, _, _ in passes]
    rss = [max(o.rss_kb for o in outs) / 1024 for outs, _, _ in passes]
    repeats: Dict[str, List[float]] = {}
    for outs, _, _ in passes:
        for o in outs:
            repeats.setdefault(o.label, []).append(host.factor(o.calibration) * o.wall * 1000)
    latencies = [statistics.median(ms) for ms in repeats.values()]
    return {
        "wall_s": statistics.median(corrected("wall")),
        "cpu_s": statistics.median(corrected("cpu")),
        "setup_s": statistics.median(CALIBRATION_REF_S * seconds / host.times[i]
                                     for seconds, i in host.setup),
        "peak_rss_mb": statistics.median(rss),
        "request_p50_ms": quantile(latencies, 0.5),
        "request_p90_ms": quantile(latencies, 0.9),
        "uncorrected.wall_s": statistics.median(walls),
        "uncorrected.setup_s": statistics.median(seconds for seconds, _ in host.setup),
        "calibration_s": statistics.median(host.times),
    }


def machine_info() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
    }


def source_revision() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the program's sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
                 declared: dict, reference: dict) -> dict:
    runner = Runner(tmp, Gate(reference, random.Random(seed)))
    load_before = os.getloadavg()
    runner.probe_setup()  # the first import compiles bytecode; users pay that once
    host = HostSpeed()
    passes = run_passes(runner, workload, seed, seconds, trace, reference["record_ids"], host)
    if not trace:
        host.probe_setup(runner)  # its calibration closes the last pass
        while len(host.setup) < SETUP_PROBES:
            host.probe_setup(runner)
    defects = []
    if workload == "cli-mix":
        for request in KNOWN_DEFECTS:
            failure = runner.execute(request).failure
            defects.append({"request": request.label, "still_fails": failure is not None,
                            "reason": failure.reason if failure else None})
    load_after = os.getloadavg()

    outcomes = [o for plain, spans, _ in passes for o in plain + (spans or [])]
    failures = [(o.label, o.failure) for o in outcomes if o.failure is not None]
    if trace:
        names = [m["name"] for m in declared["per_layer"]]
        computed = per_layer_metrics([(plain, spans) for plain, spans, _ in passes], names)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        computed = end_to_end_metrics(passes, host)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    labels = [r.label for _, _, requests in passes for r in requests]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "passes": len(passes),
        "correct": not any(f.value_error for _, f in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": [{"request": label, "reason": f.reason, "value_error": f.value_error}
                     for label, f in failures],
        "known_defects": defects,
        "metrics": {name: {"value": computed[name], "unit": unit}
                    for name, unit in units.items()},
        "undeclared": {k: v for k, v in computed.items() if k not in units},
        "samples": {
            "pass_wall_s": [sum(o.wall for o in plain) for plain, _, _ in passes],
            "pass_cpu_s": [sum(o.cpu for o in plain) for plain, _, _ in passes],
            "pass_peak_rss_kb": [max(o.rss_kb for o in plain) for plain, _, _ in passes],
            "request_ms": [o.wall * 1000 for plain, _, _ in passes for o in plain],
            "traced_pass_wall_s": [sum(o.wall for o in spans) for _, spans, _ in passes
                                   if spans is not None],
            "setup_s": [seconds for seconds, _ in host.setup],
            "setup_calibration": [i for _, i in host.setup],
            "calibration_s": host.times,
            "request_calibration": [o.calibration for plain, _, _ in passes for o in plain],
        },
        "requests": len(labels),
        "distinct_requests": len(set(labels)),
        "request_list_sha256": hashlib.sha256("\n".join(labels).encode()).hexdigest(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }


def print_summary(result: dict) -> None:
    samples = result["samples"]
    counts = {"setup_s": len(samples["setup_s"]),
              "request_p50_ms": result["distinct_requests"],
              "request_p90_ms": result["distinct_requests"]}
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}  requests {result['requests']}")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        n = counts.get(name, result["passes"])
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']:<6} (n={n})")
    for name, value in sorted(result["undeclared"].items()):
        print(f"  {name:<40} {value:>16.6g}        (not declared)")
    if result["trace"]:
        self_times = {k: v["value"] for k, v in metrics.items()
                      if (k.endswith(".s") or k.endswith("self_s"))
                      and not k.startswith(INCLUSIVE_PREFIXES)}
        top = sorted(self_times, key=self_times.get, reverse=True)[:3]
        print("  largest self time: " + ", ".join(f"{k} {self_times[k]:.4g} s" for k in top))
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = {ratio:.4g}"
          f"  correct {result['correct']}")
    for failure in result["failures"]:
        print(f"  FAIL {failure['request']}: {failure['reason']}")
    for defect in result["known_defects"]:
        status = defect["reason"] if defect["still_fails"] else "now behaves as documented"
        print(f"  KNOWN DEFECT (not counted) {defect['request']}: {status}")


def write_record(result: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-"
                      f"{time.time_ns()}.json")
    path.write_text(json.dumps(result, indent=1))
    return path


# -- fault-injection self-test ---------------------------------------------------------


def self_test(tmp: Path, reference: dict) -> bool:
    """Corrupt one coefficient, seen once by ``expand`` and once through an
    identity, and force one crash, all through the launcher; the gate must
    flag each, naming the request, and the fail ratio must rise."""
    runner = Runner(tmp, Gate(reference, random.Random(0)))
    runner.probe_setup()
    expand = Request("expand", (("expand", "b5bar", "500"),), {"name": "b5bar", "order": 500})
    identity = Request("verify", (("verify", "ext.b5.before_last", "-N", "100"),),
                       {"id": "ext.b5.before_last", "order": 100})
    verify = Request("verify", (("verify", "lemma.A4B", "-N", "100"),),
                     {"id": "lemma.A4B", "order": 100})
    clean = [runner.execute(r) for r in (expand, identity, verify)]
    # b5(306) is read by expand and checked there through b5(10n+6) = 0;
    # b5(297) = b5(25*11+22) = b5(5*59+2) is read by ext.b5.before_last.
    faulty = [runner.execute(expand, ["--corrupt", "gen_b5bar:306"]),
              runner.execute(identity, ["--corrupt", "gen_b5bar:297"]),
              runner.execute(verify, ["--crash", "euler_f"])]

    def wrong_value(outcome, named):
        f = outcome.failure
        return f is not None and f.value_error and named in f.reason

    checks = [
        ("clean requests pass the gate", all(o.failure is None for o in clean)),
        ("corrupted coefficient b5(306) is flagged as a wrong value by expand",
         wrong_value(faulty[0], "b5(306)")),
        ("corrupted coefficient b5(297) is flagged as a wrong value of ext.b5.before_last",
         wrong_value(faulty[1], "ext.b5.before_last")),
        ("forced crash is flagged as a crash, not as a wrong value",
         faulty[2].failure is not None and faulty[2].failure.reason.startswith("crashed")
         and not faulty[2].failure.value_error),
        ("fail ratio rises from 0/3 to 3/3",
         sum(o.failure is not None for o in clean) == 0
         and sum(o.failure is not None for o in faulty) == 3),
    ]
    for outcome in faulty:
        reason = outcome.failure.reason if outcome.failure else "not flagged"
        print(f"  FAIL {outcome.label}: {reason}")
    for what, ok in checks:
        print(f"SELF-TEST {'PASS' if ok else 'FAIL'}: {what}")
    return all(ok for _, ok in checks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "qcore" / "__init__.py").is_file():
        print(f"no qcore sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    declared, reference = load_declared(), load_reference()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.self_test:
            return 0 if self_test(tmp, reference) else 1
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        context = {"machine": machine_info(), **source_revision()}
        results = {}
        for workload in workloads:
            result = run_workload(workload, args.seed, seconds, bool(args.trace), tmp,
                                  declared, reference)
            result.update(context)
            result["record"] = str(write_record(result).relative_to(ROOT))
            print_summary(result)
            results[workload] = {k: result[k] for k in ("correct", "attempted", "failed",
                                                         "metrics")}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
