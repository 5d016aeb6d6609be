"""pcqm benchmark: three seeded closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 15 --trace 0

One client sends each request only after the previous one has finished.
Every program process runs from ``src/`` of this checkout with BLAS/OpenMP
threads pinned to 1, and at most one runs at a time.

Workloads (the seed only shapes the inputs the benchmark generates):

* ``verify-cold``: a fresh ``python -m pcqm.cli verify --format json`` per
  request.  The paper's headline battery; CLI users pay interpreter start,
  imports and cold caches on every run, so this must too.
* ``eval-warm``: one long-lived process evaluates a seeded stream of
  expressions with ``pcqm.expr.evaluate_text(text).render()``.  Many short,
  user-shaped products with deep reorderings, plus the parse and render
  paths that verify never touches.
* ``cli-numeric``: fresh processes of ``irrep``, ``spectrum``, ``bound`` and
  ``convert`` in seeded order, one of each per block.  The symbolic engine
  does no work here; start-up and the numeric layers dominate.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
the named workload.  Its times and rates are in reference-host units (see
``HostClock``), because on a shared virtual machine CPU speed can drift by
tens of percent over minutes (up to ~40% measured on a 2-vCPU VM), more than
any useful bound on raw seconds.  The values as measured are printed on
``# measured here:`` lines above the result.

With ``--trace 1`` the last line carries the per-layer metrics of a
fixed-size traced pass over all three workloads (so call counts repeat
exactly for a seed), each prefixed with its workload, plus the kernel
microbenchmarks and import times.  Every output is checked against a
reference that does not come from the code under test; a request that
fails its check, exits non-zero or runs past its time limit counts as failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# src/ and tests/ serve only the output checks (the oracle in tests/helpers.py).
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import exprgen  # noqa: E402

PY = sys.executable
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SPAWNS = 11
TIMEOUT_S = {"verify": 60.0, "cli": 30.0, "eval": 10.0}
VERIFY_CHECKS = 530
CLI_COMMANDS = {
    "irrep": ["irrep", "--k-max", "10", "--format", "json"],
    "spectrum": ["spectrum", "--n-max", "3", "--constants", "precise"],
    "bound": ["bound"],
    "convert": ["convert", "--value", "1", "--from", "fm", "--to", "GeV^-1"],
}
IRREP_K_MAX = Fraction(10)
# 1 fm = 5 GeV^-1 in the paper-approx constant set (README, "Units").
CONVERT_EXPECTED = b"1 fm = 5 GeV^-1\n"
# Median time of calibration_kernel() on the reference host, a 2-vCPU VM with
# Python 3.11 in a quiet phase.
CAL_REFERENCE_S = 0.020
CAL_SHARE = 0.05
EVAL_SLICE_S = 0.5
TRACE_VERIFY_REQUESTS = 2
TRACE_EVAL_REQUESTS = 200
TRACE_CLI_BLOCKS = 2
IMPORTTIME_SPAWNS = 3

WORKLOADS = ("verify-cold", "eval-warm", "cli-numeric")
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "cpu_per_req_s": "s",
    "peak_rss_mb": "MB",
}

_ENGINE = [
    "scalars.pc_mul.calls", "scalars.pc_add.calls", "scalars.base_scalar.constructed",
    "operators.multiply.calls", "operators.multiply.self_s",
    "operators.normal_form.calls", "operators.normal_form.self_s",
    "operators.commutator.calls", "operators.normal_form.terms_in",
    "operators.normal_form.terms_out", "operators.normal_form.useful_ratio",
    "operators.peak_word_len",
]
_CLI = ["cli.run.busy_s", "cli.render.self_s"]
# Per-layer metrics of each workload's traced pass, per request; each is
# listed under the workload(s) whose end-to-end figures it should move.
LAYER_METRICS = {
    "verify-cold": _ENGINE + [
        "operators.verify_canonical_relations.busy_s",
        "operators.verify_induced_relations.busy_s",
        "so4.verify_so4_relations.busy_s", "so4.verify_recomposition.busy_s",
        "so4.verify_component_closure.busy_s", "so4.verify_casimir_commutes.busy_s",
        "so4.casimir_expansion.busy_s", "so4.express_in_span.busy_s",
        "so4.builder.calls", "so4.builder.busy_s",
        "reports.checks", "reports.to_dict.busy_s",
    ] + _CLI,
    "eval-warm": _ENGINE + [
        "so4.builder.calls", "so4.builder.busy_s",
        "expr.parse.busy_s", "expr.evaluate.busy_s", "expr.render.busy_s",
    ],
    "cli-numeric": _CLI + [
        "irrep.build_irrep.busy_s", "irrep.casimir_eigenvalue.busy_s",
        "irrep.flops_computed", "irrep.matrix_bytes_computed",
        "hydrogen.corrected_spectrum.busy_s", "hydrogen.length_bound.busy_s",
        "units.convert.calls", "units.convert.busy_s",
    ],
}
MICRO_METRICS = ("scalars.pc_mul.ns_per_op", "operators.multiply.us_per_op",
                 "operators.normal_form.us_per_op")
IMPORT_METRICS = ("import.pcqm_s", "import.numpy_s")


def layer_unit(name: str) -> str:
    for suffix, unit in ((".ns_per_op", "ns"), (".us_per_op", "us"), ("_s", "s"),
                         ("_ratio", "1"), (".flops_computed", "flop"),
                         (".matrix_bytes_computed", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{w}.{m}" for w in WORKLOADS for m in LAYER_METRICS[w]]
    names += [f"{w}.trace.overhead_ratio" for w in WORKLOADS]
    return names + list(MICRO_METRICS) + list(IMPORT_METRICS)


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Finished:
    code: int | None  # None when the time limit killed the process
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PCQM_CONSTANTS", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed hash seed, so that call counts repeat exactly between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], env: dict, timeout: float) -> Finished:
    """Run one process to completion; its own CPU and peak RSS via wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Finished(None if timed_out else proc.returncode, b"".join(chunks[proc.stdout]),
                    b"".join(chunks[proc.stderr]), wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss)


class Worker:
    """The long-lived eval process, with a time limit on every reply."""

    def __init__(self, env: dict, trace_args: list[str] | None = None):
        argv = [PY, str(HERE / "worker.py"), *(trace_args or [])]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        if self.readline(TIMEOUT_S["eval"] * 3) != b"ready":
            self.close()
            raise RuntimeError("eval worker did not start")

    def readline(self, timeout: float) -> bytes | None:
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not self.sel.select(remaining):
                return None
            data = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not data:
                return None
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def request(self, text: str) -> dict | None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()
        line = self.readline(TIMEOUT_S["eval"])
        return None if line is None else json.loads(line)

    def finish(self) -> dict:
        """Close stdin and return the worker's final report (peak RSS)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        line = self.readline(TIMEOUT_S["eval"])
        self.close()
        return json.loads(line) if line else {}

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.sel.close()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# References (none of them computed by the code under test)


def order4_term_count() -> int:
    text = (ROOT / "tests" / "data" / "casimir_order4_residual.txt").read_text()
    return sum(1 for line in text.splitlines() if line.strip())


def check_verify(fin: Finished, order4_terms: int) -> str | None:
    if fin.code != 0:
        return f"verify exit {fin.code}"
    payload = json.loads(fin.stdout)
    checks = [c for r in payload["reports"] for c in r["checks"]]
    if payload.get("all_passed") is not True or not all(c["passed"] for c in checks):
        return "verify reports a failed check"
    if len(checks) != VERIFY_CHECKS:
        return f"verify ran {len(checks)} checks, expected {VERIFY_CHECKS}"
    order4 = [c["residual"] for c in checks if c["label"] == "order l^4 residual nonzero"]
    if order4 != [f"{order4_terms} terms"]:
        return f"order-4 residual reports {order4}, expected {order4_terms} terms"
    return None


def check_irrep(stdout: bytes) -> str | None:
    rows = json.loads(stdout)["rows"]
    ks = [Fraction(n, 2) for n in range(int(2 * IRREP_K_MAX) + 1)]
    if [Fraction(r["k"]) for r in rows] != ks:
        return "irrep sweep rows do not cover k = 0..10 in half steps"
    for r, k in zip(rows, ks):
        if r["dim"] != (2 * k + 1) ** 2 or not r["deviation"] < 1e-12:
            return f"irrep row k={k} has dim {r['dim']}, deviation {r['deviation']}"
        if Fraction(r["denominator"]) != 2 * (2 * k + 1) ** 2:
            return f"irrep row k={k} denominator {r['denominator']} != 2(2k+1)^2"
        if abs(r["casimir"] - float(2 * k * (k + 1))) > 1e-9:
            return f"irrep row k={k} Casimir {r['casimir']} != 2k(k+1)"
    return None


def cli_references() -> dict:
    data = ROOT / "tests" / "data"
    return {"spectrum": (data / "spectrum_precise_l0.txt").read_bytes(),
            "bound": (data / "bound_default.txt").read_bytes(),
            "convert": CONVERT_EXPECTED}


def check_cli(command: str, fin: Finished, refs: dict) -> str | None:
    if fin.code != 0:
        return f"{command} exit {fin.code}"
    if command == "irrep":
        return check_irrep(fin.stdout)
    if fin.stdout != refs[command]:
        return f"{command} output differs from its reference"
    return None


class EvalChecker:
    """Compares eval outputs with the oracle, after the timed phase."""

    def __init__(self):
        self.reference = exprgen.Reference()

    def check(self, family: str, node: exprgen.Node, out: str) -> str | None:
        expected = "0" if family in exprgen.ZERO_FAMILIES else self.reference.render(node)
        return None if out == expected else f"eval {node.text!r} gave {out[:80]!r}"


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Result:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)  # None where a timeout hid it
    scales: list = field(default_factory=list)  # reference-host factor per request
    rss_kb: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    elapsed: float = 0.0


def checked(fin: Finished, check) -> str | None:
    """Failure message for one finished request, or None if its output is right."""
    if fin.code is None:
        return "timeout"
    try:
        return check(fin)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable output: {err!r}"


def calibration_kernel() -> float:
    """Wall time of a fixed stdlib computation that never touches pcqm
    (exact rationals and dict updates, the engine's kind of work)."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(1, 3000):
        q = Fraction(i, i % 7 + 1) * Fraction(3, i % 5 + 2) + Fraction(1, i)
        acc[i % 97] = acc.get(i % 97, 0) + q
    return time.perf_counter() - start


class HostClock:
    """Converts times measured on this host into reference-host times.

    The vCPUs of a shared VM change speed by tens of percent over minutes,
    each on its own, and every process on a CPU slows alike.  So requests run
    in slices pinned to one CPU, taking the CPUs in turn, and each slice ends
    with ``calibration_kernel`` on that same CPU, repeated to about
    CAL_SHARE of the slice's length.  The slice's times are scaled by
    CAL_REFERENCE_S over the median kernel time.  Program processes inherit
    the pin; pinning changes no work they do.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.kernel_s: list[float] = []

    def pin(self, *pids: int) -> None:
        cpu = self.cpus[self.turn % len(self.cpus)]
        self.turn += 1
        for pid in (0, *pids):
            os.sched_setaffinity(pid, {cpu})
        self.slice_start = time.perf_counter()

    def end_slice(self) -> float:
        """Reference-host seconds per second measured in the slice just run."""
        repeats = max(1, round(CAL_SHARE * (time.perf_counter() - self.slice_start)
                               / CAL_REFERENCE_S))
        samples = [calibration_kernel() for _ in range(repeats)]
        self.kernel_s += samples
        return CAL_REFERENCE_S / statistics.median(samples)

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def setup_samples(env: dict, clock: HostClock) -> list[tuple[float, float]]:
    """Fresh interpreter until `import pcqm.cli` returns, SETUP_SPAWNS times,
    each as (seconds, reference-host factor)."""
    out = []
    for _ in range(SETUP_SPAWNS):
        clock.pin()
        start = time.monotonic_ns()
        fin = run_process([PY, "-c", "import time, pcqm.cli; print(time.monotonic_ns())"],
                          env, TIMEOUT_S["cli"])
        if fin.code != 0:
            raise RuntimeError(f"import pcqm.cli failed: {fin.stderr.decode()[-400:]}")
        out.append(((int(fin.stdout) - start) / 1e9, clock.end_slice()))
    return out


def record(res: Result, fin: Finished, failure: str | None, scale: float = 1.0) -> None:
    res.attempted += 1
    res.walls.append(fin.wall_s)
    res.cpus.append(fin.cpu_s)
    res.scales.append(scale)
    res.rss_kb.append(fin.maxrss_kb)
    if failure:
        res.failures.append(failure)


def run_verify_cold(env: dict, seed: int, seconds: float, clock: HostClock) -> Result:
    res, outputs = Result(), []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        clock.pin()
        fin = run_process([PY, "-m", "pcqm.cli", "verify", "--format", "json"], env,
                          TIMEOUT_S["verify"])
        outputs.append((fin, clock.end_slice()))
    res.elapsed = time.perf_counter() - start
    terms = order4_term_count()
    for fin, scale in outputs:
        record(res, fin, checked(fin, lambda f: check_verify(f, terms)), scale)
    return res


def cli_blocks(seed: int):
    rng = random.Random(seed)
    while True:
        block = list(CLI_COMMANDS)
        rng.shuffle(block)
        yield block


def run_cli_numeric(env: dict, seed: int, seconds: float, clock: HostClock) -> Result:
    res, outputs = Result(), []
    start = time.perf_counter()
    blocks = cli_blocks(seed)
    # Whole blocks only, so the command proportions are fixed.
    while time.perf_counter() - start < seconds:
        for command in next(blocks):
            clock.pin()
            fin = run_process([PY, "-m", "pcqm.cli", *CLI_COMMANDS[command]], env,
                              TIMEOUT_S["cli"])
            outputs.append((command, fin, clock.end_slice()))
    res.elapsed = time.perf_counter() - start
    refs = cli_references()
    for command, fin, scale in outputs:
        record(res, fin, checked(fin, lambda f: check_cli(command, f, refs)), scale)
    return res


def eval_requests(worker_env: dict, items, deadline_s: float | None,
                  trace_args: list[str] | None = None,
                  clock: HostClock | None = None) -> tuple[Result, list]:
    """Send items to one worker (restarted after a timeout) until done or the deadline.

    With a clock, requests run in slices of EVAL_SLICE_S, each pinned to one CPU.
    """
    res, replies = Result(), []
    worker = Worker(worker_env, trace_args)
    start = slice_start = time.perf_counter()
    slice_first = 0

    def end_slice() -> None:
        scale = clock.end_slice() if clock else 1.0
        res.scales.extend([scale] * (res.attempted - slice_first))

    try:
        if clock:
            clock.pin(worker.proc.pid)
        for family, node in items:
            now = time.perf_counter()
            if deadline_s is not None and now - start >= deadline_s:
                break
            if clock and now - slice_start >= EVAL_SLICE_S:
                end_slice()
                clock.pin(worker.proc.pid)
                slice_start, slice_first = time.perf_counter(), res.attempted
            t0 = time.perf_counter()
            reply = worker.request(node.text)
            wall = time.perf_counter() - t0
            res.attempted += 1
            res.walls.append(wall)
            if reply is None:
                res.failures.append(f"eval timeout: {node.text!r}")
                res.cpus.append(None)
                worker.proc.kill()
                worker.close()
                worker = Worker(worker_env, trace_args)
                continue
            res.cpus.append(reply["cpu_s"])
            replies.append((family, node, reply))
        end_slice()
        res.elapsed = time.perf_counter() - start
    finally:
        final = worker.finish()
    res.rss_kb.append(final.get("maxrss_kb", 0))
    return res, replies


def check_eval(res: Result, replies: list) -> None:
    checker = EvalChecker()
    for family, node, reply in replies:
        if not reply["ok"]:
            res.failures.append(f"eval {node.text!r} raised {reply['error']}")
            continue
        failure = checker.check(family, node, reply["out"])
        if failure:
            res.failures.append(failure)


def run_eval_warm(env: dict, seed: int, seconds: float, clock: HostClock) -> Result:
    stream = exprgen.ExpressionStream(seed)
    items = iter(stream.next, None)
    res, replies = eval_requests(env, items, seconds, clock=clock)
    check_eval(res, replies)
    return res


RUNNERS = {"verify-cold": run_verify_cold, "eval-warm": run_eval_warm,
           "cli-numeric": run_cli_numeric}


def end_to_end(res: Result, setup: list[tuple[float, float]], reference: bool) -> dict:
    """End-to-end values in reference-host units, or as measured here."""
    def k(scale: float) -> float:
        return scale if reference else 1.0

    walls = [w * k(s) for w, s in zip(res.walls, res.scales)]
    cpus = [t * k(s) for t, s in zip(res.cpus, res.scales) if t is not None]
    return {
        "setup_s": statistics.median(v * k(s) for v, s in setup),
        # Requests completed per second of request time in the timed phase.
        "throughput_rps": (res.attempted - len(res.failures)) / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "cpu_per_req_s": statistics.fmean(cpus),
        "peak_rss_mb": max(res.rss_kb) / 1024,
    }


# ---------------------------------------------------------------------------
# Traced pass


def scratch_dir() -> Path:
    path = ROOT / ".bench_build" / "trace"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _accumulate(total: dict, summary: dict) -> None:
    for key, value in summary.items():
        if key.endswith("peak_word_len"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def layer_values(workload: str, total: dict, n_requests: int) -> dict:
    out = {}
    for name in LAYER_METRICS[workload]:
        if name == "operators.normal_form.useful_ratio":
            terms_in = total.get("operators.normal_form.terms_in", 0)
            value = total.get("operators.normal_form.terms_out", 0) / terms_in if terms_in else 0.0
        elif name == "operators.peak_word_len":
            value = total.get(name, 0)
        elif name == "cli.render.self_s":
            value = total.get("cli.run.self_s", 0.0) / n_requests
        else:
            value = total.get(name, 0) / n_requests
        out[f"{workload}.{name}"] = value
    return out


def traced_cli(env: dict, argv: list[str], request: int, timeout: float) -> tuple[Finished, dict]:
    d = scratch_dir()
    summary_file, spans_file = d / "request.summary.json", d / "spans.jsonl"
    summary_file.unlink(missing_ok=True)
    fin = run_process([PY, str(HERE / "tracer.py"), "--summary", str(summary_file),
                       "--spans", str(spans_file), "--request", str(request), "--", *argv],
                      env, timeout)
    summary = json.loads(summary_file.read_text()) if summary_file.is_file() else {}
    return fin, summary


def trace_pass(env: dict, seed: int) -> tuple[dict, Result]:
    """Fixed-size traced pass over every workload.

    Each request (or half of the eval stream) also runs untraced, in
    alternating order, and traced wall over untraced wall is the workload's
    tracing overhead.
    """
    spans_file = scratch_dir() / "spans.jsonl"
    spans_file.write_text("")
    metrics: dict = {}
    overall = Result()
    rid = 0

    def plain_and_traced(argv: list[str], timeout: float, check) -> tuple[float, float, dict]:
        nonlocal rid
        rid += 1
        runs = [lambda: (run_process([PY, "-m", "pcqm.cli", *argv], env, timeout), None),
                lambda: traced_cli(env, argv, rid, timeout * 4)]
        if rid % 2 == 0:
            runs.reverse()
        done = [run() for run in runs]
        if rid % 2 == 0:
            done.reverse()
        (plain, _), (traced, summary) = done
        for fin in (plain, traced):
            record(overall, fin, checked(fin, check))
        return plain.wall_s, traced.wall_s, summary

    # verify-cold: fresh interpreter per traced request, in process via cli.run.
    total, walls = {}, [0.0, 0.0]
    terms = order4_term_count()
    for _ in range(TRACE_VERIFY_REQUESTS):
        plain, traced, summary = plain_and_traced(
            ["verify", "--format", "json"], TIMEOUT_S["verify"],
            lambda f: check_verify(f, terms))
        _accumulate(total, summary)
        walls[0] += plain
        walls[1] += traced
    metrics.update(layer_values("verify-cold", total, TRACE_VERIFY_REQUESTS))
    metrics["verify-cold.trace.overhead_ratio"] = walls[1] / walls[0]

    # eval-warm: the first TRACE_EVAL_REQUESTS expressions of the seed's stream,
    # in two halves: plain then traced, traced then plain.
    items = exprgen.stream(seed, TRACE_EVAL_REQUESTS)
    half = len(items) // 2
    summary_file = scratch_dir() / "eval.summary.json"
    total, walls = {}, [0.0, 0.0]
    for part, traced_first in ((items[:half], False), (items[half:], True)):
        summary_file.unlink(missing_ok=True)
        trace_args = ["--summary", str(summary_file), "--spans", str(spans_file),
                      "--request-base", str(rid)]
        order = (trace_args, None) if traced_first else (None, trace_args)
        for args in order:
            res, replies = eval_requests(env, part, None, args)
            check_eval(res, replies)
            overall.attempted += res.attempted
            overall.failures += res.failures
            walls[args is not None] += sum(res.walls)
        _accumulate(total, json.loads(summary_file.read_text()))
        rid += len(part)
    metrics.update(layer_values("eval-warm", total, len(items)))
    metrics["eval-warm.trace.overhead_ratio"] = walls[1] / walls[0]

    # cli-numeric: TRACE_CLI_BLOCKS seeded blocks.
    total, walls, n = {}, [0.0, 0.0], 0
    refs = cli_references()
    blocks = cli_blocks(seed)
    for _ in range(TRACE_CLI_BLOCKS):
        for command in next(blocks):
            plain, traced, summary = plain_and_traced(
                CLI_COMMANDS[command], TIMEOUT_S["cli"],
                lambda f, c=command: check_cli(c, f, refs))
            _accumulate(total, summary)
            walls[0] += plain
            walls[1] += traced
            n += 1
    metrics.update(layer_values("cli-numeric", total, n))
    metrics["cli-numeric.trace.overhead_ratio"] = walls[1] / walls[0]

    fin = run_process([PY, str(HERE / "micro.py"), "--seed", str(seed)], env, 120)
    if fin.code != 0:
        raise RuntimeError(f"microbenchmarks failed: {fin.stderr.decode()[-400:]}")
    metrics.update(json.loads(fin.stdout))
    metrics.update(import_times(env))
    return metrics, overall


def import_times(env: dict) -> dict:
    """Cumulative import time of pcqm and numpy, from `python -X importtime`."""
    samples: dict = {"pcqm": [], "numpy": []}
    for _ in range(IMPORTTIME_SPAWNS):
        fin = run_process([PY, "-X", "importtime", "-c", "import pcqm"], env, TIMEOUT_S["cli"])
        for line in fin.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    fin = run_process(["git", "-C", str(ROOT), "rev-parse", "HEAD"], os.environ.copy(), 30)
    return fin.stdout.decode().strip() or "unknown"


def machine_facts(args, env: dict) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def preflight() -> None:
    needed = [ROOT / "src" / "pcqm" / "cli.py", ROOT / "tests" / "helpers.py",
              ROOT / "tests" / "data" / "casimir_order4_residual.txt",
              ROOT / "tests" / "data" / "spectrum_precise_l0.txt",
              ROOT / "tests" / "data" / "bound_default.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a pcqm checkout, missing {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    env = program_env()
    compiled = run_process([PY, "-m", "compileall", "-q", str(ROOT / "src" / "pcqm")], env, 120)
    if compiled.code != 0:
        sys.exit(f"perfbench: compileall failed: {compiled.stderr.decode()[-400:]}")
    print("# facts " + json.dumps(machine_facts(args, env)))

    if args.trace:
        values, res = trace_pass(env, args.seed)
        metrics = {k: {"value": values[k], "unit": layer_unit(k)} for k in per_layer_names()}
    else:
        clock = HostClock()
        try:
            setup = setup_samples(env, clock)
            res = RUNNERS[args.workload](env, args.seed, args.seconds, clock)
        finally:
            clock.release()
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(res, setup, reference=True).items()}
        for name, value in end_to_end(res, setup, reference=False).items():
            print(f"# measured here: {name} = {value:.6g} {END_TO_END[name]}")
        print(f"# calibration kernel: median {statistics.median(clock.kernel_s) * 1e3:.4g} ms "
              f"over {len(clock.kernel_s)} samples (reference {CAL_REFERENCE_S * 1e3:g} ms)")
        n = len(res.walls)
        print(f"# samples: requests={res.attempted} setup_spawns={len(setup)} "
              f"elapsed_s={res.elapsed:.3f}")
        # p90 is the highest percentile reported, and only when at least ten
        # samples lie beyond it.
        if n >= 100:
            print(f"# measured here: latency_p90_s = "
                  f"{statistics.quantiles(res.walls, n=10)[-1]:.6g} s (n={n})")
        else:
            print(f"# latency_p90_s omitted: n={n} < 100")
    failed = len(res.failures)
    print(f"# failed_ratio = {failed / res.attempted:.6g} ({failed}/{res.attempted})")
    for failure in res.failures[:10]:
        print(f"# FAILED: {failure}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": res.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
