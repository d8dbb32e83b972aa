"""Time-to-verdict benchmark for the qqsystems command-line interface.

Run from the repository root, for example:

    python3 perfbench/run.py --workload generic-lift --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``generic-lift``, ``tropical-matrix`` and
``ramified-lift``.  Each is a fixed list of ``solve`` / ``tropical`` calls
through ``qqsystems.cli.main``, run one at a time in a single worker process
(``worker.py``: a closed loop with one client).  One pass runs the list once;
a run makes passes while a further pass still fits in ``--seconds`` (at
least one).

``--trace 0`` prints the end-to-end metrics: ``scaled_cpu_s`` (median over
passes of the summed per-operation CPU times of the worker, each scaled to
the reference speed), ``decided_frac``, ``verdict_ok_frac``, ``setup_s``
(median scaled CPU time of several fresh-interpreter runs of the workload's
smallest operation) and ``peak_rss_mb`` of the worker.

Times are CPU times scaled by ``speed.py``: on a few cores of a shared host
the CLI's wall time also counts the time it waits for a core, and its CPU
time drifts by up to a factor of two over minutes as other tenants load the
host.  Scaled to a reference computation sampled during each operation, the
same calls measure alike minutes apart.  Per-operation wall and raw CPU
times are kept in the run context.

``--trace 1`` makes one untraced and one traced pass, checks that their
reports agree, and prints the per-layer metrics of the traced pass.

The last line of standard output is the result object; the line before it
holds the run context, which is also written, with the spans of a traced
run, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import List, Optional

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
SETUP_LIMIT_S = 30.0  # for all set-up runs together
# no operation starts after this many seconds of a run, and a running one is
# stopped there, so that the run ends well within 180 s
RUN_LIMIT_S = 160.0
# slack for the spec write and the reply on top of an operation's budget
REPLY_GRACE_S = 2.0
WORKER_START_S = 30.0


class Runner:
    """Runs operations in one worker process, replacing it after a stop."""

    def __init__(self, work_dir: Path, started: float):
        self.work_dir = work_dir
        self.started = started
        self.peak_kb = 0
        self._proc = None
        self._start()

    def _start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC),
             str(self.work_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._reply(WORKER_START_S) is None:
            self._stop(kill=True)
            raise RuntimeError("worker did not start")

    def _reply(self, timeout: float) -> Optional[dict]:
        """The worker's next reply line, or None on timeout or exit."""
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        line = self._proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def _sample_rss(self) -> None:
        try:
            status = f"/proc/{self._proc.pid}/status"
            with open(status, encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        except OSError:
            pass

    def _stop(self, kill: bool) -> None:
        if not kill:
            self._proc.stdin.close()  # end of input ends the worker
            try:
                self._proc.wait(10)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            self._proc.kill()
            self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            pipe.close()

    def close(self) -> None:
        if self._proc is not None:
            self._stop(kill=False)
            self._proc = None

    def run(self, op_id: int, op: workloads.Op, traced: bool) -> dict:
        """Run one operation; status is decided, timeout or error."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            return {"status": "timeout", "exit": None, "wall_s": op.budget_s,
                    "cpu_s": op.budget_s, "scaled_s": op.budget_s,
                    "stdout": "", "error": "run time limit reached",
                    "spans": []}
        self._proc.stdin.write(json.dumps({"op": op_id, "cmd": op.cmd,
                                           "spec": op.spec,
                                           "traced": traced}) + "\n")
        self._proc.stdin.flush()
        reply = self._reply(min(op.budget_s, remaining) + REPLY_GRACE_S)
        self._sample_rss()
        if reply is None:
            # a stuck or dead worker cannot be trusted: replace it
            died = self._proc.poll() is not None
            self._stop(kill=True)
            self._start()
            return {"status": "error" if died else "timeout", "exit": None,
                    "wall_s": op.budget_s, "cpu_s": op.budget_s,
                    "scaled_s": op.budget_s, "stdout": "", "spans": [],
                    "error": "worker died" if died else "budget exceeded"}
        if reply["wall"] > op.budget_s:
            reply.update(status="timeout", wall_s=op.budget_s,
                         cpu_s=op.budget_s, scaled_s=op.budget_s, spans=[])
        else:
            status = "decided" if reply["error"] is None else "error"
            reply.update(status=status, wall_s=reply["wall"],
                         cpu_s=reply["cpu"],
                         scaled_s=reply["cpu"] * reply["speed"])
        return reply


def run_in_process(work_dir: Path):
    """``run_cli(cmd, spec) -> (exit code, report)`` for the self-test."""
    from qqsystems import cli

    def run_cli(cmd: str, spec: dict):
        path = work_dir / "self-test.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([cmd, str(path)])
        return code, json.loads(out.getvalue())
    return run_cli


def run_pass(runner: Runner, ops, pass_no: int, traced: bool, oracle):
    results = []
    for i, op in enumerate(ops):
        res = runner.run(pass_no * len(ops) + i, op, traced)
        report, problems = None, []
        if res["status"] == "decided":
            try:
                report = json.loads(res["stdout"])
            except json.JSONDecodeError:
                res["status"] = "error"
                problems = ["output is not a JSON report"]
            else:
                problems = check.verdict_problems(op.expect, op.spec,
                                                  res["exit"], report, oracle)
        elif res["error"]:
            problems = [res["error"].strip().splitlines()[-1]]
        results.append({"pass": pass_no, "label": op.label, "cmd": op.cmd,
                        "traced": traced, "status": res["status"],
                        "exit": res["exit"], "wall_s": res["wall_s"],
                        "cpu_s": res["cpu_s"], "scaled_s": res["scaled_s"],
                        "ok": res["status"] == "decided" and not problems,
                        "problems": problems, "report": report,
                        "spans": res["spans"]})
    return results


def measure_setup(op: workloads.Op, work_dir: Path):
    """Fresh-interpreter scaled CPU times (s) of the CLI on ``op``; problems.

    Each set-up run is ``setup_probe.py`` in a new interpreter, which samples
    the speed from its start, imports ``qqsystems`` and runs ``op`` once.
    """
    path = work_dir / "setup.json"
    path.write_text(json.dumps(op.spec), encoding="utf-8")
    times, problems = [], []
    deadline = time.perf_counter() + SETUP_LIMIT_S
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                 op.cmd, str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=max(deadline - start, 0.1), check=False)
        except subprocess.TimeoutExpired:
            times.append(time.perf_counter() - start)  # bounds its CPU time
            problems.append(f"set-up runs exceeded {SETUP_LIMIT_S} s")
            break
        try:
            probe = json.loads(proc.stdout)
        except json.JSONDecodeError:
            times.append(time.perf_counter() - start)
            problems.append(f"set-up run failed with exit {proc.returncode}")
            break
        times.append(probe["cpu"] * probe["speed"])
        if probe["exit"] != op.expect["exit"]:
            problems.append(f"set-up run exited {probe['exit']}")
    return times, problems


def consistency_problems(passes) -> List[str]:
    """Reports of one operation must not differ between passes (bar timing)."""
    problems = []
    for later in passes[1:]:
        for ref, res in zip(passes[0], later):
            if ref["status"] == res["status"] == "decided" and \
                    check.deterministic(ref["report"]) != \
                    check.deterministic(res["report"]):
                kind = "traced" if res["traced"] else "repeated"
                problems.append(f"{kind} report differs: {res['label']}")
    return problems


def run_context(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qqsystems").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "commit": commit,
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "nproc": os.cpu_count()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def benchmark(args, work_dir: Path, started: float):
    ops = workloads.build(args.workload, args.seed)
    context = run_context(args)
    runner = Runner(work_dir, started)
    try:
        oracle = check.make_oracle(None)
        self_test = check.self_test(run_in_process(work_dir), oracle)
        numeric_spans: list = []
        if args.trace:
            passes = [run_pass(runner, ops, 0, False, oracle),
                      run_pass(runner, ops, 1, True,
                               check.make_oracle(numeric_spans))]
        else:
            setup_times, setup_problems = measure_setup(
                workloads.probe(ops), work_dir)
            passes = []
            measuring = time.monotonic()
            while True:
                passes.append(run_pass(runner, ops, len(passes), False,
                                       oracle))
                spent = time.monotonic() - measuring
                if spent + spent / len(passes) > args.seconds:
                    break
    finally:
        runner.close()

    results = [r for p in passes for r in p]
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    cpus = [sum(r["cpu_s"] for r in p) for p in passes]
    scaled = [sum(r["scaled_s"] for r in p) for p in passes]
    failed = sum(1 for r in results
                 if r["status"] == "error" or
                 (r["status"] == "decided" and not r["ok"]))
    consistency = consistency_problems(passes)
    problems = self_test + consistency
    if args.trace:
        metrics = spans.layer_metrics([r["spans"] for r in passes[1]] +
                                      [numeric_spans])
        metrics["trace.overhead_s"] = scaled[1] - scaled[0]
        metrics = {k: _metric(v, spans.unit_of(k))
                   for k, v in metrics.items()}
    else:
        problems += setup_problems
        n = len(results)
        metrics = {
            "scaled_cpu_s": _metric(statistics.median(scaled), "s"),
            "decided_frac": _metric(
                sum(r["status"] == "decided" for r in results) / n, "ratio"),
            "verdict_ok_frac": _metric(sum(r["ok"] for r in results) / n,
                                       "ratio"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(runner.peak_kb / 1024, "MiB"),
        }
        context["setup_runs_s"] = setup_times
    context["pass_wall_s"] = walls
    context["pass_cpu_s"] = cpus
    context["pass_scaled_cpu_s"] = scaled
    context["problems"] = problems
    context["ops"] = [{k: r[k] for k in ("pass", "label", "cmd", "traced",
                                         "status", "exit", "wall_s", "cpu_s",
                                         "scaled_s", "ok", "problems")}
                       for r in results]
    result = {"correct": not problems and failed == 0,
              "attempted": len(results), "failed": failed, "metrics": metrics}
    record = dict(context, result=result)
    if args.trace:
        record["spans"] = [r["spans"] for r in passes[1]] + [numeric_spans]
    return result, context, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qqsystems" / "cli.py").is_file():
        print(f"perfbench: no qqsystems sources in {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, context, record = benchmark(args, work_dir, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
