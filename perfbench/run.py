#!/usr/bin/env python3
"""phicon benchmark: run one workload, check its output, print its metrics.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports phicon from ``src/``. One
run sets the workload up at least three times and for at least four
seconds (``setup_s`` is the median), runs a warm-up op where the workload
has one, then repeats the op for ``--seconds`` (at least once) and reports
the median op time. Every op's output is checked; a failed check or an
exception counts the op as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` sets up once
under the tracer, then alternates untraced and traced ops, and prints the
per-layer metrics of ``layers.py`` (per set-up plus one op) and
``trace.overhead_pct``; spans go to ``perfbench/out/trace-*.jsonl``.
Each run appends its full record (samples, quartiles, output digests,
environment) to ``--out``. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

``--workload all`` runs every workload in its own fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from compare import count_key, load
from layers import METRICS, RUN_METRICS, TARGETS, counts, per_layer
from tracing import Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# Set-ups are repeated for a steadier median: one takes 0.15-2 s.
SETUPS = 3
SETUP_SECONDS = 4.0

# Name, unit and direction of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tok_per_s", "tok/s"),
    ("peak_rss_mb", "MB"),
)


def summary(samples) -> dict:
    """Median, quartiles and count of a list of numbers."""
    s = sorted(samples)
    if not s:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, _, q3 = statistics.quantiles(s, n=4) if len(s) > 1 else (s[0],) * 3
    return {"median": statistics.median(s), "q1": q1, "q3": q3, "n": len(s)}


def _git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    """Digest of the program's sources, so results name the code they ran
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "phicon")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".txt", ".tsv")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode("utf-8") + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload_seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _in_child(fn, *args):
    """fn(*args) in a forked child process, so that the memory it uses stays
    out of this process's peak RSS; the result comes back as JSON."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            with os.fdopen(write_end, "w", encoding="utf-8") as f:
                json.dump(fn(*args), f)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("set-up failed in its child process")
    return json.loads(data)


class Runner:
    """One run of one workload: set-up, ops, checks, and the record."""

    def __init__(self, workload, seed: int, seconds: float, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.quality: dict = {}

    def attempt(self, state, tracer=None, targets=()):
        """Run and check one op; returns its seconds, or None if it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                raw = self.workload.op(state)
                elapsed = time.perf_counter() - t0
            else:
                with installed(tracer, targets):
                    t0 = time.perf_counter()
                    with tracer.span("bench.op"):
                        raw = self.workload.op(state)
                    elapsed = time.perf_counter() - t0
            outcome = self.workload.outcome(state, raw)
        except Exception as e:  # an op failure is counted, not fatal
            from workloads import CheckFailed
            detail = (str(e) if isinstance(e, CheckFailed)
                      else traceback.format_exc(limit=8))
            self.failed += 1
            self.errors.append(detail)
            print(f"op {self.attempted} failed: {detail}", file=sys.stderr)
            return None
        self.digests.append(outcome.digest)
        self.quality = outcome.quality
        return elapsed

    def timed_loop(self, body) -> None:
        """Call body() for --seconds, at least once."""
        start = time.perf_counter()
        while True:
            body()
            if time.perf_counter() - start >= self.seconds:
                return

    def setups(self) -> tuple[dict, list[float]]:
        """Set the workload up SETUPS times, and again until SETUP_SECONDS
        have passed; returns the last state and the seconds of each."""
        w = self.workload
        times: list[float] = []
        start = time.perf_counter()
        while (len(times) < SETUPS
               or time.perf_counter() - start < SETUP_SECONDS):
            t0 = time.perf_counter()
            if w.setup_in_child:
                state = _in_child(w.setup, self.seed, self.workdir)
            else:
                state = w.setup(self.seed, self.workdir)
            times.append(time.perf_counter() - t0)
        return state, times

    def run_plain(self) -> dict:
        state, setup_times = self.setups()
        rss_setup = _maxrss_mb()
        for _ in range(self.workload.warmup):
            self.attempt(state)
        walls: list[float] = []

        def body():
            elapsed = self.attempt(state)
            if elapsed is not None:
                walls.append(elapsed)

        self.timed_loop(body)
        wall = summary(walls)
        tokens = state["tokens"]
        rss_mb = _maxrss_mb()
        values = {
            "setup_s": summary(setup_times)["median"],
            "wall_s": wall["median"],
            "tok_per_s": tokens / wall["median"] if wall["median"] else 0.0,
            "peak_rss_mb": rss_mb,
        }
        return {"metrics": values, "tokens": tokens,
                "rss_mb": {"after_setup": rss_setup, "after_ops": rss_mb},
                "samples": {"setup_s": setup_times, "wall_s": walls},
                "summaries": {"setup_s": summary(setup_times),
                              "wall_s": wall}}

    def run_traced(self) -> dict:
        setup_tracer = Tracer()
        with installed(setup_tracer, TARGETS) as absent:
            with setup_tracer.span("bench.setup"):
                state = self.workload.setup(self.seed, self.workdir)
        for _ in range(self.workload.warmup):
            self.attempt(state)
        plain: list[float] = []
        traced: list[float] = []
        tracers = []

        def body():
            elapsed = self.attempt(state)
            if elapsed is not None:
                plain.append(elapsed)
            tracer = Tracer()
            elapsed = self.attempt(state, tracer, TARGETS)
            if elapsed is not None:
                traced.append(elapsed)
                tracers.append(tracer)

        self.timed_loop(body)
        if not tracers:
            tracers = [Tracer()]
        elif any(counts(t) != counts(tracers[0]) for t in tracers[1:]):
            self.errors.append("per-layer counts differ between traced ops")
        values, missing = per_layer(setup_tracer, tracers, absent)
        for name, *_ in RUN_METRICS:
            values[name] = self.quality.get(name, 0.0)
        p, t = summary(plain)["median"], summary(traced)["median"]
        values["trace.overhead_pct"] = (t / p - 1) * 100 if p else 0.0
        units = {m.name: m.unit for m in METRICS}
        units.update((name, unit) for name, unit, *_ in RUN_METRICS)
        return {"metrics": values, "units": units, "absent": missing,
                "not_applicable": [n for n, *_ in RUN_METRICS
                                   if n != "trace.overhead_pct"
                                   and n not in self.quality],
                "tokens": state["tokens"],
                "counts": {"setup": counts(setup_tracer),
                           "op": counts(tracers[0])},
                "samples": {"wall_s": plain, "traced_wall_s": traced},
                "summaries": {"wall_s": summary(plain),
                              "traced_wall_s": summary(traced)},
                "tracers": [setup_tracer] + tracers}


def write_spans(path: str, tracers) -> None:
    """The set-up's spans, then each traced op's, tagged by phase."""
    with open(path, "w", encoding="utf-8") as f:
        for i, tracer in enumerate(tracers):
            phase = f"op{i}" if i else "setup"
            for rec in tracer.records():
                rec["phase"] = phase
                f.write(json.dumps(rec) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  tokens {record['tokens']}  "
          f"ops {record['attempted']} (failed {record['failed']})")
    summaries = record["summaries"]
    metrics = record["result"]["metrics"]
    for name, value in metrics.items():
        note = ""
        if name in summaries:
            s = summaries[name]
            note = (f"  median; q1 {_fmt(s['q1'])}  q3 {_fmt(s['q3'])}  "
                    f"n={s['n']}")
        elif name in record.get("absent", ()):
            note = "  (absent: the function no longer exists)"
        elif name in record.get("not_applicable", ()):
            note = "  (not produced by this workload)"
        print(f"  {name:<44} {_fmt(value['value'])} {value['unit']}{note}")
    for name, s in summaries.items():
        if name not in metrics:
            print(f"  {name:<44} {_fmt(s['median'])} s  median; "
                  f"q1 {_fmt(s['q1'])}  q3 {_fmt(s['q3'])}  n={s['n']}")
    if "rss_mb" in record:
        rss = record["rss_mb"]
        raised = "yes" if rss["after_ops"] > rss["after_setup"] else "no"
        print(f"  {'peak RSS after set-up':<44} {_fmt(rss['after_setup'])} MB"
              f"  (the ops raised the peak: {raised})")
    print(f"  {'error_rate':<44} {_fmt(record['error_rate'])} "
          f"({record['failed']} of {record['attempted']} ops failed)")
    if not record["trace"]:
        for name, value in record["quality"].items():
            print(f"  {name.split('.')[-1]:<44} {value:.6f} micro-F1")
    print(f"  output digest {', '.join(sorted(set(record['digests'])))}")


def counts_differ(path: str, record: dict) -> list[str]:
    """Per-layer counts are deterministic: a traced run must record the same
    counts as every earlier traced run of the same workload, seed and
    sources in the results file. Returns one message per run that differs."""
    if not os.path.exists(path):
        return []
    key = count_key(record)
    return [f"per-layer counts differ from the traced run started at "
            f"{r['started_at']}"
            for r in load(path)
            if r["trace"] and "counts" in r and count_key(r) == key
            and r["counts"] != record["counts"]]


def run_one(args, workload) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = environment(args.seed)
    started = time.time()
    runner = Runner(workload, args.seed, args.seconds, workdir)
    try:
        body = runner.run_traced() if args.trace else runner.run_plain()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    tracers = body.pop("tracers", None)
    if tracers:
        write_spans(os.path.join(
            OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl"), tracers)
    units = body.pop("units", dict(END_TO_END))
    metrics = body.pop("metrics")
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "started_at": started, "env": env, **body}
    if args.trace:
        runner.errors.extend(counts_differ(args.out, record))
    failed, attempted = runner.failed, runner.attempted
    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(attempted=attempted, failed=failed,
                  error_rate=failed / attempted, errors=runner.errors,
                  digests=runner.digests, quality=runner.quality,
                  result=result)
    with open(args.out, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT_DIR,
                                                      "results.jsonl"))
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "phicon", "__init__.py")):
        print(f"error: no phicon sources under {SRC}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
