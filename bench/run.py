"""The idealtri benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload bundles --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``idealtri`` from
``src/``.  Every op goes through ``idealtri.cli.run`` in this process:
one client, closed loop, one thread.  With ``--trace 0`` it repeats
whole passes over the workload's calls for about ``--seconds`` seconds
and reports the end-to-end metrics; with ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics.  Every
output is checked.  The last stdout line is the result; a fuller record
goes to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
MIN_PASSES = 2

# Times a fresh interpreter's import of idealtri plus the warm-up calls,
# scaled to the reference speed by reference loops run around them.
SETUP_CODE = """
import io, json, statistics, sys, time
sys.path.insert(0, sys.argv[3])
from speed import REF_MS, loop_ms
before = [loop_ms() for _ in range(3)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from idealtri import cli
for argv in json.loads(sys.argv[2]):
    cli.run(argv, io.StringIO())
elapsed = time.perf_counter() - t0
after = [loop_ms() for _ in range(3)]
print(elapsed * REF_MS / statistics.median(before + after))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["census-report", "bundles", "minsearch",
                                 "enumerate"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "idealtri", "cli.py")):
        print(f"bench: no idealtri sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from idealtri import cli

    import spans
    import speed
    import workloads

    os.makedirs(OUT, exist_ok=True)
    corpus = workloads.load_corpus()
    calls = workloads.build_calls(args.workload, args.seed, corpus, OUT)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": workloads.inputs_digest(calls),
              "calls_per_pass": len(calls),
              "ops_per_pass": sum(c.ops for c in calls),
              "machine": run_record()}
    warmup = workloads.WARMUP[args.workload]
    for w in warmup:
        cli.run(w, io.StringIO())

    runner = Runner(cli, workloads, args.workload, calls)
    if args.trace:
        metrics = traced_run(runner, speed, spans, record)
    else:
        metrics = timed_run(runner, speed, args.seconds, warmup, record)
    runner.check_invariants()

    record.update(runner.summary())
    record["metrics"] = metrics
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in human_lines(record):
        print("# " + line)
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics}, sort_keys=True))
    return 0


class Runner:
    """Runs passes over the calls and keeps each op's verdict."""

    def __init__(self, cli, workloads, workload, calls):
        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.calls = calls
        self.verdicts = []              # per pass: per call: per op verdict
        self.first_text = [None] * len(calls)
        self.reasons = {}               # call index -> first failure reason
        self.windows = []               # per probed pass: per call: samples

    def run_pass(self, tracer=None, probe=None):
        """One pass; returns (per-call durations, per-call outputs).

        With a probe, the reference loop runs before each call, after
        the last one and, if the probe's timer is on, inside long calls;
        the durations leave out the timer's samples, and
        ``self.windows`` gets each call's first and last sample index."""
        durations = []
        texts = []
        verdicts = []
        firsts = []
        if probe is not None:
            probe.start_timer()
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.current_op = i
            out = io.StringIO()
            exc = None
            if probe is not None:
                probe.sample()
                firsts.append(len(probe.samples) - 1)
                inside0 = probe.inside_s
            t0 = perf_counter()
            try:
                rc = self.cli.run(call.argv, out)
            except Exception as e:      # an escaped exception is a failed op
                rc, exc = None, e
            dt = perf_counter() - t0
            if probe is not None:
                dt -= probe.inside_s - inside0
            text = out.getvalue()
            verdict = self.workloads.check_call(call, rc, text, exc)
            if exc is not None:
                self.reasons.setdefault(i, f"raised {type(exc).__name__}")
            elif any(v != self.workloads.OK for v in verdict):
                self.reasons.setdefault(i, f"exit {rc}, output differs "
                                           "from golden or is not JSON")
            if self.first_text[i] is None and exc is None and rc == 0:
                self.first_text[i] = text
            durations.append(dt)
            texts.append(text)
            verdicts.append(verdict)
        if probe is not None:
            probe.sample()
            probe.stop_timer()
            firsts.append(len(probe.samples) - 1)
            self.windows.append(list(zip(firsts, firsts[1:])))
        self.verdicts.append(verdicts)
        return durations, texts

    def mark_wrong(self, i, reason):
        for verdicts in self.verdicts:
            verdicts[i] = [self.workloads.WRONG] * self.calls[i].ops
        self.reasons.setdefault(i, reason)

    def check_invariants(self):
        for i, call in enumerate(self.calls):
            text = self.first_text[i]
            if text is None:
                continue
            try:
                holds = self.workloads.check_invariants(self.workload, call,
                                                        text)
            except (ValueError, KeyError, TypeError):
                holds = False
            if not holds:
                self.mark_wrong(i, "paper invariant violated")

    def count(self, verdict):
        return sum(v.count(verdict) for p in self.verdicts for v in p)

    def summary(self):
        attempted = sum(len(v) for p in self.verdicts for v in p)
        ok = self.count(self.workloads.OK)
        failures = [{"argv": self.calls[i].argv, "reason": r,
                     "failed_ops_per_pass": self.calls[i].ops
                     - self.verdicts[0][i].count(self.workloads.OK)}
                    for i, r in sorted(self.reasons.items())]
        return {"passes": len(self.verdicts), "attempted": attempted,
                "failed": attempted - ok,
                "wrong": self.count(self.workloads.WRONG),
                "failed_ratio": (attempted - ok) / attempted,
                "failed_distinct": sum(f["failed_ops_per_pass"]
                                       for f in failures),
                "failures": failures}


def timed_run(runner, speed, seconds, warmup, record):
    """At least MIN_PASSES whole passes, then more until the next would
    end after ``seconds``.

    On a shared machine other tenants slow this one down by up to a
    factor of two, for stretches from milliseconds to minutes.  So each
    call's time is scaled to the reference speed by the loop timings
    around it (see speed.py), each call is charged its median scaled
    time over the passes, and the set-up samples are scaled the same
    way and taken in pairs between passes rather than all at once.
    """
    probe = speed.Probe()
    passes = []
    setup = []
    wall0 = perf_counter()
    while True:
        if len(setup) < SETUP_SAMPLES:
            setup += [measure_setup(warmup), measure_setup(warmup)]
        pass0 = perf_counter()
        passes.append(runner.run_pass(probe=probe)[0])
        now = perf_counter()
        if (len(passes) >= MIN_PASSES
                and now - wall0 + (now - pass0) > seconds):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(warmup))
    scaled = [scaled_durations(probe, d, w)
              for d, w in zip(passes, runner.windows)]
    per_call = [statistics.median(col) for col in zip(*scaled)]
    samples = []
    for call, dt in zip(runner.calls, per_call):
        # A census batch reports all its lines at the end, so each line
        # is charged the batch's mean time per line.
        if call.in_latency:
            samples += [dt / call.ops * 1e3] * call.ops
    completed_per_pass = runner.count(runner.workloads.OK) / len(passes)
    record["pass_s"] = [sum(d) for d in passes]
    record["scaled_pass_s"] = [sum(d) for d in scaled]
    record["reference_loop_ms"] = statistics.median(probe.samples)
    record["latency_samples"] = len(samples)
    record["setup_samples_s"] = setup
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 \
        else samples[0]
    return {
        "ops_per_s": {"value": completed_per_pass / sum(per_call),
                      "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(samples), "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def traced_run(runner, speed, spans, record):
    """A traced pass between two untraced passes over the same calls;
    the untraced passes bracket it, and all three are scaled by loops
    run between calls, so that a drift in machine speed does not show
    as tracing overhead.  The probe's timer stays off here, so that no
    loop runs inside a span."""
    probe = speed.Probe(timer=False)
    before, untraced = runner.run_pass(probe=probe)
    tracer = spans.Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        during, traced = runner.run_pass(tracer, probe)
    finally:
        tracer.uninstall()
    after, _ = runner.run_pass(probe=probe)
    first, traced_busy, last = (
        sum(scaled_durations(probe, d, w))
        for d, w in zip((before, during, after), runner.windows))
    untraced_busy = (first + last) / 2
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if a != b:
            runner.mark_wrong(i, "traced output differs from untraced")
    per_function = tracer.per_function()
    values = tracer.layer_metrics(per_function, traced_busy / untraced_busy)
    stem = f"{record['workload']}-seed{record['seed']}"
    tracer.write(os.path.join(OUT, stem + "-spans.json.gz"), t0)
    record["untraced_busy_s"] = untraced_busy
    record["traced_busy_s"] = traced_busy
    record["spans"] = len(tracer.start)
    record["per_function"] = {k: {"calls": c, "self_s": s}
                              for k, (c, s) in sorted(per_function.items())}
    return {k: {"value": values[k], "unit": unit}
            for k, (unit, _) in spans.LAYER_METRICS.items()}


def scaled_durations(probe, durations, windows):
    return [dt * probe.scale(*w) for dt, w in zip(durations, windows)]


def measure_setup(warmup):
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, json.dumps(warmup), HERE],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT)
    return float(done.stdout.split()[-1])


def run_record():
    """Where and on what the numbers were taken; metadata, not metrics."""
    src_lines = 0
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                src_lines += data.count(b"\n")
                h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit(),
            "src_lines": src_lines,
            "src_sha256": h.hexdigest()[:16]}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout's own .git, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def human_lines(record):
    m = record["machine"]
    yield (f"{record['workload']} seed {record['seed']} inputs "
           f"{record['inputs_sha256']}: {record['passes']} pass(es) of "
           f"{record['calls_per_pass']} calls / {record['ops_per_pass']} ops")
    yield (f"python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}, "
           f"commit {m['git_commit']}, src {m['src_lines']} lines "
           f"({m['src_sha256']})")
    yield (f"attempted {record['attempted']}, failed {record['failed']} "
           f"({record['failed_distinct']} distinct ops, {record['wrong']} "
           f"wrong outputs), failed_ratio {record['failed_ratio']:.6f}")
    for f in record["failures"]:
        yield f"failed: {' '.join(f['argv'])}: {f['reason']}"
    for name, metric in record["metrics"].items():
        yield f"{name} = {metric['value']:.6g} {metric['unit']}"


if __name__ == "__main__":
    sys.exit(main())
