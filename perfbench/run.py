"""leafgauge benchmark.

    python3 perfbench/run.py --workload {verified_build,cold_eval,admit,all}
                             --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop with one caller for about S seconds
(whole rotations of the input mix), checks every result, and prints a
human-readable block followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` metrics of
BENCHMARK.json; with `--trace 1` they are its `per_layer` metrics.  A
traced run alternates untraced and traced rotations of the same input
mix, so it also reports the tracing overhead.  Details of every run,
including failing inputs and the host calibration loop, go to
`.perfbench/<workload>-seed<N>-trace<T>.json`; traced runs also write
their spans to `.perfbench/<workload>-seed<N>-spans.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import tracing
from workloads import WORKLOADS, ProgramMissing, import_program

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Workload-specific names of the generic end-to-end metrics in the printed block.
ALIASES = {
    "verified_build": ("builds_per_s", "build"),
    "cold_eval": ("evals_per_s", "eval"),
    "admit": ("admits_per_s", "admit"),
}


class SetupFailed(Exception):
    pass


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: a host-drift diagnostic that
    is recorded beside the metrics and never used to normalise them."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_500_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def quantile(xs, q: float) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start -> ready to run the first op, in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupFailed(f"set-up process exited {proc.returncode}: {err.strip()}")
        samples.append(dt)
    return samples


class OpLog:
    """Per-op timings in compact arrays, so that the harness adds little to
    the peak RSS it reports, however many ops a run makes."""

    def __init__(self, cycle: int):
        self.cycle = cycle
        self.dt = array("d")
        self.cls = array("H")
        self.traced = array("b")
        self.classes: list[str] = []
        self._index: dict[str, int] = {}
        self.failures: list[dict] = []

    def add(self, group: str, dt: float, traced: bool) -> None:
        k = self._index.get(group)
        if k is None:
            k = self._index[group] = len(self.classes)
            self.classes.append(group)
        self.dt.append(dt)
        self.cls.append(k)
        self.traced.append(traced)

    def select(self, traced: bool) -> list[int]:
        return [i for i, t in enumerate(self.traced) if t == traced]

    def summary(self, idx: list[int]) -> dict:
        """Throughput as ops per rotation over the median busy time of a
        whole rotation, so a burst of host noise in one rotation moves it
        less than a mean would.  Latency as the median of each input class
        (fixture, or shape of f), weighted by the class's share of the ops:
        the median of all ops falls in a gap between classes of very
        different cost.  Plain percentiles over all ops are given beside."""
        dts = [self.dt[i] for i in idx]
        rotations, classes = {}, {}
        for i in idx:
            r = i // self.cycle
            rotations[r] = rotations.get(r, 0.0) + self.dt[i]
            classes.setdefault(self.classes[self.cls[i]], []).append(self.dt[i])
        return {
            "n": len(dts),
            "rotations": len(rotations),
            "ops_per_s": self.cycle / statistics.median(rotations.values()),
            "op_ms_class_p50": 1e3 * sum(len(v) * statistics.median(v)
                                         for v in classes.values()) / len(dts),
            "op_ms_p50": 1e3 * statistics.median(dts),
            "op_ms_p90": 1e3 * quantile(dts, 0.90),
            "op_ms_p99": 1e3 * quantile(dts, 0.99),
            "classes": {g: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)}
                        for g, v in sorted(classes.items())},
        }


def closed_loop(wl, seconds: float, traced_run: bool):
    """One caller, next op after the previous completes.  Runs whole
    rotations of the input mix and stops at the rotation boundary nearest to
    `seconds`; a traced run alternates untraced and traced rotations and
    runs at least one of each."""
    tracer = tracing.Tracer() if traced_run else None
    in_process = wl.name != "verified_build"
    log, records = OpLog(wl.cycle), []
    i = 0
    traced = False
    t_start = time.perf_counter()
    try:
        while True:
            if i % wl.cycle == 0:
                rotation = i // wl.cycle
                elapsed = time.perf_counter() - t_start
                if (rotation >= (2 if traced_run else 1)
                        and elapsed + 0.5 * elapsed / rotation >= seconds):
                    break
                was, traced = traced, traced_run and rotation % 2 == 1
                if in_process and traced and not was:
                    tracer.install()
                elif in_process and was and not traced:
                    tracer.uninstall()
            inp = wl.next_input(i)
            if traced and in_process:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                res, err = wl.run(inp, traced), None
            except Exception as exc:  # an op that raises is a failed op
                res, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if traced and in_process:
                tracer.op = -1
            if err is None:
                err = wl.check(inp, res)
            if traced and not in_process and res is not None and res["spans"].exists():
                base = len(records)
                for r in tracing.load_records(res["spans"]):
                    if r[tracing.PARENT] >= 0:
                        r[tracing.PARENT] += base
                    records.append(r)
                res["spans"].unlink()
            log.add(wl.group(inp), dt, traced)
            if err:
                log.failures.append({"op": i, "class": wl.group(inp),
                                     "input": wl.describe(inp), "error": err})
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None and in_process:
        records = tracing.op_records(tracer.records())
    return log, records


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl_cls = WORKLOADS[args.workload]
    import_program(ROOT)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    try:
        calib_before = calibrate()
        setup = measure_setup(args.workload, args.seed)
        wl = wl_cls(ROOT, args.seed, workdir)
        log, records = closed_loop(wl, args.seconds, bool(args.trace))
        finals = wl.final_ops()
        rss = peak_rss_mb(with_children=args.workload == "verified_build")
        self_test = wl.self_test()
        calib_after = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = log.failures + [{"op": None, "class": name, "input": name, "error": err}
                               for name, err in finals if err]
    attempted = len(log.dt) + len(finals)
    self_test_ok = all(rejected for _, rejected in self_test)
    untraced, traced = log.select(False), log.select(True)
    s = log.summary(untraced)
    group_ms = s["classes"]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "ops_per_s": s["ops_per_s"],
        "op_ms_class_p50": s["op_ms_class_p50"],
        "peak_rss_mb": rss,
    }

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}  closed loop, 1 client"]
    per_layer = None
    if args.trace:
        t_tr = sum(log.dt[i] for i in traced)
        per_layer = tracing.layer_metrics(
            records, len(traced), t_tr,
            report_skip=tuple(getattr(wl, "report_skip", (0, 0))),
            report_bytes=getattr(wl, "report_bytes", 0))
        op_tr = t_tr / len(traced)
        op_un = sum(log.dt[i] for i in untraced) / len(untraced)
        per_layer["trace.op_s"] = op_tr
        per_layer["trace.untraced_op_s"] = op_un
        per_layer["trace.overhead_s"] = op_tr - op_un
        layer_sum = sum(per_layer[f"{layer}.self_s"] for layer in tracing.LAYERS)
        lines.append(f"  traced ops {len(traced)}, untraced ops {len(untraced)}, spans {len(records)}")
        lines.append(f"  per op: layer self times {layer_sum:.6f} s + unspanned "
                     f"{per_layer['trace.unspanned_s']:.6f} s = traced {op_tr:.6f} s; "
                     f"untraced {op_un:.6f} s; tracing overhead {op_tr - op_un:+.6f} s "
                     f"({(op_tr - op_un) / op_un:+.1%})")
        for name in sorted(per_layer):
            lines.append(f"  {name:40s} {per_layer[name]:.6g}")
        tracing.write_records(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", records)
    else:
        per_s, prefix = ALIASES[args.workload]
        n = s["n"]
        lines.append(f"  {per_s:24s} {s['ops_per_s']:10.4f} 1/s  (n={n} ops in "
                     f"{s['rotations']} rotations of {wl.cycle})  [ops_per_s]")
        lines.append(f"  {prefix + '_ms_class_p50':24s} {s['op_ms_class_p50']:10.4f} ms   "
                     f"(n={n}, {len(group_ms)} classes)  [op_ms_class_p50]")
        for q in ("p50", "p90", "p99"):
            lines.append(f"  {prefix + '_ms_' + q:24s} {s['op_ms_' + q]:10.4f} ms   (n={n})")
        for g, v in group_ms.items():
            if args.workload == "verified_build":
                lines.append(f"  {'build_s.' + g:24s} {v['p50_ms'] / 1e3:10.4f} s    "
                             f"(median, n={v['n']})")
            else:
                lines.append(f"  {prefix + '_ms_p50.' + g:24s} {v['p50_ms']:10.4f} ms   "
                             f"(n={v['n']})")
    lines.append(f"  {'fail_ratio':24s} {len(failures) / attempted:10.4f}      "
                 f"({len(failures)}/{attempted} ops)")
    lines.append(f"  {'setup_s':24s} {end_to_end['setup_s']:10.4f} s    "
                 f"(median of {len(setup)} fresh processes)  [setup_s]")
    lines.append(f"  {'peak_rss_mb':24s} {rss:10.1f} MB   [peak_rss_mb]")
    lines.append(f"  host calibration loop {calib_before:.4f} s before, {calib_after:.4f} s after "
                 f"(diagnostic only, never used to normalise)")
    lines.append("  self-test: " + ", ".join(
        f"{name} {'rejected' if ok else 'ACCEPTED'}" for name, ok in self_test))
    for f in failures[:10]:
        lines.append(f"  FAILED op {f['op']} [{f['class']}] {f['input']}: {f['error']}")
    print("\n".join(lines))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "end_to_end": end_to_end, "summary": s,
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "self_test": self_test, "per_layer": per_layer,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures and self_test_ok, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    args = parser.parse_args()
    try:
        if args.setup_only:
            workdir = OUT / f"setup-{args.workload}-{args.seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                WORKLOADS[args.workload](ROOT, args.seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (ProgramMissing, SetupFailed) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
