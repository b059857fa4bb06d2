"""Benchmark for wstskit: seeded model families run through the CLI.

    python3 bench/run.py --workload rrt-counter --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program runs from ``src/``
and the verdict checks use ``tests/oracles.py``.

``--trace 0`` is the end-to-end run.  One client runs the workload's
instances in a closed loop: one ``python -m wstskit`` subprocess at a
time, the next started when the previous has exited, instance after
instance for ``--seconds`` (each instance runs at least once, and an
invocation starts only if its previous run says it ends in time).  It prints

  setup_s       median time of one set-up: generate the model files (they
                must come out byte-identical each time) and make one
                warm-up CLI run with a one-node budget
  solve_s       sum over instances of the median time of one CLI
                invocation, interpreter start-up included
  decided_frac  share of invocations with a definite verdict (exit 0),
                each instance weighted equally
  peak_rss_mb   largest child ru_maxrss, from os.wait4

and beside them the failed share, the invocation count, the tail and the
raw wall-clock sums.  Both times are in reference seconds: each timed
span is bracketed by runs of ``reference.py``, a fixed pure-Python
workload, and scaled by REF_SECONDS over the mean of the two, so a host
that runs everything slower for a while (shared machines swing by 1.7x
within a minute) does not move them, while a slower program does.
``--trace 1`` is the per-layer run: the same instances in this process
through ``wstskit.cli.main``, alternating an untraced pass and a pass
with the layers wrapped from outside (see tracing.py).  Either run checks
every output (see checks.py), compares the exact work counts with
``counts.json`` and reports a changed count as a diff, not a failure.
The last line of standard output is the JSON result; a fuller record
with the environment goes to ``bench/out/``.  A wrong output makes the
run exit with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# Median wall time of one ``python3 bench/reference.py`` child on the host
# the benchmark was calibrated on (2-CPU Intel Xeon, Python 3.11.7), so a
# time in reference seconds reads about as seconds on that host.
REF_SECONDS = 0.32


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wstskit CLI benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/wstskit/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a wstskit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import families

    if args.workload == "all":
        workloads = families.WORKLOADS
    elif args.workload in families.WORKLOADS:
        workloads = (args.workload,)
    else:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(families.WORKLOADS)} or all")

    # one CPU for the program and the reference, so both see the same contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    records = [_run_workload(families, w, args.seed, args.seconds, args.trace)
               for w in workloads]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
        print("summary")
        for r in records:
            shown = {**r["metrics"], **{k: v for k, v in r["extra"].items() if k == "failed_frac"}}
            for name, m in shown.items():
                print(f"  {r['workload'] + '/' + name:36s} {m['value']:.6g} {m['unit']}")
    attempted = sum(len(r["runs"]) for r in records)
    failed = sum(not run["ok"] for r in records for run in r["runs"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _run_workload(families, workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    clock = HostClock()
    try:
        instances, setup_s, setup_wall_s = _setup(families, workload, seed, work / "models",
                                                  clock)
        if trace:
            result = _traced(instances, work, seconds, families.STRESSED[workload])
        else:
            result = _closed_loop(instances, work, seconds, clock)
            result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                                 **result["metrics"]}
            result["extra"]["setup_wall_s"] = {"value": setup_wall_s, "unit": "s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": {**_environment(), "reference_s": clock.refs},
              "instances": [i.key for i in instances], **result}
    _report(record)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


class HostClock:
    """Scales wall times to reference seconds.  ``scale(wall)`` runs the
    reference once more and scales ``wall`` by REF_SECONDS over the mean
    of the reference runs just before and just after it, so call it right
    after the timed span; consecutive spans share the run between them."""

    def __init__(self):
        self.refs: list[float] = []
        self._reference()

    def _reference(self) -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "reference.py")], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True)
        self.refs.append(time.perf_counter() - t)
        return self.refs[-1]

    def scale(self, wall: float) -> float:
        before = self.refs[-1]
        return wall * REF_SECONDS / ((before + self._reference()) / 2)


def _setup(families, workload: str, seed: int, models: Path, clock: HostClock):
    """Set up SETUP_REPEATS times and return the median time, in reference
    seconds and in wall seconds.  One set-up
    generates and writes the model files, checks that they come out
    byte-identical each time, and makes one warm-up CLI run with a one-node
    budget on the first model: interpreter start-up, imports and parsing,
    which the first run in a fresh checkout also pays to compile bytecode."""
    times, walls, first = [], [], None
    warm_args = ("check", "boundedness", "{model}", "--budget", "1", "--json")
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        instances = families.make_instances(workload, seed)
        models.mkdir(parents=True, exist_ok=True)
        for inst in instances:
            (models / f"{inst.stem}.model").write_text(inst.text, encoding="utf-8")
        digest = _digest(models)
        warm = families.Instance("warm-up", instances[0].stem, instances[0].text, warm_args)
        _, code, _, err, _ = _invoke(warm, models, models.parent / "warmup")
        walls.append(time.perf_counter() - t)
        times.append(clock.scale(walls[-1]))
        if first is not None and digest != first:
            raise SystemExit("bench: the same seed gave different model files")
        if code not in (0, 2):
            raise SystemExit(f"bench: warm-up run failed with exit {code}: {err}")
        first = digest
    return instances, statistics.median(times), statistics.median(walls)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _invoke(inst, models: Path, scratch: Path):
    """One CLI subprocess; returns (wall s, exit code, stdout, stderr, maxrss KiB)."""
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    argv = [sys.executable, "-m", "wstskit", *inst.argv(str(models / f"{inst.stem}.model"))]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), usage.ru_maxrss)


def _closed_loop(instances, work: Path, seconds: float, clock: HostClock) -> dict:
    from checks import check_output

    models = work / "models"
    runs, samples, decided = [], [[] for _ in instances], [[] for _ in instances]
    walls = [[] for _ in instances]
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    full = True
    while full:
        for i, inst in enumerate(instances):
            # after one invocation of each, start one only if it should end
            # in time, with the reference run after it
            if walls[i] and time.perf_counter() + walls[i][-1] + clock.refs[-1] > deadline:
                full = False
                break
            wall, code, out, err, maxrss = _invoke(inst, models, work / "io")
            scaled = clock.scale(wall)
            outcome = check_output(inst, code, out, err)
            walls[i].append(wall)
            samples[i].append(scaled)
            decided[i].append(outcome.decided)
            peak_kib = max(peak_kib, maxrss)
            runs.append({"key": inst.key, "index": i, "wall_s": wall, "scaled_s": scaled,
                         "exit": code, "rss_kib": maxrss, "ok": outcome.ok,
                         "decided": outcome.decided, "reason": outcome.reason,
                         "counts": outcome.counts})
    medians = [statistics.median(s) for s in samples]
    return {
        "metrics": {
            "solve_s": {"value": sum(medians), "unit": "s"},
            # weighted per instance, so a last pass cut short by the deadline
            # does not tilt the share towards the instances that ran in it
            "decided_frac": {"value": statistics.fmean(statistics.fmean(d) for d in decided),
                             "unit": "ratio"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        },
        "extra": {
            "failed_frac": {"value": sum(not r["ok"] for r in runs) / len(runs), "unit": "ratio"},
            "invocations": len(runs),
            "samples_per_instance": [len(s) for s in samples],
            "instance_median_s": [[inst.key, m] for inst, m in zip(instances, medians)],
            "solve_wall_s": {"value": sum(statistics.median(w) for w in walls), "unit": "s"},
            "tail": _tail(runs, medians),
        },
        "count_diffs": _count_diffs(runs),
        "runs": runs,
    }


def _tail(runs, medians) -> dict:
    """Slowdown of single invocations against their instance's median, at the
    highest percentile with at least ten invocations beyond it."""
    ratios = sorted(r["scaled_s"] / medians[r["index"]] for r in runs)
    n = len(ratios)
    if n <= 10:
        return {"percentile": None, "slowdown": None, "samples": n}
    return {"percentile": round(100 * (n - 10) / n, 1), "slowdown": ratios[n - 11],
            "max_slowdown": ratios[-1], "samples": n}


def _traced(instances, work: Path, seconds: float, stressed) -> dict:
    from checks import check_output
    from tracing import (RECORDED_COUNTS, Tracer, call_main, instance_counts, instance_times,
                         instrument)

    models = work / "models"
    argvs = [inst.argv(str(models / f"{inst.stem}.model")) for inst in instances]
    import_s = _import_time()
    runs, passes, spans = [], [], []
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    while not passes or time.perf_counter() + pass_s <= deadline:
        started = time.perf_counter()
        untraced = 0.0
        for argv in argvs:
            t = time.perf_counter()
            call_main(argv)
            untraced += time.perf_counter() - t
        totals: dict[str, float] = {"untraced_s": untraced}
        for inst, argv in zip(instances, argvs):
            tracer = Tracer()
            with instrument(tracer):
                code, out, err = call_main(argv)
            outcome = check_output(inst, code, out, err)
            counts = instance_counts(tracer)
            for k, v in [*instance_times(tracer).items(), *counts.items()]:
                totals[k] = totals.get(k, 0) + v
            if not passes:
                spans.append({"key": inst.key, **tracer.dump()})
            runs.append({"key": inst.key, "exit": code, "ok": outcome.ok,
                         "decided": outcome.decided, "reason": outcome.reason,
                         "counts": {k: counts[k] for k in RECORDED_COUNTS}})
        passes.append(totals)
        pass_s = time.perf_counter() - started

    def med(key):
        return statistics.median(p.get(key, 0.0) for p in passes)

    first = passes[0]
    derived = {
        "orders.leq_hit_frac": first["orders.leq_hits"] / max(first["orders.leq_calls"], 1),
        "cli.import_s": import_s,
        "trace.untraced_s": med("untraced_s"),
        "trace.overhead_s": med("traced_s") - med("untraced_s"),
    }
    # the per-layer metrics BENCHMARK.json declares: counts are exact, from
    # the first traced pass; times are medians over the traced passes
    metrics = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name, unit = m["name"], m["unit"]
        value = derived[name] if name in derived else first[name] if unit == "count" else med(name)
        metrics[name] = {"value": value, "unit": unit}

    traced_s = med("traced_s")
    self_s = {k[5:]: med(k) for k in first if k.startswith("self:")}
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
    share = sum(self_s.get(name, 0.0) for name in stressed) / traced_s
    OUT.mkdir(exist_ok=True)
    (OUT / f"{work.name}-spans.json").write_text(json.dumps(spans) + "\n")
    return {"metrics": metrics,
            "extra": {"passes": len(passes), "traced_s": traced_s,
                      "largest_self_s": {k: round(v, 4) for k, v in top},
                      "stressed": {"layers": list(stressed), "share_of_traced": round(share, 3),
                                   "met": share > 0.5}},
            "count_diffs": _count_diffs(runs),
            "runs": runs}


def _import_time() -> float:
    """Cold interpreter start plus ``import wstskit.cli``, median of several."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wstskit.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _count_diffs(runs) -> list[dict]:
    """Counts that differ from those recorded in counts.json for the shape."""
    baseline = json.loads((BENCH / "counts.json").read_text())
    diffs, seen = [], set()
    for r in runs:
        for name, value in (r["counts"] or {}).items():
            expected = baseline.get(r["key"], {}).get(name, 0)
            if (r["key"], name) in seen or value == expected:
                continue
            seen.add((r["key"], name))
            diffs.append({"key": r["key"], "count": name, "recorded": expected, "now": value})
    return diffs


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout without git metadata; src_sha256 identifies the code
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "git_commit": commit,
            "src_sha256": src.hexdigest()}


def _report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"instances {', '.join(record['instances'])}")
    print("env " + json.dumps(record["env"]))
    for name, m in record["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    for name, value in record["extra"].items():
        if isinstance(value, dict) and set(value) == {"value", "unit"}:
            print(f"  {name:24s} {value['value']:.6g} {value['unit']}")
        else:
            print(f"  {name:24s} {json.dumps(value)}")
    for d in record["count_diffs"]:
        print(f"  count diff {d['key']} {d['count']}: recorded {d['recorded']}, now {d['now']}")
    for r in record["runs"]:
        if not r["ok"]:
            print(f"  FAILED {r['key']}: {r['reason']}")


if __name__ == "__main__":
    sys.exit(main())
