"""Self-checks of the benchmark, and the tools that fixed its pools.

    python3 bench/selfcheck.py                    # run every self-check
    python3 bench/selfcheck.py --noise            # also time a fixed loop 10 times
    python3 bench/selfcheck.py --write-counts     # record counts.json at this commit
    python3 bench/selfcheck.py --draw-rotate-pool # redo the rotate-with-drop draw

The self-checks: the same seed gives byte-identical model files and other
seeds give other files; the dec-lattice closed form matches ``build_rrt``
on tiny lattices; every pool shape stays inside its stated window; and the
exact counts of a shape do not depend on the seed's renaming.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import families  # noqa: E402
from tracing import RECORDED_COUNTS, Tracer, call_main, instance_counts, instrument  # noqa: E402
from wstskit.dsl import parse_model  # noqa: E402
from wstskit.olts import counter_olts, fifo_olts  # noqa: E402
from wstskit.rrt import build_rrt  # noqa: E402

COUNTS = BENCH / "counts.json"
OUT = BENCH / "out"  # scratch files; ignored by git
# Stated windows, checked against counts.json.
GROW_ROUNDS = (15_000, 19_000)
PRODUCT_STATES = (100, 2_000)
PRODUCT_PEAK_MB = 150


def _scratch():
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def _require(ok: bool, what=None) -> None:
    if not ok:
        raise SystemExit(f"self-check failed: {what}")


def shape_instances():
    """One instance per pool shape, named with a fixed seed."""
    rng = random.Random("shapes")
    out = [families.lattice_instance(rng, s, 0) for s in families.LATTICE_POOL]
    out += [families.rotate_instance(rng, w, 0) for w, _ in families.ROTATE_POOL]
    out += [families.hunt_instance(rng, b, 0) for b in families.HUNT_POOL]
    out += [families.grow_instance(rng, t, 0) for t in families.GROW_POOL]
    out += [families.random_counter_instance(rng, s, 0) for s in families.RANDOM_COUNTER_POOL]
    out += [families.product_instance(rng, s, 0) for s in families.PRODUCT_POOL]
    return out


def traced_counts(inst, directory: Path) -> dict[str, int]:
    path = directory / f"{inst.stem}.model"
    path.write_text(inst.text, encoding="utf-8")
    tracer = Tracer()
    with instrument(tracer):
        code, out, err = call_main(inst.argv(str(path)))
    if code not in (0, 2):
        raise SystemExit(f"{inst.key}: exit {code}: {err}")
    counts = instance_counts(tracer)
    return {k: counts[k] for k in RECORDED_COUNTS if counts[k]}


def write_counts() -> None:
    recorded = {}
    with _scratch() as tmp:
        for inst in shape_instances():
            recorded[inst.key] = traced_counts(inst, Path(tmp))
            print(inst.key, recorded[inst.key], flush=True)
    COUNTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def draw_rotate_pool(size: int = 16) -> None:
    """The draw behind families.ROTATE_POOL: uniform words over {a, b} of
    length 12..14 from Random(12345), kept when the complete tree has a
    node count inside the window.  Larger trees are cut at the window's
    top by the budget, so the draw stays cheap."""
    low, high = families.ROTATE_NODE_WINDOW
    rng = random.Random(12345)
    pool, seen = [], set()
    while len(pool) < size:
        word = "".join(rng.choice("ab") for _ in range(rng.randint(12, 14)))
        if word in seen:
            continue
        seen.add(word)
        inst = families.rotate_instance(random.Random(0), word, 0)
        mf = parse_model(inst.text)
        tree = build_rrt(fifo_olts(mf.machine, mf.initial), high + 1)
        if tree.complete and low <= len(tree.nodes) <= high:
            pool.append((word, len(tree.nodes)))
            print(f"    ({word!r}, {len(tree.nodes)}),", flush=True)


def check_determinism() -> None:
    for workload in families.WORKLOADS:
        texts = {}
        for seed in (1, 2, 3):
            a = [i.text for i in families.make_instances(workload, seed)]
            b = [i.text for i in families.make_instances(workload, seed)]
            _require(a == b, f"{workload}: seed {seed} gave different files")
            texts[seed] = a
        _require(len({tuple(t) for t in texts.values()}) == 3, f"{workload}: seeds agree")
    print("ok  same seed, byte-identical files; other seeds, other files")


def check_closed_form() -> None:
    for start in ((2, 2), (1, 2, 3), (3, 1), (1, 1, 1, 1)):
        inst = families.lattice_instance(random.Random(7), start, 0)
        mf = parse_model(inst.text)
        tree = build_rrt(counter_olts(mf.machine, mf.initial), 10**6)
        _require(tree.complete and len(tree.nodes) == families.lattice_nodes(start), start)
    _require(families.lattice_nodes((2, 2)) == 19, "k=2, n=2")
    _require(families.lattice_nodes((4, 4, 4)) == 110_251, "k=3, n=4")
    print("ok  closed-form node count matches build_rrt on tiny lattices")


def check_windows(recorded: dict) -> None:
    low, high = families.LATTICE_NODE_WINDOW
    for start in families.LATTICE_POOL:
        nodes = families.lattice_nodes(start)
        counts = recorded[f"lattice:{'-'.join(map(str, start))}"]
        _require(low <= nodes <= high and counts["rrt.nodes"] == nodes, (start, nodes))
        _require(counts["orders.leq_calls"] == families.lattice_leq_calls(start), start)
    low, high = families.ROTATE_NODE_WINDOW
    for word, nodes in families.ROTATE_POOL:
        _require(low <= nodes <= high and recorded[f"rotate:{word}"]["rrt.nodes"] == nodes, word)
    for budget in families.HUNT_POOL:
        # bound level b is finished after (b + 3)^3 candidates for 3 states, 1 counter
        _require(18**3 < budget <= 19**3, budget)
        _require(recorded[f"hunt:{budget}"]["cover.rounds"] == budget, budget)
    for target in families.GROW_POOL:
        rounds = recorded[f"grow:{target[0]}-{target[1]}"]["cover.rounds"]
        _require(GROW_ROUNDS[0] <= rounds <= GROW_ROUNDS[1], (target, rounds))
    for sub in families.PRODUCT_POOL:
        states = recorded[f"product:{sub}"]["fifo.product_states"]
        _require(PRODUCT_STATES[0] <= states <= PRODUCT_STATES[1], (sub, states))
    inst = families.product_instance(random.Random(0), families.PRODUCT_POOL[0], 0)
    with _scratch() as tmp:
        path = Path(tmp) / "p.model"
        path.write_text(inst.text, encoding="utf-8")
        subprocess.run([sys.executable, "-m", "wstskit", *inst.argv(str(path))], check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")})
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    _require(peak_mb <= PRODUCT_PEAK_MB, peak_mb)
    print(f"ok  pool shapes inside their windows (product peak {peak_mb:.0f} MB)")


def check_seed_invariance(recorded: dict) -> None:
    """Renaming and reordering by the seed must not change the work."""
    with _scratch() as tmp:
        for workload in families.WORKLOADS:
            for seed in (11, 12):
                for inst in families.make_instances(workload, seed):
                    got = traced_counts(inst, Path(tmp))
                    _require(got == recorded[inst.key], (workload, seed, inst.key, got))
    print("ok  counts of a shape are the same under every seed's renaming")


def time_noise(repeats: int = 10) -> None:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(10**7):
            pass
        times.append(time.perf_counter() - t)
    print(f"noise: fixed 10^7-iteration loop, {repeats} back-to-back runs: "
          f"min {min(times):.3f} s, median {statistics.median(times):.3f} s, max {max(times):.3f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-counts", action="store_true")
    parser.add_argument("--draw-rotate-pool", action="store_true")
    parser.add_argument("--noise", action="store_true")
    args = parser.parse_args()
    if args.draw_rotate_pool:
        draw_rotate_pool()
        return 0
    if args.write_counts:
        write_counts()
        return 0
    recorded = json.loads(COUNTS.read_text())
    check_determinism()
    check_closed_form()
    check_windows(recorded)
    check_seed_invariance(recorded)
    if args.noise:
        time_noise()
    return 0


if __name__ == "__main__":
    sys.exit(main())
