"""dp4 benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it times SETUP_SAMPLES fresh-process set-ups, warms up on
one round of inputs that no timed round uses, then times whole rounds of
operations through dp4's public API until the next round would pass
``--seconds``, checks every output, and prints the end-to-end metrics.  Every
reported time is scaled to a fixed machine speed (see ``Speedometer``).  With
``--trace 1`` it warms up, then runs a fixed number of rounds twice, untraced
and then with every public function of the layers wrapped (see tracer.py),
and prints the per-layer counts and self times with the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object.
Exit code 0 means the run completed, whether or not its checks passed
(``correct`` says that); any other code, with no result line, means it could
not run."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
SETUP_SAMPLES = 21
REF_ITERATIONS = 16_000  # one reference sample
REF_NOMINAL_S = 0.0070  # its time on a shared 2-vCPU Xeon VM (6.3-9.5 ms), Python 3.11.7
REF_EVERY_S = 0.1  # operation seconds between two reference samples
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)  # the declared metrics, their units and their order


def import_dp4():
    """Import dp4 from the checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "dp4", "__init__.py")):
        raise SystemExit(f"dp4 sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import dp4

    if os.path.dirname(os.path.dirname(os.path.abspath(dp4.__file__))) != SRC:
        raise SystemExit(f"imported dp4 from {dp4.__file__}, not from {SRC}")
    return dp4


def _ref_step(x: int, y: int) -> int:
    return (x * x + y) % 1_000_003


def reference_loop() -> int:
    """Fixed pure-Python work like dp4's own: small-integer modular
    arithmetic, list indexing, dict updates and a call per step.  Besides
    its one list it allocates nothing that the garbage collector tracks, so
    what dp4 leaves in memory does not slow it."""
    table, counts, x = list(range(1024)), {}, 1
    for i in range(REF_ITERATIONS):
        x = _ref_step(x, table[i & 1023])
        table[(i * 7) & 1023] = x & 1023
        counts[x & 255] = counts.get(x & 255, 0) + 1
    return x


class Speedometer:
    """How fast the machine runs right now, from timed runs of reference_loop.

    A shared virtual machine can change speed by half over minutes, and CPU
    time slows with wall time, so raw times of the same code spread past any
    useful bound from one run to the next.  Each
    time is therefore multiplied by REF_NOMINAL_S over the reference loop's
    time near it: a time in seconds at the speed at which the reference loop
    takes REF_NOMINAL_S.  The loop is the
    benchmark's own code, so a change to dp4 moves only the measured side.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time one reference run; its index."""
        t0 = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """The factor for a time taken right after sample index, from the
        eleven samples centred on it (about a second of operations).  The
        speed changes within a second, so a sample is a point reading of it
        and an operation averages it: the harmonic mean of the sample times
        is the loop's time at the average speed of the samples."""
        near = self.samples[max(0, index - 5):index + 6]
        return REF_NOMINAL_S / statistics.harmonic_mean(near)


def setup(name: str, seed: int, seconds: int):
    """Import dp4, then build and validate the seeded warm-up round and input pool."""
    import_dp4()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    pool = max(1, math.ceil(seconds / workload.round_floor_s))
    return (workload, *workload.build(seed, pool))


def setup_seconds(name: str, seed: int, seconds: int) -> list[float]:
    """Scaled time of a fresh process's setup, measured SETUP_SAMPLES times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


class Tally:
    def __init__(self):
        self.walls: list[float] = []  # raw wall seconds
        self.scaled: list[float] = []  # wall seconds at the nominal speed (Speedometer)
        self.speed_index: list[int] = []  # the reference sample taken before each op
        self.cpus: list[float] = []
        self.counts = {"ok": 0, "inconclusive": 0, "failed": 0}
        self.sampled_images = self.images = 0
        self.digest = hashlib.sha256()
        self.failures: list[str] = []

    def add(self, op, outcome, wall, cpu, speed_index):
        self.walls.append(wall)
        self.speed_index.append(speed_index)
        self.cpus.append(cpu)
        self.counts[outcome.status] += 1
        self.sampled_images += outcome.sampled_images
        self.images += outcome.images
        self.digest.update(json.dumps(outcome.output, sort_keys=True, default=str).encode())
        if outcome.status == "failed":
            self.failures.append(f"{op.kind} {op.params!r:.120} seed={op.seed}: {outcome.detail}")

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def op_seconds(self) -> float:
        """Scaled time spent inside the operations, without the checks between them."""
        return math.fsum(self.scaled)


def run_rounds(workload, rounds, seconds: float | None):
    """Closed loop over whole rounds; with seconds, stop before a round that
    would end past them (predicted from the mean round so far).  A reference
    sample is taken first, last, and before an operation once REF_EVERY_S of
    operation time has passed since the previous one."""
    tally, speed = Tally(), Speedometer()
    start = perf_counter()
    done, index, since = 0, speed.sample(), 0.0
    for ops in rounds:
        elapsed = perf_counter() - start
        if seconds is not None and done and elapsed + elapsed / done > seconds:
            break
        for op in ops:
            if since >= REF_EVERY_S:
                index, since = speed.sample(), 0.0
            outcome, wall, cpu = workload.attempt(op)
            tally.add(op, outcome, wall, cpu, index)
            since += wall
        done += 1
    speed.sample()
    tally.scaled = [w * speed.scale(i) for w, i in zip(tally.walls, tally.speed_index)]
    return tally, perf_counter() - start, done


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_hd(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: the sorted values, each
    weighted by how likely it is to be the middle one of a sample like this
    (Beta((n+1)/2, (n+1)/2) weights, in their normal approximation).  The
    middle value alone jumps when the middle of a run's mix of costs falls
    in a gap between two kinds of operation."""
    xs, n = sorted(values), len(values)
    dist = statistics.NormalDist(0.5, 0.5 / math.sqrt(n + 2))
    weights = [dist.cdf((i + 1) / n) - dist.cdf(i / n) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def machine() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def input_digest(rounds) -> str:
    return hashlib.sha256(repr(rounds).encode()).hexdigest()[:16]


def repeats(workload, warm, rounds) -> int:
    """Operations in rounds whose input the warm-up or an earlier operation had."""
    seen = {workload.identity(op) for op in warm}
    count = 0
    for op in (op for ops in rounds for op in ops):
        key = workload.identity(op)
        count += key in seen
        seen.add(key)
    return count


def warm_up(workload, warm) -> list[str]:
    """Run the warm-up round untimed; its check failures, as problems."""
    tally, _, _ = run_rounds(workload, [warm], None)
    return [f"warm-up: {line}" for line in tally.failures]


def report_untraced(args, workload, warm, rounds) -> dict:
    setups = setup_seconds(args.workload, args.seed, args.seconds)
    problems = warm_up(workload, warm)
    tally, wall, done = run_rounds(workload, rounds, args.seconds)
    extra_failure = workload.after_run(rounds[:done])
    if extra_failure:
        problems.append(extra_failure)
    n = tally.attempted
    repeated = repeats(workload, warm, rounds[:done])
    print(f"rounds {done} of {len(rounds)} after 1 warm-up round, operations {n}, "
          f"loop {wall:.3f} s, in operations {tally.op_seconds:.3f} s scaled")
    print(f"repeated inputs {repeated} of {n} ({repeated / n:.3f})")
    print(f"outcomes {tally.counts}; sampled images {tally.sampled_images} of {tally.images}")
    print(f"op scaled p90 {quantile(tally.scaled, 90):.6f} s; raw wall: ops_per_s "
          f"{n / math.fsum(tally.walls):.4f}, p50 {statistics.median(tally.walls):.6f} s, "
          f"p90 {quantile(tally.walls, 90):.6f} s; op cpu p50 "
          f"{statistics.median(tally.cpus):.6f} s, p90 {quantile(tally.cpus, 90):.6f} s")
    print(f"speed scale: median {statistics.median(s / w for s, w in zip(tally.scaled, tally.walls)):.4f}"
          f" (reference loop {REF_NOMINAL_S} s at the nominal speed)")
    print(f"setup samples {[round(s, 4) for s in setups]}")
    print(f"input digest {input_digest(rounds[:done])}")
    print(f"output digest {tally.digest.hexdigest()[:16]}")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / tally.op_seconds,
        "op_p50_s": median_hd(tally.scaled),
        "pass_frac": (n - tally.counts["failed"]) / n,
        "conclusive_frac": (n - tally.counts["inconclusive"]) / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    return finish(tally, values, BENCHMARK["end_to_end"], problems)


def report_traced(args, workload, warm, rounds) -> dict:
    from tracer import Tracer

    rounds = rounds[:workload.trace_rounds]
    problems = warm_up(workload, warm)
    plain, _, _ = run_rounds(workload, rounds, None)
    with Tracer() as tracer:
        traced, _, _ = run_rounds(workload, rounds, None)
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        problems.append("traced and untraced outputs differ")
    print(f"rounds {len(rounds)}, operations {traced.attempted}; in operations untraced "
          f"{plain.op_seconds:.3f} s, traced {traced.op_seconds:.3f} s")
    print(f"input digest {input_digest(rounds)}")
    print(f"output digest {traced.digest.hexdigest()[:16]}")
    values, missing = per_layer_values(tracer, traced, traced.op_seconds / plain.op_seconds - 1)
    if missing:
        print(f"missing or undefined (reported as null): {missing}")
    return finish(traced, values, BENCHMARK["per_layer"], problems, also=plain)


def _ratio(stat, numerator, denominator):
    """A ratio over what a traced function did: None if the function no longer
    exists, or if it ran but the denominator is 0 (undefined, not zero); 0.0
    if the function never ran in this workload."""
    if stat is None or (stat.calls and not denominator):
        return None
    return numerator / denominator if denominator else 0.0


def per_layer_values(tracer, traced: Tally, overhead: float) -> tuple[dict, list[str]]:
    """Every declared per-layer metric, and the names reported as None."""
    stats = tracer.stats
    sampler = stats.get("localsolve.sample_local_points")
    witness = stats.get("brauer.surjectivity_witness")
    derived = {
        "localsolve.sampler_yield": _ratio(sampler, sampler.items if sampler else 0,
                                           tracer.sampler_level1_items),
        "brauer.surjectivity_witness.sampling_fallbacks": (
            tracer.witness_sampling_fallbacks if witness else None),
        "brauer.bm_verdict.sampled_image_frac": _ratio(
            stats.get("brauer.bm_verdict"), traced.sampled_images, traced.images),
        "trace.overhead_frac": overhead,
    }
    values = {}
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        function, _, stat = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif function in stats:
            values[name] = getattr(stats[function], stat)
        else:
            values[name] = None
    return values, [name for name, value in values.items() if value is None]


def finish(tally: Tally, values: dict, declared: list, problems: list[str],
           also: Tally | None = None) -> dict:
    """The result object: every declared metric with its unit, in declared order."""
    failed = tally.counts["failed"] + (also.counts["failed"] if also else 0)
    attempted = tally.attempted + (also.attempted if also else 0)
    for line in (tally.failures + (also.failures if also else []))[:20] + problems:
        print(f"FAILED {line}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']!s:>22} {metric['unit']}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.setup_only:  # timed between reference samples, scaled as the operations are
        speed = Speedometer()
        speed.sample()  # untimed: the first run of the loop in a fresh process
        speed.sample(), speed.sample()
        t0 = perf_counter()
        setup(args.workload, args.seed, args.seconds)
        took = perf_counter() - t0
        speed.sample(), speed.sample()
        print(took * REF_NOMINAL_S / statistics.harmonic_mean(speed.samples[1:]))
        return 0
    workload, warm, rounds = setup(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine {machine()}")
    report = (report_traced if args.trace else report_untraced)(args, workload, warm, rounds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # no result line: the driver sees a non-zero exit
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
