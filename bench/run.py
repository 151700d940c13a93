"""Benchmark of contract-forge: one named workload from a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and the brute-force oracle from ``tests/``. Workloads
are defined in ``bench/workloads.py``: agency-fixed-point,
revisable-grid and finite-search. One process, one closed-loop caller.

A run makes the workload's round of scenarios from the seed, warms up,
then repeats whole rounds while the next round still fits in ``--seconds``
(at least one round). Every execution's outputs are checked outside the
timed region. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, in reference
seconds: each timed part's wall time over the host's speed measured by
probes taken during and around it (``bench/speed.py``). On a shared
machine the same code runs up to about 1.8 times slower in stretches
that can outlast a whole run; the probes slow down with it, so the
ratio stays put where the wall time does not.

* ``scenarios_per_s``: scenarios in a round over the sum of their
  times, a scenario's time being the median over its executions;
* ``scenario_s.p50``: the median over the round's scenarios of their
  times;
* ``setup_s``: median over fresh interpreters of the time to import the
  package (``contract_forge.cli`` pulls in every module); the program has
  no other one-time set-up;
* ``peak_rss_mb``: peak resident memory of this process after the timed
  rounds, before the oracle checks.

The wall-clock figures go to standard error.

With ``--trace 1`` the program's public functions are wrapped (see
``bench/spans.py``) and the metrics are the per-layer ones, per executed
scenario; spans go to ``bench/out/<workload>-seed<N>/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SETUP_RUNS = 7
SETUP_PROBES = 3

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import contract_forge.cli
elapsed = time.perf_counter() - start
print(elapsed, contract_forge.cli.__file__)
"""


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import the program from this checkout; exit 2 if it is not there."""
    package = SRC / "contract_forge" / "__init__.py"
    oracle = TESTS / "oracle_bruteforce.py"
    for needed in (package, oracle):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} not found; run inside a contract-forge checkout")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import contract_forge

    if Path(contract_forge.__file__).resolve().parent != package.parent:
        fail(f"imported contract_forge from {contract_forge.__file__}, not from {SRC}")


def measure_setup() -> float:
    """Median import time of the package over fresh interpreters, in
    reference seconds (``bench/speed.py``): each import's time over the
    mean probe time of the blocks of probes taken just before and after."""
    times = []
    for _ in range(SETUP_RUNS):
        before = [b - a for a, b in (speed.timed_probe() for _ in range(SETUP_PROBES))]
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = [b - a for a, b in (speed.timed_probe() for _ in range(SETUP_PROBES))]
        elapsed, origin = done.stdout.split()
        if Path(origin).resolve().parent != SRC / "contract_forge":
            raise RuntimeError(f"import probe loaded {origin}")
        times.append(float(elapsed) * speed.REFERENCE_S / statistics.fmean(before + after))
    return statistics.median(times)


def run_rounds(workload, scenarios, seconds: float, tracer=None):
    """Repeat whole rounds; returns the (start, end) of each scenario's
    executions (None where the execution failed), counts and problems."""
    executions = [[] for _ in scenarios]
    attempted = failed = 0
    wrong: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for i, sc in enumerate(scenarios):
            attempted += 1
            if tracer is not None:
                tracer.scenario, tracer.active = i, True
            t0 = time.perf_counter()
            try:
                result = workload.execute(sc)
            except Exception:
                failed += 1
                executions[i].append(None)
                print(f"bench: {sc.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.active = False
            problems = workload.check(sc, result)
            if problems:
                failed += 1
                wrong.extend(f"{sc.name}: {p}" for p in problems)
            executions[i].append(None if problems else (t0, t1))
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return executions, attempted, failed, wrong, rounds


def scenario_metrics(executions, sampler) -> dict:
    """End-to-end timing metrics from each scenario's executions.

    A scenario's time is the median over its executions of their
    reference time; scenarios with a failed execution are left out."""
    ok = [s for s in executions if s and None not in s]
    if not ok:
        raise RuntimeError("no scenario completed in every round")
    per_scenario = [statistics.median(sampler.reference_time(a, b) for a, b in s) for s in ok]
    wall = [statistics.median(b - a for a, b in s) for s in ok]
    print(f"bench: wall time per round {sum(wall):.4g} s, median scenario {statistics.median(wall):.4g} s; "
          f"{len(sampler.starts)} speed probes, median {statistics.median(sampler.durations()):.4g} s",
          file=sys.stderr)
    return {
        "scenarios_per_s": {"value": len(ok) / sum(per_scenario), "unit": "1/s"},
        "scenario_s.p50": {"value": statistics.median(per_scenario), "unit": "s"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    speed.pin_to_current_cpu()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out = ROOT / "bench" / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup_s = None if args.trace else measure_setup()
    workload = WORKLOADS[args.workload](ROOT, out)
    scenarios = workload.make_round(args.seed)
    workload.warm_up(scenarios)

    tracer = sampler = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    else:
        sampler = speed.SpeedSampler()
        sampler.start()
    try:
        executions, attempted, failed, wrong, rounds = run_rounds(workload, scenarios, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if sampler is not None:
            sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, n_wrong, problem in workload.finish(scenarios):
        failed += n_wrong
        wrong.append(f"{name}: {problem}")
    for line in wrong:
        print(f"bench: check failed: {line}", file=sys.stderr)

    if args.trace:
        per_scenario = tracer.per_scenario(attempted)
        metrics = {m: {"value": v, "unit": spans.layer_unit(m)} for m, v in per_scenario.items()}
        tracer.write(out / "trace.jsonl", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "scenarios": [sc.name for sc in scenarios],
            "traced_scenario_s": [[None if e is None else e[1] - e[0] for e in s] for s in executions],
        })
    else:
        metrics = {
            **scenario_metrics(executions, sampler),
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of {len(scenarios)} scenarios",
          file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
