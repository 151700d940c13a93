"""Quick self-check of the benchmark (about 10 s; not part of Tier-1).

    python3 bench/selfcheck.py

Runs one scenario of each workload with every output check on, shows that
each check rejects a corrupted output, that the speed probes sample an
execution and give it a reference time, and that the per-layer counts of
a traced scenario repeat exactly. Exits 1 with the reasons on any failure.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import time
from pathlib import Path

import speed
from run import ROOT, load_program


def main() -> int:
    load_program()
    import spans
    from workloads import WORKLOADS

    failures: list[str] = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    scratch = ROOT / "bench" / "out"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp)

        agency = WORKLOADS["agency-fixed-point"](ROOT, out / "agency")
        fixture = agency.make_round(0)[0]
        problems = agency.check(fixture, agency.execute(fixture))
        expect(not problems, f"agency-fixed-point {fixture.name} passes its checks {problems}")
        shifted = dataclasses.replace(fixture, data={**fixture.data, "beta": fixture.data["beta"] + 0.05})
        expect(bool(agency.check(shifted, 0)), "agency check rejects a fixed point of another beta")

        grid = WORKLOADS["revisable-grid"](ROOT, out / "revisable")
        small = grid.make_round(0)[0]
        problems = grid.check(small, grid.execute(small))
        expect(not problems, f"revisable-grid {small.name} passes its checks {problems}")
        table = grid.reports / small.name / "gamma_alpha.csv"
        table.write_text("\n".join(table.read_text().splitlines()[:-small.data["shape"][0]]) + "\n")
        expect(bool(grid.check(small, 0)), "revisable check rejects a table missing one allocation")

        finite = WORKLOADS["finite-search"](ROOT, out / "finite")
        instances = finite.make_round(0)
        # a two-principal public game with an equilibrium, so check_robust runs
        first, result = next((sc, r) for sc in instances if sc.name.startswith("n2t2publ")
                             for r in [finite.execute(sc)] if r[0])
        problems = finite.check(first, result)
        problems += [p for _, _, p in finite.finish([first])]
        expect(not problems, f"finite-search {first.name} matches the oracle {problems}")
        first.first = set()
        expect(bool(finite.finish([first])), "finite-search check rejects an empty allocation set")

        sampler = speed.SpeedSampler()
        sampler.start()
        try:
            t0 = time.perf_counter()
            grid.execute(small)
            t1 = time.perf_counter()
            time.sleep(0.3)  # the probes after the execution
        finally:
            sampler.stop()
        inside = sum(t0 <= t <= t1 for t in sampler.starts)
        ratio = sampler.reference_time(t0, t1) / (t1 - t0)
        expect(inside >= 1 and 0.2 < ratio < 5.0,
               f"speed probes sample the execution ({inside} inside) and give a reference time "
               f"of {ratio:.2f} times its wall time")

        counts = []
        for _ in range(2):
            tracer = spans.Tracer()
            tracer.install()
            tracer.active = True
            try:
                grid.execute(small)
            finally:
                tracer.active = False
                tracer.uninstall()
            per = tracer.per_scenario(1)
            counts.append({k: v for k, v in per.items() if not k.endswith(".self_s")})
        expect(counts[0] == counts[1] and counts[0]["exprlang.compiled_fn.calls"] > 0,
               "traced counts repeat exactly across two traced executions")
        missing = [m for m in spans.LAYER_METRICS if m not in per]
        expect(not missing, f"traced run reports every layer metric {missing}")

    if failures:
        print(f"selfcheck: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
