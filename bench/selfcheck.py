"""Quick self-check of the benchmark.

    python3 bench/selfcheck.py          # about a minute
    python3 bench/selfcheck.py --pin    # rewrite digests.json

Runs every workload's small job list (`run.py --quick`) with the pinned seed,
untraced under PYTHONHASHSEED=1 and traced under PYTHONHASHSEED=2. Each run
must be correct with no failed job, and must print exactly the metrics
BENCHMARK.json names for its mode, each with its unit. With the pinned seed
every output is compared with digests.json, so passing under both hash seeds
also shows that the pinned outputs do not depend on hash randomization.

--pin recomputes digests.json from the current code over the full job lists,
after checking every output. Outputs are meant to stay the same bit for bit,
so pin only when a change of output is intended and explained.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_runs() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, hashseed in ((0, "1"), (1, "2")):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "0",
                    "--trace", str(trace), "--quick"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                                  env={**os.environ, "PYTHONHASHSEED": hashseed})
            label = f"{workload} trace={trace} PYTHONHASHSEED={hashseed}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            shown = {name: m["unit"] for name, m in result["metrics"].items()}
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                problems.append(f"{label}: not correct\n" + "\n".join(lines[:-1]))
            if shown != expected[trace]:
                problems.append(f"{label}: metrics {sorted(shown.items())} differ from BENCHMARK.json")
            print(f"{label}: {result['attempted']} job runs, {result['failed']} failed")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


def pin() -> int:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import run
    import verify
    import workloads

    digests = {}
    for workload in workloads.WORKLOADS:
        workdir = ROOT / ".bench_work" / f"pin-{workload}-{os.getpid()}"
        try:
            cli, jobs, _ = run.setup(workload, run.PINNED_SEED, workdir, quick=False)
            verify.load_oracles(ROOT)
            outcomes = run.Outcomes({})
            run.timed_pass(cli, jobs, outcomes)
        finally:
            run.remove_workdir(workdir)
        if outcomes.problems or outcomes.failed:
            print("\n".join(outcomes.problems))
            return 1
        digests[workload] = outcomes.digest
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, digests.values()))} digests for seed {run.PINNED_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(pin() if sys.argv[1:] == ["--pin"] else check_runs())
