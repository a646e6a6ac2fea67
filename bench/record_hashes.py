#!/usr/bin/env python3
"""Record the output hashes of study 0 of every workload as bench/hashes.json.

    python3 bench/record_hashes.py 0 20      # run seeds 0..20

``run.py`` compares the hashes of each run's study 0 with these and prints
any difference as a behaviour change.  Re-record only on purpose, after a
change to the program's results has been called out.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import study


def main(argv=None) -> int:
    first, last = (int(a) for a in (argv or sys.argv[1:]))
    run.pin_blas()
    if run.import_woesim() is None:
        print(f"error: no woesim package under {run.SRC}", file=sys.stderr)
        return 2
    path = run.BENCH_DIR / "hashes.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    work = run.ROOT / ".bench_work" / f"hashes-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for wl in study.WORKLOADS.values():
            for seed in range(first, last + 1):
                _, cli, steps = study.setup(wl, seed, work)
                s = study.check_study(
                    study.run_study(cli, wl, study.sub_seed(seed, 0), work, wl.iterations), wl, work
                )
                if s.problems or any(step.code for step in steps):
                    print(f"error: {wl.name} seed {seed}: {s.problems}", file=sys.stderr)
                    return 1
                stored[f"{wl.name}/seed={seed}/iters={wl.iterations}"] = s.hashes
                print(wl.name, seed, s.hashes["results"][:16])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
