"""Record the reference outputs the benchmark checks ops against.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs are the reference.
Rewrites ``perfbench/references.json`` for the named workloads (all by
default), over each workload's whole input pool.
"""

import json
import os
import shutil
import sys

import run


def main(names) -> int:
    run._configure_threads()
    import workloads

    path = os.path.join(run.HERE, "references.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    work_dir = os.path.join(run.OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for name in names or list(workloads.WORKLOADS):
            cls = workloads.WORKLOADS[name]
            workers = min(len(os.sched_getaffinity(0)), run.MAX_WORKERS)
            refs[name] = cls(0, work_dir, workers, {}).record()
            print(f"{name}: {len(refs[name])} references", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
