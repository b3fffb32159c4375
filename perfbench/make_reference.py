"""Regenerate ``reference.json``: report digests and exact counts, per round,
of every workload on the default seed, for ``workloads.REFERENCE_ROUNDS``
rounds each.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good; the references are
what every later commit's reports must reproduce byte for byte. It also
confirms that ``multibit_q8`` writes the same bytes at ``workers=1`` as at
its benchmark setting, and refuses to write the file if not.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main():
    run.pin_environment()
    from tracer import Tracer
    import workloads

    images = workloads.base_images()
    reference = {}
    for name in run.NAMES:
        work_dir = os.path.join(run.WORK, name)
        os.makedirs(work_dir, exist_ok=True)
        ctx = workloads.setup(name, work_dir, images, Tracer())
        records = []
        for index in range(workloads.REFERENCE_ROUNDS):
            r = workloads.run_round(name, ctx, workloads.DEFAULT_SEED, index, images,
                                    os.path.join(work_dir, "reports"), Tracer())
            if r.problems or r.failed:
                sys.exit(f"{name} round {index}: {r.failed} failed, {r.problems}")
            if workloads.WORKLOADS[name].workers > 1:
                serial = workloads.run_round(name, ctx, workloads.DEFAULT_SEED, index,
                                             images, os.path.join(work_dir, "reports"),
                                             Tracer(), workers=1)
                if serial.record() != r.record():
                    sys.exit(f"{name} round {index}: workers=1 bytes differ")
            print(name, index, json.dumps(r.record(), sort_keys=True), flush=True)
            records.append(r.record())
        reference[name] = records
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, sort_keys=True, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
