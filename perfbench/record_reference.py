"""Record the reference outputs the benchmark's checks compare against.

Run from the repository root at the commit whose outputs are the
reference, then commit the files under ``perfbench/reference``:

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

A later change must not re-record them to make its results pass; a change
that alters results on purpose says so and re-records them in its own
commit.
"""

import json
import os
import sys
import tempfile

import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            os.makedirs(os.path.join(workloads.REFERENCE_DIR, name), exist_ok=True)
            for instance in range(workloads.INSTANCES):
                workload = workloads.WORKLOADS[name](instance, workdir, "reference")
                reference = workload.reference_of(workload.run())
                with open(workloads.reference_path(name, instance), "w", encoding="utf-8") as fh:
                    json.dump(reference, fh, indent=0)
                    fh.write("\n")
                print(f"{name} instance {instance}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
