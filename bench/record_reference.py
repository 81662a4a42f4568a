"""Record the headline values of every workload variant into reference.json.

    python3 bench/record_reference.py

Run it only when the program's outputs are meant to change; the outputs
check then holds later commits to the values of the commit it ran on.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import REFERENCE, headline
from workloads import N_VARIANTS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from quasilocal import cli

    reference = {}
    for workload in WORKLOADS.values():
        reference[workload.name] = {}
        for variant in range(N_VARIANTS):
            work = run.OUT / f"reference-{workload.name}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                call = run.Runner(cli, workload, variant, work).call()
                if call.exit_code != 0:
                    raise SystemExit(f"{workload.name} variant {variant} exited {call.exit_code}")
                reference[workload.name][str(variant)] = headline(workload.command, call.out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(workload.name, variant, flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
