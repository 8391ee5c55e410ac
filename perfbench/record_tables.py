"""Record each workload's error table at the default seed into tables.json.

    python3 perfbench/record_tables.py

Run it only when a change is meant to move the tables, and say so.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
from fracch import harness  # noqa: E402


def main() -> None:
    out = {}
    for workload in sorted(run.WORKLOADS):
        doc = run.plan_document(workload, run.DEFAULT_SEED)
        table = harness.run_study(harness.plan_from_json(doc))
        out[workload] = {
            "seed": run.DEFAULT_SEED,
            "samples": doc["samples"],
            "errors": list(table.errors),
            "table": harness.table_text(table),
        }
    with open(run.TABLES, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
