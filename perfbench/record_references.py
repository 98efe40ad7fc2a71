"""Record the seed-7 reference outputs into ``references.json``.

    python3 perfbench/record_references.py

Runs one pass of every workload at seed 7 and stores each operation's
output digest: the sha256 of each report JSON and of each smoothed or
filtered output's float64 bytes, and the exact ``repr`` of each distance.
Every later run at seed 7 counts an operation whose digest differs as
failed. Record only from code whose outputs are trusted; outputs that
fail their invariants are refused.
"""

import json
import shutil
import sys

from run import OUT_DIR, REFERENCE_SEED, REFERENCES, WORKLOADS, judge, measure, setup


def main() -> int:
    references = {}
    for name, (_, n) in WORKLOADS.items():
        workdir = OUT_DIR / f"record-{name}"
        try:
            ops, _ = setup(name, REFERENCE_SEED, n, workdir)
            run = measure(ops, 0.0)
            failed, problems = judge(ops, run, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            print(f"error: {name}: {problems}", file=sys.stderr)
            return 1
        references[name] = {label: seen[0] for label, seen in run["digests"].items()}
        print(f"{name}: {len(ops)} references", file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
