"""Record the sha256 of every deck output at the default seed.

    python3 perfbench/record_digests.py

Each output is checked first; nothing is written if any check fails.  A
recorded digest pins the exact bytes, seeded counts included, so record
again only for an intended output change, and say which rows changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import workloads

    digests = {}
    workdir = run.WORK / f"record-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            session = run.Session(workload, run.DEFAULT_SEED, workdir / workload)
            for entry in range(len(session.deck)):
                session.run(entry)
            problems = session.verify()
            if problems or session.failures:
                print("\n".join(problems or session.failures.values()), file=sys.stderr)
                return 1
            digests[workload] = [hashlib.sha256(data).hexdigest()
                                 for data in session.first_output]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {"seed": run.DEFAULT_SEED, "workloads": digests}
    run.DIGESTS.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
