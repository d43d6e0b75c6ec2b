"""Check a dumped transcript file: ``python3 check_transcript.py PATH ROUNDS``.

Runs in a child process of the benchmark so that parsing the dump does not
count toward the workload's peak resident memory. Exits 0 when the dump is
right, 1 with the reason on stdout when it is not.
"""

import json
import sys

from workloads import check_transcript_doc

if __name__ == "__main__":
    path, rounds = sys.argv[1], int(sys.argv[2])
    with open(path, encoding="utf-8") as fh:
        reason = check_transcript_doc(json.load(fh), rounds)
    if reason:
        print(reason)
    sys.exit(1 if reason else 0)
