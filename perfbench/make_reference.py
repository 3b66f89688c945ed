"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs the program in this checkout once for every expansion the workloads
can request, every census and ``verify all``, and writes
``perfbench/reference.json``: SHA-256 digests of the coefficient lists,
the census fractions, and the ids of the registered records in report
order.  The committed file was recorded from the seed program; regenerate
it only when a change to the program's answers is intended.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

from gate import digest, digest_key, parse_coefficients
from run import BENCH, OUT, Runner
from workloads import BIG_ORDER, CENSUS_ORDERS, EXPAND_NAMES, EXPAND_ORDERS, SEQUENCES


def main() -> int:
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp-reference"
    tmp.mkdir(exist_ok=True)
    runner = Runner(tmp, gate=None)

    def qcore(*argv) -> bytes:
        proc = runner.spawn(["-m", "qcore", *argv])
        if proc.rc != 0:
            raise SystemExit(f"qcore {' '.join(argv)} exited {proc.rc}: {proc.stderr.decode()}")
        return proc.stdout

    try:
        expansions = [(n, o) for n in EXPAND_NAMES for o in EXPAND_ORDERS]
        expansions += [(n, BIG_ORDER) for n in SEQUENCES]
        digests = {digest_key(n, o): digest(parse_coefficients(qcore("expand", n, str(o))))
                   for n, o in expansions}
        census = {}
        for name in SEQUENCES:
            for order in CENSUS_ORDERS:
                line = qcore("census", name, "-N", str(order)).decode()
                census[digest_key(name, order)] = re.findall(
                    r"(?:zero|positive|negative) (\S+?)(?:,|$)", line.strip())
        report = qcore("verify", "all", "-N", "100").decode().strip().splitlines()
        record_ids = [line.split()[0] for line in report[:-1]]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps({"digests": digests, "census": census,
                                "record_ids": record_ids}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}: {len(digests)} digests, {len(census)} censuses, "
          f"{len(record_ids)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
