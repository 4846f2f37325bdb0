"""Regenerate ``data/scan_reference.json`` from the pinned full-range scan.

The reference holds, for every window of the scan pool of
``data/pools.json`` (each block of ``block_width`` cut into windows of
``window_width``), the number
of rows of the full-range scan CSV whose delta falls in the window and the
sha256 of those lines joined by newlines.  The CSV must be the pinned one,
so this script checks its sha256 first.  Produce it with

    PYTHONPATH=src python3 -m qknorm.cli scan --min -100000 --max 100000 \\
        --jobs 2 --out scan.csv

and then run

    python3 perfbench/make_reference.py scan.csv
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from workloads import DATA, load_pools, scan_windows, window_digest

PINNED_SHA256 = \
    "1664ed2ce9a3c091fee30fc245657f1424dc9f54de7c77e37cb3ccdcd80e36ed"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != PINNED_SHA256:
        print(f"error: sha256 {digest} is not the pinned {PINNED_SHA256}",
              file=sys.stderr)
        return 1
    header, *lines = raw.decode("utf-8").splitlines()
    by_delta = {int(line.split(",", 1)[0]): line for line in lines}
    scan = load_pools()["scan"]
    width = scan["window_width"]
    windows = {}
    starts = [s for blocks in scan["blocks"] for s in blocks]
    for lo, hi in scan_windows(starts, scan["block_width"], width):
        kept = [line for d, line in by_delta.items() if lo <= d <= hi]
        windows[str(lo)] = [len(kept), window_digest(kept)]
    out = os.path.join(DATA, "scan_reference.json")
    # one window per line
    body = ",\n".join(f"    {json.dumps(lo)}: {json.dumps(v)}"
                      for lo, v in windows.items())
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "csv_sha256": {json.dumps(PINNED_SHA256)},\n'
                 f'  "header": {json.dumps(header)},\n'
                 f'  "window_width": {width},\n'
                 f'  "windows": {{\n{body}\n  }}\n}}\n')
    print(f"{sum(c for c, _ in windows.values())} rows in {len(windows)} "
          f"windows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
