#!/usr/bin/env python3
"""Monte Carlo growth-exponent table for the symmetric exponential model.

Nine rows of increasing rate variability (CV from 5% to 45% of the mean),
50 trees per row, horizons chosen so trees reach ~5e4..1e5 cells.  Writes
the CSV plus a manifest next to it.  Takes about 14 s at one worker, the
default (2 vCPUs, Python 3.11, NumPy 2.4); set MALTHUS_THREADS to
parallelize.
"""
import sys

from malthus.cli import main

ROWS = "0.1:10.5,0.2:11,0.3:11.25,0.4:11.5,0.5:11.75,0.6:12,0.7:12.25,0.8:12.5,0.9:13"

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "variability_table.csv"
    sys.exit(
        main(
            [
                "size-mc",
                "--set", f"rows={ROWS}",
                "--set", "M=50",
                "--set", "seed=1",
                "--out", out,
            ]
        )
    )
