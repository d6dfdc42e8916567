"""Read back the CSV that `gaussqi.sweeps.emit` writes, for round-trip tests."""

import csv
import io

from gaussqi.sweeps import CSV_HEADER, SweepRow


def parse_csv(text: str) -> list[SweepRow]:
    """Inverse of the CSV emitter."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected header {header}")
    return [
        SweepRow(
            transmitter=rec[0],
            model=rec[1],
            n_s=float(rec[2]),
            n_b=float(rec[3]),
            kappa=float(rec[4]),
            quantity=rec[5],
            value=float(rec[6]) if rec[6] else float("nan"),
            s_star=float(rec[7]) if rec[7] else None,
            flags=tuple(f for f in rec[8].split(";") if f),
        )
        for rec in reader
    ]
