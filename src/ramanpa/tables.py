"""The one CSV writer behind every table ramanpa writes."""

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D columns as ASCII CSV under one header line.

    Numbers are written as `.12g`, strings as they are, lines end in LF. The
    columns are checked before the file is opened, so a mismatch raises
    ValueError and creates no file. A scalar column is one row.
    """
    arrays = [np.atleast_1d(c) for c in columns]
    if len(arrays) != len(header) or any(a.ndim != 1 or len(a) != len(arrays[0])
                                         for a in arrays):
        raise ValueError("need one 1-D column per header name, all of one length")
    cells = [a.tolist() if a.dtype.kind == "U" else [f"{v:.12g}" for v in a.tolist()]
             for a in arrays]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
