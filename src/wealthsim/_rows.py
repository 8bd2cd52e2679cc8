"""CSV rows for the CLI's artifacts, formatted in process or by a worker.

This module imports only the standard library.  The CLI formats the first
rows of a CSV itself and runs this file as a script in worker processes
for the rest of a large one:

    python -I -S _rows.py ROWS COLUMN...

Each COLUMN is its values' struct format character, as a memoryview of the
column reports it (``l`` or ``q`` for int64, ``i`` for int32, ``d`` for
float64), followed by its fields per row, e.g. ``l1 d100``.  Standard input
holds each column's ROWS rows of raw native-order values, one column after
the other; the rows go to standard output as CSV lines with no header.
Both sides build their lines with :func:`lines` over the same kind of
buffer, so a worker's bytes are those the CLI would have written.
"""

import sys
from itertools import chain


def lines(columns, lo, hi):
    """Yield the CSV lines of rows ``lo`` to ``hi``.

    ``columns`` holds, per column, a flat memoryview of its values and its
    fields per row.  A field is the ``repr`` of a Python int or float.
    """
    fields = [_row_lists(view, width, lo, hi) for view, width in columns]
    return (",".join(map(repr, chain.from_iterable(row))) + "\n" for row in zip(*fields))


def _row_lists(view, width, lo, hi):
    if width == 1:
        return ([v] for v in view[lo:hi].tolist())
    # One row at a time: a whole-part tolist() would hold every field of the
    # part as Python objects at once.
    return (view[i:i + width].tolist() for i in range(lo * width, hi * width, width))


def main(argv) -> int:
    rows, spec = int(argv[0]), [(c[0], int(c[1:])) for c in argv[1:]]
    data = memoryview(sys.stdin.buffer.read())
    # The item size of each format, as struct.calcsize gives it, without importing struct.
    sizes = [rows * width * memoryview(b"").cast(code).itemsize for code, width in spec]
    if sum(sizes) != len(data):
        print(f"_rows: expected {sum(sizes)} bytes on stdin, got {len(data)}", file=sys.stderr)
        return 1
    columns, at = [], 0
    for (code, width), size in zip(spec, sizes):
        columns.append((data[at:at + size].cast(code), width))
        at += size
    with open(sys.stdout.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
        out.writelines(lines(columns, 0, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
