"""CSV rows for the CLI's artifacts, formatted in process or by a worker.

This module imports only the standard library.  The CLI formats the first
rows of a large CSV itself and runs this file as a script in worker
processes for the rest:

    python -I -S _rows.py ROWS COLUMN...

Each COLUMN is an array typecode, ``q`` (int64) or ``d`` (float64), followed
by its fields per row, e.g. ``q1 d100``.  Standard input holds each column's
ROWS rows of raw native-order values, one column after the other; the rows
go to standard output as CSV lines with no header.  Both sides build their
lines with :func:`lines` over Python ints and floats, so a worker's bytes
are those the CLI would have written.
"""

import sys
from itertools import chain


def lines(fields):
    """Yield one CSV line per row; ``fields`` holds, per column, its rows as lists.

    A field is the ``repr`` of a Python int or float.
    """
    return (",".join(map(repr, chain.from_iterable(row))) + "\n" for row in zip(*fields))


def _row_lists(flat, width):
    if width == 1:
        return ([v] for v in flat.tolist())
    return (flat[i:i + width].tolist() for i in range(0, len(flat), width))


def main(argv) -> int:
    rows, columns = int(argv[0]), [(c[0], int(c[1:])) for c in argv[1:]]
    data = memoryview(sys.stdin.buffer.read())
    sizes = [rows * width * 8 for _, width in columns]
    if sum(sizes) != len(data):
        print(f"_rows: expected {sum(sizes)} bytes on stdin, got {len(data)}", file=sys.stderr)
        return 1
    fields, at = [], 0
    for (code, width), size in zip(columns, sizes):
        fields.append(_row_lists(data[at:at + size].cast(code), width))
        at += size
    with open(sys.stdout.fileno(), "w", newline="", closefd=False) as out:
        out.writelines(lines(fields))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
