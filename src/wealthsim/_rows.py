"""The CLI's CSV writer, and the worker process that formats part of a CSV.

This module imports only the standard library.  :func:`write` writes a CSV
to a binary file: it formats the first rows itself and runs this file as a
script in worker processes for the rest of a large CSV:

    python -I -S _rows.py ROWS COLUMN...

Each COLUMN is its values' struct format character, as a memoryview of the
column reports it (``l`` or ``q`` for int64, ``i`` for int32, ``d`` for
float64), followed by its fields per row, e.g. ``l1 d100``.  Standard input
holds each column's ROWS rows of raw native-order values, one column after
the other; the rows go to standard output as CSV lines with no header.
Both sides build their lines with :func:`lines` over the same kind of
buffer, so a worker's bytes are those the CLI would have written.  Every
line is ASCII, so no side depends on the locale's encoding.
"""

import sys
from itertools import chain

#: Fields a CSV needs per part before its rows are split between processes.
#: A worker starts in about 10 ms, the time this process takes to format
#: about 36k fields, so a part of this size saves at least about 25 ms.
_SPLIT_FIELDS = 1 << 17


def _cpus() -> int:
    """The number of CPUs this process may run on, busy or not."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write(f, header, columns) -> None:
    """Write the CSV of ``header`` and the rows of ``columns`` to the binary file ``f``.

    A column is a 1-D array, or a 2-D array whose rows fill several fields.
    The rows are split into one part per CPU this process may use, or fewer,
    so that each part holds at least ``_SPLIT_FIELDS`` fields.  This process
    formats the first part, and a worker process running this file formats
    each other into a temporary file, which is appended to ``f`` in order.
    This process formats the rows of a worker that cannot be started, or
    whose temporary files cannot be made; a worker that fails raises OSError
    (exit 3 in the CLI).  Every worker has ended when this returns or raises.
    """
    import math

    rows = len(columns[0])
    parts = max(1, min(_cpus(), sum(c.size for c in columns) // _SPLIT_FIELDS, rows))
    flat = [(memoryview(c.ravel()), math.prod(c.shape[1:])) for c in columns]
    spec = [f"{view.format}{width}" for view, width in flat]
    bounds = [rows * k // parts for k in range(parts + 1)]
    f.write((",".join(header) + "\n").encode())
    pieces = []  # (lo, hi, worker or None if this process formats the rows, its output file)
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import shutil  # here: only a split CSV needs them, and subprocess takes about 4 ms
            import subprocess
            import tempfile

            proc = made = None
            try:
                made = tempfile.TemporaryFile()
                # The worker reads its rows from a file, not a pipe, so this
                # process does not wait on the worker's start-up to hand them over.
                with tempfile.TemporaryFile() as given:
                    for view, width in flat:
                        given.write(view[lo * width:hi * width])
                    given.seek(0)
                    proc = subprocess.Popen(
                        [sys.executable, "-I", "-S", __file__, str(hi - lo), *spec],
                        stdin=given, stdout=made,
                    )
            except OSError:  # this process formats these rows instead
                pass
            pieces.append((lo, hi, proc, made))
        f.writelines(lines(flat, 0, bounds[1]))
        for lo, hi, proc, made in pieces:
            if proc is None:
                f.writelines(lines(flat, lo, hi))
                continue
            if proc.wait() != 0:
                raise OSError(f"CSV worker for rows {lo}-{hi} exited with code {proc.returncode}")
            made.seek(0)
            shutil.copyfileobj(made, f)
    finally:
        for _, _, proc, made in pieces:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            if made is not None:
                made.close()


def lines(columns, lo, hi):
    """Yield the CSV lines of rows ``lo`` to ``hi`` as ASCII bytes.

    ``columns`` holds, per column, a flat memoryview of its values and its
    fields per row.  A field is the ``repr`` of a Python int or float.
    """
    fields = [_row_lists(view, width, lo, hi) for view, width in columns]
    return ((",".join(map(repr, chain.from_iterable(r))) + "\n").encode() for r in zip(*fields))


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
    sys.stdout.buffer.writelines(lines(columns, 0, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
