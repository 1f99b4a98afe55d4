"""The one output format: CSV tables and name: value records.

Floats print as %.9g and integers as %d; a record prints a bool as
true/false and None as none. Tables go out _CSV_ROWS rows at a time, with
the same bytes as a row-by-row write. Only the table writer imports numpy.
"""

_CSV_ROWS = 4096
_FLOAT = "%.9g"


def _table(header: str, columns):
    """The CSV text of equal-size columns: the header line, then chunks of _CSV_ROWS rows.

    Each column's dtype picks its format: %d for integers and bools, %.9g
    for floats, %s for anything else. Columns are read in row-major order,
    so a (trials, ions) column gives one row per trial and ion.
    """
    import numpy as np

    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "biu" else _FLOAT if c.dtype.kind == "f" else "%s"
                   for c in columns) + "\n"
    # columns of one dtype share its table; mixed ones are held as Python objects, exact at any size
    dtype = columns[0].dtype if len({c.dtype for c in columns}) == 1 else object
    yield header + "\n"
    for start in range(0, columns[0].size, _CSV_ROWS):
        stop = min(start + _CSV_ROWS, columns[0].size)
        table = np.empty((stop - start, len(columns)), dtype)
        for j, column in enumerate(columns):
            table[:, j] = _values(column, start, stop)
        yield row * (stop - start) % tuple(table.ravel().tolist())


def _values(column, start: int, stop: int):
    """column's values start:stop in row-major order, copying at most the rows that hold them."""
    width = column.size // len(column)
    first = start // width
    return column[first : -(-stop // width)].reshape(-1)[start - first * width : stop - first * width]


def _record(fields: dict) -> str:
    """One name: value line per field, in order."""
    return "".join(f"{name}: {_value(value)}\n" for name, value in fields.items())


def _value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return "%d" % value if isinstance(value, int) else _FLOAT % value
