"""The one output writer (ionread._text): its formats, its chunk
boundaries in every table the CLI writes, and a guard that no other
module formats output itself."""

import re
from pathlib import Path

import numpy as np
import pytest

import ionread
from ionread._text import _CSV_ROWS, _record, _table
from ionread.ccd import CorrelationReport
from ionread.cli import run_command
from ionread.detmodel import LeakParams, PhotonHistogram, get_species, pmf_arrays
from ionread.fidelity import format_curve_csv
from ionread.fitkit import FitResult, format_model_csv, model_distributions

ROWS = _CSV_ROWS
SIZES = [0, 1, ROWS - 1, ROWS, ROWS + 1]


def reference_csv(header, fmt, rows) -> str:
    """Reference: the row-by-row write that the chunked writer replaced."""
    return "".join([header + "\n", *(fmt % tuple(row) + "\n" for row in rows)])


class TestRecord:
    def test_each_type_has_its_format(self):
        fields = dict(yes=True, no=False, d=3, x=0.1 + 0.2, tiny=1e-300, bg=None, scheme="p32")
        assert _record(fields) == "yes: true\nno: false\nd: 3\nx: 0.3\ntiny: 1e-300\nbg: none\nscheme: p32\n"


class TestTable:
    def test_dtype_picks_the_format(self):
        columns = [np.array([1, -2]), np.array([0.1 + 0.2, np.nan]), np.array([True, False]), np.array(["a", "bc"])]
        assert "".join(_table("i,x,b,s", columns)) == "i,x,b,s\n1,0.3,1,a\n-2,nan,0,bc\n"

    def test_integers_beside_floats_stay_exact(self):
        big = 2**53 + 1
        assert "".join(_table("n,x", [np.array([big]), np.array([0.5])])) == f"n,x\n{big},0.5\n"

    @pytest.mark.parametrize("trials, width", [(1, 3), (ROWS // 3, 3), (ROWS // 3 + 1, 3), (2 * ROWS // 7 + 1, 7),
                                               (2, ROWS + 1)])
    def test_two_d_columns_read_row_major(self, trials, width):
        # a broadcast view, a transposed (non-contiguous) array and a contiguous one
        values = np.random.default_rng(trials).random((trials, width))
        columns = [np.broadcast_to(np.arange(trials)[:, None], values.shape),
                   np.asfortranarray(values), values.copy()]
        rows = zip(np.repeat(np.arange(trials), width).tolist(), values.ravel().tolist(), values.ravel().tolist())
        assert "".join(_table("t,a,b", columns)) == reference_csv("t,a,b", "%d,%.9g,%.9g", rows)

    def test_chunks_hold_at_most_csv_rows(self):
        chunks = list(_table("n", [np.arange(2 * ROWS + 1)]))
        assert [chunk.count("\n") for chunk in chunks] == [1, ROWS, ROWS, 1]


class TestChunkBoundaries:
    @pytest.mark.parametrize("n_max", [0, ROWS - 2, ROWS - 1, ROWS])
    def test_dist(self, n_max, tmp_path, capsys):
        leak, eta = LeakParams(30.0, 0.01, 0.002), 0.5
        config = tmp_path / "leak.json"
        config.write_text('{"lambda0": 30.0, "alpha1": 0.01, "alpha2": 0.002, "eta": 0.5, "n_max": %d}' % n_max)
        assert run_command(["dist", "--config", str(config), "--out", str(tmp_path / "dist.csv")]) == 0
        assert run_command(["dist", "--config", str(config)]) == 0
        dark, bright = pmf_arrays(leak, eta, n_max)
        expected = reference_csv("n,p_dark,p_bright", "%d,%.9g,%.9g",
                                 zip(range(n_max + 1), dark.tolist(), bright.tolist()))
        assert (tmp_path / "dist.csv").read_text() == expected
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("size", SIZES)
    def test_curve(self, size):
        rng = np.random.default_rng(size)
        keys = ("eta", "infidelity_numeric", "infidelity_approx", "lambda0_opt", "d_opt")
        rows = [dict(zip(keys, [*rng.random(4).tolist(), int(rng.integers(0, 50))])) for _ in range(size)]
        expected = reference_csv(",".join(keys), "%.9g,%.9g,%.9g,%.9g,%d", ([row[k] for k in keys] for row in rows))
        assert format_curve_csv(rows) == expected

    @pytest.mark.parametrize("bins", [1, ROWS - 1, ROWS, ROWS + 1])
    @pytest.mark.parametrize("with_bright", [True, False])
    def test_model(self, bins, with_bright):
        rng = np.random.default_rng(bins)
        dark = PhotonHistogram(values=tuple(rng.integers(0, 100, bins).tolist()))
        bright = PhotonHistogram(values=tuple(rng.integers(0, 100, bins // 2 + 1).tolist())) if with_bright else None
        result = FitResult(1.4e-3, 0.25, 1.5e-3, None, 100.0, True, 3)
        species = get_species("cd111")
        models = model_distributions(species, 150e-6, 1.4e-3, 0.25, 1.5e-3, None, n_top=bins - 1)
        counts = [np.asarray(h.values if h else ()) for h in (dark, bright)]
        columns = [np.arange(bins)]
        for data, model in zip(counts, models):
            columns += [np.pad(data, (0, bins - len(data))), model[:bins] * data.sum()]
        expected = reference_csv("n,dark_count,dark_model,bright_count,bright_model", "%d,%.9g,%.9g,%.9g,%.9g",
                                 zip(*(c.tolist() for c in columns)))
        assert format_model_csv(result, dark, bright, species, 150e-6) == expected

    # n_ions * (n_ions - 1) rows: 0, 2, and either side of one and of two chunks
    @pytest.mark.parametrize("n_ions", [1, 2, 64, 65, 91, 92])
    def test_correlation(self, n_ions):
        rng = np.random.default_rng(n_ions)
        square = lambda: tuple(map(tuple, rng.random((n_ions, n_ions)).tolist()))  # noqa: E731
        defined = tuple(map(tuple, (rng.random((n_ions, n_ions)) < 0.9).tolist()))
        report = CorrelationReport(1000, tuple(rng.random(n_ions).tolist()), square(), square(), square(),
                                   tuple(rng.integers(0, 1000, n_ions).tolist()), defined)
        rows = [(i, j, report.marginals[i], report.cond_probs[i][j], report.deviation[i][j], report.stderr[i][j],
                 report.cond_counts[j], 1 if report.defined[i][j] else 0)
                for i in range(n_ions) for j in range(n_ions) if i != j]
        expected = reference_csv("i,j,p_i,p_i_given_j,deviation,stderr,n_cond,defined",
                                 "%d,%d,%.9g,%.9g,%.9g,%.9g,%d,%d", rows)
        assert report.format_csv() == expected


def test_output_format_lives_in_the_writer():
    # the float format and the joined-lines output build appear only in _text
    build = re.compile(r'"\\n"\.join\(.*\)\s*\+\s*"\\n"')
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(Path(ionread.__file__).parent.glob("*.py")) if path.name != "_text.py"
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "%.9g" in line or build.search(line)]
    assert found == []
