import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import shuffle_window
from isingmarket.panels import (Panel, binarize, load_price_csv, load_sector_csv,
                                log_returns, standardize_window, windows)
from isingmarket.stats import ConfigError


def make_panel(values, kind="raw"):
    values = np.asarray(values, dtype=float)
    n, length = values.shape
    tickers = tuple(f"T{i}" for i in range(n))
    dates = tuple(f"d{t:05d}" for t in range(length))
    return Panel(tickers, dates, values, kind)


def make_prices(values):
    return make_panel(values, "price")


class TestLogReturns:
    def test_flat_prices_give_zero(self):
        r = log_returns(make_prices([[100.0, 100.0]]))
        np.testing.assert_array_equal(r.values, [[0.0]])

    def test_direct_definition(self):
        r = log_returns(make_prices([[100.0, 110.0, 99.0]]))
        np.testing.assert_allclose(r.values, [[np.log(1.1), np.log(0.9)]], rtol=1e-12)
        assert r.kind == "raw"

    def test_length_bookkeeping_full_history(self):
        # 5828 trading days of prices give 5827 return steps
        rng = np.random.default_rng(0)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(2, 5828)), axis=1)) * 100
        r = log_returns(make_prices(prices))
        assert r.n_days == 5827
        assert sum(1 for _ in windows(r, 250)) == 5578

    def test_dates_shift_to_later_price(self):
        panel = make_prices([[1.0, 2.0, 3.0]])
        r = log_returns(panel)
        assert r.dates == panel.dates[1:]


class TestBinarize:
    def test_sign_with_zero_rule(self):
        r = make_panel([[0.02, -0.01, 0.0]])
        np.testing.assert_array_equal(binarize(r).values, [[1.0, -1.0, 1.0]])

    def test_all_negative(self):
        r = make_panel([[-0.1, -0.2, -0.3]])
        np.testing.assert_array_equal(binarize(r).values, [[-1.0, -1.0, -1.0]])

    def test_idempotent_on_binary(self):
        r = binarize(make_panel([[0.5, -0.5, 0.1, -0.1]]))
        again = binarize(r)
        np.testing.assert_array_equal(again.values, r.values)

    def test_sign_agrees_with_input(self):
        rng = np.random.default_rng(1)
        r = make_panel(rng.normal(size=(4, 100)))
        b = binarize(r)
        assert np.all(b.values * r.values >= 0.0)


class TestStandardize:
    def test_three_point_window(self):
        out = standardize_window(np.array([[1.0, 2.0, 3.0]]))
        sigma = np.std([1.0, 2.0, 3.0])  # population
        np.testing.assert_allclose(out, [[-1 / sigma, 0.0, 1 / sigma]], rtol=1e-12)

    def test_constant_window_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            standardize_window(np.array([[1.0, 1.0, 1.0]]))

    def test_gaussian_windows_have_unit_moments(self):
        rng = np.random.default_rng(2)
        r = make_panel(rng.normal(2.0, 5.0, size=(3, 400)))
        for _, block in windows(r, 100, stride=100):
            out = standardize_window(block)
            np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
            np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-10)

    def test_window_helper_names_series(self):
        with pytest.raises(ValueError, match="series 1"):
            standardize_window(np.array([[1.0, 2.0], [3.0, 3.0]]))


class TestWindows:
    def test_counts_and_end_dates(self):
        r = make_panel(np.arange(10.0).reshape(2, 5))
        got = list(windows(r, 3))
        assert len(got) == 3
        assert [d for d, _ in got] == ["d00002", "d00003", "d00004"]
        np.testing.assert_array_equal(got[0][1], r.values[:, 0:3])

    def test_single_full_window(self):
        r = make_panel(np.arange(10.0).reshape(2, 5))
        got = list(windows(r, 5))
        assert len(got) == 1

    def test_too_long_window_rejected(self):
        r = make_panel(np.arange(10.0).reshape(2, 5))
        with pytest.raises(ValueError):
            windows(r, 6)

    def test_stride_one_reconstructs_tail(self):
        rng = np.random.default_rng(4)
        r = make_panel(rng.normal(size=(3, 40)))
        t = 7
        tail = np.stack([w[:, -1] for _, w in windows(r, t)], axis=1)
        np.testing.assert_array_equal(tail, r.values[:, t - 1 :])


class TestShuffleWindow:
    def test_rows_are_permutations(self):
        w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = shuffle_window(w, seed=0)
        np.testing.assert_array_equal(np.sort(out, axis=1), np.sort(w, axis=1))

    def test_sorted_rows_bit_exact(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(6, 50))
        out = shuffle_window(w, seed=9)
        assert np.array_equal(np.sort(out, axis=1), np.sort(w, axis=1))

    def test_means_preserved(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(4, 200))
        out = shuffle_window(w, seed=3)
        np.testing.assert_allclose(out.mean(axis=1), w.mean(axis=1), atol=1e-14)

    def test_deterministic_given_seed(self):
        w = np.random.default_rng(7).normal(size=(3, 20))
        assert np.array_equal(shuffle_window(w, 11), shuffle_window(w, 11))
        assert not np.array_equal(shuffle_window(w, 11), shuffle_window(w, 12))

    def test_cross_series_covariance_killed(self):
        # correlated +-1 rows; shuffling should drive the mean off-diagonal
        # covariance to zero on average over seeds
        rng = np.random.default_rng(8)
        common = np.sign(rng.normal(size=300))
        w = np.where(rng.random((5, 300)) < 0.8, common, -common)
        offdiag_means = []
        for seed in range(100):
            s = shuffle_window(w, seed)
            c = np.cov(s, bias=True)
            offdiag_means.append(c[~np.eye(5, dtype=bool)].mean())
        offdiag_means = np.asarray(offdiag_means)
        se = offdiag_means.std(ddof=1) / np.sqrt(len(offdiag_means))
        assert abs(offdiag_means.mean()) < max(3 * se, 1e-3)
        # the unshuffled window is strongly correlated by construction
        raw = np.cov(w, bias=True)
        assert raw[~np.eye(5, dtype=bool)].mean() > 0.2


class TestPanelValidation:
    def test_prices_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            make_prices([[1.0, -2.0]])

    def test_dates_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Panel(("A",), ("d2", "d1"), np.array([[1.0, 2.0]]), "price")

    def test_binary_kind_enforced(self):
        with pytest.raises(ValueError, match="binary"):
            make_panel([[0.5, 1.0]], kind="binary")

    def test_values_read_only(self):
        r = make_panel([[1.0, 2.0]])
        with pytest.raises(ValueError):
            r.values[0, 0] = 9.0

    def test_contiguous_float_matrix_is_not_copied(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert make_prices(values).values is values

    # per kind: a matrix it accepts, and one it rejects for its kind alone
    KIND_VALUES = {
        "price": ([[1.0, 2.0]], [[1.0, 0.0]], "positive"),
        "raw": ([[0.5, -0.5]], None, None),
        "binary": ([[1.0, -1.0]], [[1.0, 0.5]], "binary"),
    }

    @pytest.mark.parametrize("kind", KIND_VALUES)
    def test_each_kind_checks_its_values_and_its_use(self, kind):
        good, bad, reason = self.KIND_VALUES[kind]
        panel = make_panel(good, kind)
        assert panel.kind == kind and panel.n_series == 1 and panel.n_days == 2
        with pytest.raises(ValueError, match="finite"):
            make_panel([[1.0, np.nan]], kind)
        if bad is not None:
            with pytest.raises(ValueError, match=reason):
                make_panel(bad, kind)
        # log returns are taken of prices only; signs of returns only
        if kind == "price":
            assert log_returns(panel).kind == "raw"
            with pytest.raises(ValueError, match="log_returns of the prices"):
                binarize(panel)
        else:
            assert binarize(panel).kind == "binary"
            with pytest.raises(ValueError, match="needs a price panel"):
                log_returns(panel)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="standardized"):
            make_panel([[1.0, -1.0]], "standardized")


class TestCsvIngest:
    def test_loads_and_drops_bad_tickers(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,AAA,BBB,CCC,DDD\n"
            "2001-01-01,10.0,5.0,,3.0\n"
            "2001-01-02,10.5,-5.0,2.0,3.1\n"
            "2001-01-03,10.2,5.1,2.1,3.2\n"
        )
        panel, dropped = load_price_csv(path)
        assert panel.tickers == ("AAA", "DDD")
        assert panel.kind == "price"
        assert set(dropped) == {"BBB", "CCC"}
        assert "non-positive" in dropped["BBB"]
        assert panel.n_days == 3

    def test_cell_rules(self, tmp_path):
        path = tmp_path / "prices.csv"
        cells = {"BLK": "", "ABC": "abc", "INF": "inf", "NIN": "-inf", "NAN": "nan",
                 "ZER": "0", "NZR": "-0", "PAD": " 12.5 "}
        path.write_text(
            "date," + ",".join(cells) + ",OK\n"
            "2001-01-01," + ",".join("3.0" for _ in cells) + ",1.5\n"
            "2001-01-02," + ",".join(cells.values()) + ",0.1\n"
            "2001-01-03," + ",".join("3.0" for _ in cells) + ",2e3\n")
        panel, dropped = load_price_csv(path)
        assert panel.tickers == ("PAD", "OK")
        assert dropped == {
            **{t: "missing or non-numeric price on 2001-01-02"
               for t in ("BLK", "ABC", "INF", "NIN", "NAN")},
            "ZER": "non-positive price on 2001-01-02",
            "NZR": "non-positive price on 2001-01-02",
        }
        expected = [[float(c) for c in ("3.0", " 12.5 ", "3.0")],
                    [float(c) for c in ("1.5", "0.1", "2e3")]]
        assert panel.values.tobytes() == np.array(expected).tobytes()

    def test_first_bad_cell_names_the_reason(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,EARLY,LATE,OK\n"
            "2001-01-01,1.0,1.0,1.0\n"
            "2001-01-02,-2.0,,1.0\n"
            "2001-01-03,,0,1.0\n")
        _, dropped = load_price_csv(path)
        assert dropped == {"EARLY": "non-positive price on 2001-01-02",
                                  "LATE": "missing or non-numeric price on 2001-01-02"}

    def test_all_bad_is_an_error(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,AAA\n2001-01-01,0\n2001-01-02,1\n")
        with pytest.raises(ValueError, match="every ticker"):
            load_price_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("day,AAA\n2001-01-01,1\n2001-01-02,1\n")
        with pytest.raises(ValueError, match="header"):
            load_price_csv(path)

    def test_repeated_ticker_names_file_and_ticker(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,A,B,A\n2001-01-01,1,2,3\n2001-01-02,1,2,3\n")
        with pytest.raises(ValueError, match=r"prices\.csv: duplicate ticker 'A'"):
            load_price_csv(path)

    @pytest.mark.parametrize("header, column", [("date,,AAA", 2), ("date, ,AAA", 2),
                                                ("date,AAA,\t", 3)])
    def test_blank_ticker_names_file_and_column(self, tmp_path, header, column):
        path = tmp_path / "prices.csv"
        path.write_text(f"{header}\n2001-01-01,1,2\n2001-01-02,1,2\n")
        with pytest.raises(ValueError) as err:
            load_price_csv(path)
        assert str(err.value) == f"{path}: column {column} has a blank ticker"

    @pytest.mark.parametrize("date", ["2001-01-01", "2001-01-02"])  # earlier, repeated
    def test_unordered_date_names_file_row_and_dates(self, tmp_path, date):
        path = tmp_path / "prices.csv"
        path.write_text(f"date,AAA\n2001-01-02,1.0\n\n{date},2.0\n2001-01-05,3.0\n")
        with pytest.raises(ValueError, match=rf"prices\.csv: row 4: date '{date}' "
                                             r"does not follow '2001-01-02'"):
            load_price_csv(path)

    # price CSV text from the cells real files bring: good prices (most
    # often), blank, nan, inf, overflow, zero, negative and malformed cells,
    # bad dates and tickers (blank ones among them), rows one cell short or
    # long, blank lines and either line ending.  A row's date None is its
    # own increasing date; a False date makes the row a blank line.
    CELLS = hs.sampled_from(["1", "2.5", " 30 ", "1e308", "5e-324", "7"] * 5
                            + ["", "nan", "inf", "-inf", "1e309", "0", "-0", "-1.5",
                               "abc", "1.0.0", '"4"', '"5', "1,"])
    DATES = hs.sampled_from([None] * 16 + [False, "", "2001-01-01", "01/02/2001", "x"])
    TICKERS = hs.sampled_from(["AAA", "BBB", "CCC", "DDD"] * 3 + [" AAA", "", " ", '"D,E"'])
    ROW = hs.tuples(DATES, hs.lists(CELLS, min_size=5, max_size=5),
                    hs.sampled_from([0] * 16 + [-1, 1]))

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(hs.sampled_from(["date"] * 16 + [" Date", "day", ""]),
           hs.lists(TICKERS, min_size=1, max_size=4, unique=True),
           hs.lists(ROW, min_size=2, max_size=8), hs.sampled_from(["\n", "\r\n"]))
    def test_price_text_loads_finite_returns_or_names_its_file(self, tmp_path_factory,
                                                              first, tickers, rows, eol):
        lines = [",".join([first, *tickers])]
        for k, (date, cells, extra) in enumerate(rows):
            date = f"2001-02-{k + 10}" if date is None else date
            lines.append("" if date is False else ",".join([date, *cells[:len(tickers) + extra]]))
        path = tmp_path_factory.getbasetemp() / "prices.csv"
        path.write_bytes(eol.join(lines).encode() + eol.encode())
        try:
            panel, _ = load_price_csv(path)
        except ValueError as err:
            assert str(err).startswith(f"{path}: ")
            return
        assert np.all(np.isfinite(log_returns(panel).values))

    def test_sector_csv(self, tmp_path):
        path = tmp_path / "sectors.csv"
        path.write_text("ticker,name,sector\nAAA,Alpha Inc.,Tech\nBBB,Beta Co.,Energy\n")
        smap = load_sector_csv(path)
        assert smap.labels_for(["BBB", "AAA"]) == ["Energy", "Tech"]
        assert smap.sectors == ("Energy", "Tech")
        with pytest.raises(ConfigError, match="ZZZ"):
            smap.labels_for(["ZZZ"])

    def test_short_sector_row_names_its_row(self, tmp_path):
        path = tmp_path / "sectors.csv"
        path.write_text("ticker,name,sector\nAAA,Alpha Inc.,Tech\n\nB,b\n")
        with pytest.raises(ValueError, match=r"sectors\.csv: row 4 has 2 cells, expected 3"):
            load_sector_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("ticker,name,sector\nAAA,Alpha Inc.,Tech\n,x,Tech\n",
         "row 3 has a blank ticker or sector"),
        ("ticker,name,sector\nAAA,Alpha Inc.,Tech\n\nBBB,Beta Co., \n",
         "row 4 has a blank ticker or sector"),
        ("ticker,name,sector\nA,Alpha Inc.,Tech\nB,Beta Co.,Energy\nA,Again,Tech\n",
         "row 4: duplicate ticker 'A'"),
    ], ids=["blank ticker", "blank sector", "duplicate ticker"])
    def test_bad_sector_row_names_its_row_and_ticker(self, tmp_path, text, message):
        path = tmp_path / "sectors.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_sector_csv(path)
        assert str(err.value) == f"{path}: {message}"



def csv_call(name, text, load):
    """A call that writes `text` to `name` in the given directory and loads it."""
    def call(directory):
        path = directory / name
        path.write_text(text)
        return load(path)
    return call


# checks no other test reaches: (call on a scratch directory, message)
INPUT_CHECKS = {
    "panel shape": (lambda _: Panel(("A",), ("d1", "d2"), np.ones((2, 2)), "price"),
                    "price matrix shape (2, 2) does not match 1 tickers x 2 dates"),
    "duplicate tickers": (lambda _: Panel(("A", "A"), ("d1", "d2"), np.ones((2, 2)), "raw"),
                          "duplicate tickers"),
    "price row cells": (csv_call("prices.csv", "date,AAA,BBB\n2001-01-01,1,2\n2001-01-02,1\n",
                                 load_price_csv),
                        "{dir}/prices.csv: row 3 has 2 cells, expected 3"),
    "one price row": (csv_call("prices.csv", "date,AAA\n2001-01-01,1\n\n", load_price_csv),
                      "{dir}/prices.csv: need at least two price rows"),
    "sector header": (csv_call("sectors.csv", "ticker,sector,name\nAAA,Tech,Alpha\n",
                               load_sector_csv),
                      "{dir}/sectors.csv: expected header 'ticker,name,sector'"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks_name_what_they_reject(tmp_path, case):
    call, message = INPUT_CHECKS[case]
    with pytest.raises(ValueError) as err:
        call(tmp_path)
    assert err.type is ValueError and str(err.value) == message.format(dir=tmp_path)
