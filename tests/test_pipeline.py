import base64
import csv
import math
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cnnlstm.errors import (
    CheckpointFormatError,
    CompatibilityError,
    ConfigError,
    DataError,
    PipelineError,
)
from cnnlstm.pipeline import (
    FeatureFrame,
    PrepareConfig,
    add_moving_averages,
    add_yield,
    apply_minmax,
    clean_three_sigma,
    correlations,
    fit_minmax,
    impute_mean,
    invert_minmax,
    load_dataset,
    load_ohlcv,
    make_windows,
    pca_fit,
    pca_transform,
    prepare_dataset,
    save_dataset,
    select_by_correlation,
    split_indices,
)
from cnnlstm.model import ModelConfig, build
from cnnlstm.optim import OptimConfig
from cnnlstm.synth import synthetic_ohlcv
from cnnlstm.training import TrainConfig, train
from conftest import write_csv
from oracles import (
    ReferenceCsvError,
    jacobi_eigh,
    pearson,
    reference_array_lines,
    reference_clean_impute,
    reference_load_ohlcv,
)


def days(n, start=date(2020, 1, 1)):
    return [start + timedelta(days=i) for i in range(n)]


def frame_of(**columns):
    n = len(next(iter(columns.values())))
    return FeatureFrame(
        dates=days(n),
        columns={k: np.asarray(v, dtype=np.float64) for k, v in columns.items()},
    )


class TestLoadOhlcv:
    def write(self, tmp_path, body):
        path = tmp_path / "prices.csv"
        path.write_text("Date,Open,High,Low,Close,Volume\n" + body)
        return path

    def test_well_formed(self, tmp_path):
        path = self.write(
            tmp_path,
            "2020-01-01,1,2,0.5,1.5,100\n"
            "2020-01-02,1.5,2.5,1,2,110\n"
            "2020-01-03,2,3,1.5,2.5,120\n",
        )
        s = load_ohlcv(path)
        assert len(s) == 3
        assert s.dates == [date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)]
        assert np.array_equal(s.columns["close"], [1.5, 2.0, 2.5])

    def test_reverse_order_is_sorted(self, tmp_path):
        path = self.write(
            tmp_path,
            "2020-01-03,2,3,1.5,2.5,120\n"
            "2020-01-01,1,2,0.5,1.5,100\n"
            "2020-01-02,1.5,2.5,1,2,110\n",
        )
        s = load_ohlcv(path)
        assert s.dates == days(3)
        assert np.array_equal(s.columns["open"], [1.0, 1.5, 2.0])

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = self.write(tmp_path, "2020-01-01,1,2,0.5,,100\n2020-01-02,1,2,0.5,1.5,100\n")
        s = load_ohlcv(path)
        assert len(s) == 2
        assert math.isnan(s.columns["close"][0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("Date,Open,High,Low,Adj Close,Volume\n2020-01-01,1,2,0.5,1,100\n")
        with pytest.raises(DataError, match="line 1"):
            load_ohlcv(path)

    def test_unparseable_number_names_line(self, tmp_path):
        path = self.write(tmp_path, "2020-01-01,1,2,0.5,1.5,100\n2020-01-02,1,x,0.5,1.5,100\n")
        with pytest.raises(DataError, match="line 3"):
            load_ohlcv(path)

    def test_unparseable_date_names_line(self, tmp_path):
        path = self.write(tmp_path, "01/02/2020,1,2,0.5,1.5,100\n")
        with pytest.raises(DataError, match="line 2"):
            load_ohlcv(path)

    def test_duplicate_date(self, tmp_path):
        path = self.write(tmp_path, "2020-01-01,1,2,0.5,1.5,100\n2020-01-01,1,2,0.5,1.6,100\n")
        with pytest.raises(DataError, match="duplicate date"):
            load_ohlcv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_ohlcv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_ohlcv(tmp_path / "missing.csv")

    def test_bad_cell_deep_in_a_long_file_names_line_and_column(self, tmp_path):
        days_ = days(15000)
        rows = [f"{d.isoformat()},1,2,0.5,1.5,100" for d in days_]
        rows[14998] = f"{days_[14998].isoformat()},1,2,0.5,1.5,1e5x"  # row 15,000 is line 15,000
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"line 15000: unparseable number '1e5x' in column volume"):
            load_ohlcv(path)

    def test_first_bad_row_wins_whatever_its_fault(self, tmp_path):
        path = self.write(
            tmp_path,
            "2020-01-01,1,2,0.5,1.5,100\n"
            "2020-01-02,1,2,0.5,1.5\n"
            "2020-01-03,1,x,0.5,1.5,100\n",
        )
        with pytest.raises(DataError, match=r"line 3: expected 6 cells, got 5"):
            load_ohlcv(path)
        path = self.write(tmp_path, "2020-01-01,1,2,y,1.5,100\n2020-02-30,1,2,0.5,1.5,100\n")
        with pytest.raises(DataError, match=r"line 2: unparseable number 'y' in column low"):
            load_ohlcv(path)

    def test_duplicate_dates_in_unsorted_file_name_both_lines(self, tmp_path):
        path = self.write(
            tmp_path,
            "2020-01-05,1,2,0.5,1.5,100\n"
            "2020-01-03,1,2,0.5,1.5,100\n"
            "\n"
            "2020-01-04,1,2,0.5,1.5,100\n"
            "2020-01-03,1,2,0.5,1.6,100\n"
            "2020-01-01,1,2,0.5,1.5,100\n"
            "2020-01-01,1,2,0.5,1.5,100\n"
            "2020-01-03,1,2,0.5,1.5,100\n",
        )
        with pytest.raises(
            DataError, match=r"line 6: duplicate date 2020-01-03 \(first seen on line 3\)"
        ):
            load_ohlcv(path)

    # line 3 opens a quoted cell that line 4 closes, so csv.reader row 4 starts on file line 5
    QUOTED_BREAK = '2020-01-01,1,2,0.5,1.5,100\n2020-01-02,"1\n",2,0.5,1.5,100\n'

    def test_error_after_a_quoted_line_break_names_the_file_line(self, tmp_path):
        path = self.write(tmp_path, self.QUOTED_BREAK + "2020-01-03,1,x,0.5,1.5,100\n")
        with pytest.raises(DataError, match=r"line 5: unparseable number 'x' in column high"):
            load_ohlcv(path)

    def test_duplicate_after_a_quoted_line_break_names_the_file_lines(self, tmp_path):
        path = self.write(tmp_path, self.QUOTED_BREAK + "2020-01-02,1,2,0.5,1.5,100\n")
        with pytest.raises(
            DataError, match=r"line 5: duplicate date 2020-01-02 \(first seen on line 3\)"
        ):
            load_ohlcv(path)

    def test_blank_lines_and_padded_cells(self, tmp_path):
        path = self.write(tmp_path, "\n2020-01-02, 1.5 ,2,  ,2,110\n\n 2020-01-01 ,1,2,0.5,1.5,100\n")
        s = load_ohlcv(path)
        assert s.dates == [date(2020, 1, 1), date(2020, 1, 2)]
        assert np.array_equal(s.columns["open"], [1.0, 1.5])
        assert np.isnan(s.columns["low"][1])


HEADERS = [
    "Date,Open,High,Low,Close,Volume",
    " Date , Open,High,Low,Close,Volume ",
    "Date,Open,High,Low,Adj Close,Volume",
    '"Date",Open,High,Low,Close,Volume',
    "",
]
GOOD_CELLS = ["1.5", "64.25", "-0.0", "1e5", "nan", "-inf", "0.1", "", " 2.5 ", "1_0", "1.5\u2003"]
ODD_CELLS = ["  ", "\t", "x", "\xa03", "\x1c4", '"7.5"', '"1,5"', "1\x002", "\x00"]
# csv.reader's limit is 131,072 characters a field: one at the limit, one past it
LONG_CELLS = ["1" * csv.field_size_limit(), "1" * (csv.field_size_limit() + 1)]
ODD_DATES = ["", "2020-13-01", '"2020-01-05"', "2020-01-05 x", "01/02/2020"]


@st.composite
def csv_texts(draw):
    """CSV text in the documented format with up to two faults: an odd cell,
    date, header or row length, a cell at or past csv.reader's size limit, or
    a quoted cell, which sends the text down the ``csv.reader`` path. Dates
    may repeat, and line breaks are mixed."""
    start = draw(st.sampled_from([date(2019, 1, 1), date(999, 12, 20)]))

    def day(offset):
        d = start + timedelta(days=offset)
        return draw(st.sampled_from(
            [d.isoformat(), f" {d.isoformat()} ", f"{d.year:04d}{d.month:02d}{d.day:02d}"]
        ))

    cell = st.sampled_from(GOOD_CELLS)
    offsets = draw(st.lists(st.integers(0, 40), max_size=12, unique=draw(st.booleans())))
    rows = [[day(o)] + [draw(cell) for _ in range(5)] for o in offsets]
    header = HEADERS[0]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(
            ["header", "cell", "date", "short", "long", "long+short", "quote", "long cell"]
        ))
        if fault == "header":
            header = draw(st.sampled_from(HEADERS[1:]))
            continue
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(1, len(rows[i]) - 1))
        if fault in ("cell", "long cell"):
            rows[i][j] = draw(st.sampled_from(ODD_CELLS if fault == "cell" else LONG_CELLS))
        elif fault == "date":
            rows[i][0] = draw(st.sampled_from(ODD_DATES))
        elif fault == "short":
            del rows[i][j]
        elif fault == "long":
            rows[i].insert(j, draw(cell))
        elif fault == "long+short":  # flattened, the two rows' tokens line up as two good rows
            rows[i].append(day(41))
            rows.insert(i + 1, [draw(cell) for _ in range(5)])
        else:
            rows[i][j] = f'"{rows[i][j]}"'
    lines = [header]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 1)) + [",".join(row)])
    breaks = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def load_outcome(load, path):
    """``("error", message)``, or ``("series", dates, columns as raw 64-bit words)``."""
    try:
        result = load(path)
    except (DataError, ReferenceCsvError) as exc:
        return "error", str(exc)
    dates, columns = (result.dates, result.columns) if isinstance(result, FeatureFrame) else result
    return "series", dates, {name: col.view(np.uint64).tolist() for name, col in columns.items()}


class TestLoadOhlcvAgainstRowByRowReader:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(text=csv_texts())
    # the cases that decide between the tokenisers, always run
    @example(text=HEADERS[0] + "\n2020-01-01,1,2,3,4,5,2020-01-02\n6,7,8,9,10\n")
    @example(text=HEADERS[0] + "\n2020-01-01,1," + LONG_CELLS[1] + ",3,4,5\n")
    @example(text=HEADERS[0] + "\n\r2020-01-01,1,2,3,4,5\r\n2020-01-01,1,,3,4,5\r")
    @example(text=HEADERS[0] + '\n2020-01-01,"1",2,3,4,5\n2020-01-02,1,  ,3,4,5')
    @example(text=HEADERS[0] + '\n2020-01-01,"1\r\n",2,3,4,5\n2020-01-01,1,x,3,4,5\n')
    @example(text=HEADERS[0] + '\n2020-01-01,"1\n\n",2,3,4,5\r2020-01-01,1,2,3,4,5\n')
    def test_same_series_or_same_error(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_ohlcv, path) == load_outcome(reference_load_ohlcv, path)

    def test_unquoted_text_does_not_need_csv_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "prices.csv"
        path.write_text("Date,Open,High,Low,Close,Volume\r\n 2020-01-02 , 1.5,,2,1_0,7\r\n\r\n"
                        "2020-01-01,1,2,3,4,5\r\n")
        want = reference_load_ohlcv(path)
        monkeypatch.setattr(csv, "reader", None)  # any call would raise TypeError
        got = load_ohlcv(path)
        assert got.dates == want[0]
        assert all(np.array_equal(got.columns[n], want[1][n], equal_nan=True) for n in want[1])

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, quote):
        # Excel's "CSV UTF-8" starts the file with one
        body = f"{quote}2020-01-01{quote},1,2,0.5,1.5,100\n2020-01-02,1,2,0.5,,100\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("Date,Open,High,Low,Close,Volume\n" + body, encoding="utf-8")
        marked.write_text("Date,Open,High,Low,Close,Volume\n" + body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfDate,")
        a, b = load_ohlcv(plain), load_ohlcv(marked)
        assert a.dates == b.dates == [date(2020, 1, 1), date(2020, 1, 2)]
        assert all(np.array_equal(a.columns[n], b.columns[n], equal_nan=True) for n in a.columns)


class TestCleanThreeSigma:
    def test_constant_column_unchanged(self):
        s = frame_of(**{"open": [5.0] * 10, "high": [6.0] * 10, "low": [4.0] * 10,
                          "close": [5.0] * 10, "volume": [1.0] * 10})
        out = clean_three_sigma(s)
        for name in s.columns:
            assert np.array_equal(out.columns[name], s.columns[name])

    def test_injected_outlier_flagged(self, rng):
        base = rng.standard_normal(100)
        vals = base.copy()
        vals[57] = 1e6
        s = frame_of(**{k: vals for k in ("open", "high", "low", "close", "volume")})
        out = clean_three_sigma(s)
        flagged = np.isnan(out.columns["close"])
        # brute-force the same rule
        mu = np.mean(vals)
        sd = np.std(vals, ddof=1)
        expected = np.abs(vals - mu) > 3 * sd
        assert np.array_equal(flagged, expected)
        assert flagged[57]

    def test_row_count_and_dates_preserved(self, rng):
        vals = rng.standard_normal(50)
        vals[3] = 500.0
        s = frame_of(**{k: vals.copy() for k in ("open", "high", "low", "close", "volume")})
        out = clean_three_sigma(s)
        assert len(out) == 50
        assert out.dates == s.dates

    def test_needs_two_observed(self):
        col = np.array([1.0] + [math.nan] * 4)
        s = frame_of(**{k: col.copy() for k in ("open", "high", "low", "close", "volume")})
        with pytest.raises(PipelineError):
            clean_three_sigma(s)


class TestImputeMean:
    def test_simple_fill(self):
        cols = {k: np.array([1.0, math.nan, 3.0]) for k in ("open", "high", "low", "close", "volume")}
        out = impute_mean(frame_of(**cols))
        assert np.array_equal(out.columns["close"], [1.0, 2.0, 3.0])

    def test_no_missing_is_identity(self, rng):
        vals = rng.standard_normal(20)
        s = frame_of(**{k: vals.copy() for k in ("open", "high", "low", "close", "volume")})
        out = impute_mean(s)
        assert np.array_equal(out.columns["open"], vals)

    def test_matches_brute_force(self, rng):
        vals = rng.standard_normal(60)
        mask = rng.random(60) < 0.2
        vals[mask] = math.nan
        s = frame_of(**{k: vals.copy() for k in ("open", "high", "low", "close", "volume")})
        out = impute_mean(s)
        fill = np.mean(vals[~np.isnan(vals)])
        expected = np.where(np.isnan(vals), fill, vals)
        assert np.array_equal(out.columns["close"], expected)

    def test_all_missing_column(self):
        cols = {k: np.array([1.0, 2.0]) for k in ("open", "high", "low", "close")}
        cols["volume"] = np.array([math.nan, math.nan])
        with pytest.raises(PipelineError, match="volume"):
            impute_mean(frame_of(**cols))


class TestMovingAverages:
    def test_constant_close(self):
        frame = frame_of(close=[5.0] * 120)
        out = add_moving_averages(frame)
        for w in (10, 50, 100):
            col = out.columns[f"sma_{w}"]
            assert np.isnan(col[: w - 1]).all()
            assert np.array_equal(col[w - 1 :], np.full(121 - w, 5.0))

    def test_window_two_by_hand(self):
        frame = frame_of(close=[1.0, 2.0, 3.0])
        out = add_moving_averages(frame, windows=(2,))
        col = out.columns["sma_2"]
        assert math.isnan(col[0])
        assert np.array_equal(col[1:], [1.5, 2.5])

    def test_matches_brute_force_trailing_mean(self, rng):
        close = rng.random(150) * 50 + 20
        out = add_moving_averages(frame_of(close=close))
        sma = out.columns["sma_10"]
        for t in range(9, 150):
            assert sma[t] == pytest.approx(np.mean(close[t - 9 : t + 1]), rel=1e-12)

    def test_too_short_names_required_length(self):
        with pytest.raises(PipelineError, match="100"):
            add_moving_averages(frame_of(close=[1.0] * 40))

    def test_requires_complete_close(self):
        with pytest.raises(PipelineError):
            add_moving_averages(frame_of(close=[1.0, math.nan] + [1.0] * 120))


class TestYield:
    def test_constant_close_gives_zero(self):
        out = add_yield(frame_of(close=[5.0] * 6))
        col = out.columns["yield"]
        assert math.isnan(col[0])
        assert not col[1:].any()

    def test_up_move(self):
        out = add_yield(frame_of(close=[100.0, 110.0]))
        assert out.columns["yield"][1] == pytest.approx(0.10, rel=1e-12)

    def test_down_move(self):
        out = add_yield(frame_of(close=[100.0, 90.0]))
        assert out.columns["yield"][1] == pytest.approx(-0.10, rel=1e-12)

    def test_zero_close_names_date(self):
        with pytest.raises(PipelineError, match="2020-01-02"):
            add_yield(frame_of(close=[1.0, 0.0, 2.0]))


class TestCorrelationSelection:
    def test_copy_of_target_kept(self, rng):
        close = rng.random(100)
        frame = frame_of(close=close, twin=close.copy())
        assert select_by_correlation(correlations(frame), 1.0) == ["twin"]

    def test_negated_target_kept(self, rng):
        close = rng.random(100)
        frame = frame_of(close=close, anti=-close)
        assert select_by_correlation(correlations(frame), 0.99) == ["anti"]

    def test_independent_noise_dropped(self, rng):
        close = rng.random(1000)
        noise = rng.random(1000)
        frame = frame_of(close=close, noise=noise)
        assert select_by_correlation(correlations(frame), 0.5) == []
        assert abs(correlations(frame)["noise"]) < 0.2

    def test_constant_feature_dropped_with_warning(self, rng):
        frame = frame_of(close=rng.random(50), flat=np.full(50, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the prepare report names it; no warning repeats it
            assert select_by_correlation(correlations(frame), 0.0) == []

    def test_scale_invariance(self, rng):
        close = rng.random(200)
        feat = 0.6 * close + 0.1 * rng.random(200)
        plain = frame_of(close=close, feat=feat)
        scaled = frame_of(close=close, feat=2000.0 * feat + 77.0)
        r1 = correlations(plain)["feat"]
        r2 = correlations(scaled)["feat"]
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert select_by_correlation({"feat": r1}, 0.5) == select_by_correlation({"feat": r2}, 0.5)

    def test_matches_plain_formula(self, rng):
        close = rng.random(80)
        feat = rng.random(80)
        r = correlations(frame_of(close=close, feat=feat))["feat"]
        assert r == pytest.approx(pearson(feat, close), abs=1e-12)

    def test_zero_variance_target(self):
        with pytest.raises(PipelineError):
            correlations(frame_of(close=np.full(10, 2.0), x=np.arange(10.0)))


class TestMinMax:
    def test_midpoint(self):
        frame = frame_of(x=[0.0, 10.0, 5.0])
        state = fit_minmax(frame, [0, 1], ["x"])
        out = apply_minmax(frame, state)
        assert np.array_equal(out.columns["x"], [0.0, 1.0, 0.5])

    def test_extrapolates_without_clipping(self):
        frame = frame_of(x=[0.0, 10.0, 20.0])
        state = fit_minmax(frame, [0, 1], ["x"])
        out = apply_minmax(frame, state)
        assert out.columns["x"][2] == 2.0

    def test_inverse_round_trip(self, rng):
        vals = rng.random(30) * 90 + 5
        frame = frame_of(close=vals)
        state = fit_minmax(frame, np.arange(30), ["close"])
        scaled = apply_minmax(frame, state)
        back = invert_minmax(scaled.columns["close"], state, "close")
        assert np.abs(back - vals).max() <= 1e-12

    def test_constant_column_maps_to_zero(self):
        frame = frame_of(x=[4.0, 4.0, 4.0])
        state = fit_minmax(frame, [0, 1, 2], ["x"])
        out = apply_minmax(frame, state)
        assert not out.columns["x"].any()

    def test_empty_fit_segment(self):
        with pytest.raises(PipelineError):
            fit_minmax(frame_of(x=[1.0, 2.0]), [], ["x"])

    def test_returns_only_the_fitted_columns_in_scaler_order(self):
        frame = frame_of(a=[0.0, 2.0], extra=[7.0, 8.0], b=[1.0, 5.0], c=[3.0, 3.0])
        state = fit_minmax(frame, [0, 1], ["c", "a", "b"])
        out = apply_minmax(frame, state)
        assert list(out.columns) == ["c", "a", "b"]
        assert out.dates == frame.dates
        assert np.array_equal(out.matrix(["c", "a", "b"]), [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])

    def test_missing_fitted_column_is_named(self):
        state = fit_minmax(frame_of(a=[0.0, 2.0], b=[1.0, 5.0], c=[1.0, 2.0]), [0, 1], ["a", "b", "c"])
        with pytest.raises(CompatibilityError, match="frame is missing columns: a, c$"):
            apply_minmax(frame_of(b=[1.0, 5.0], d=[0.0, 1.0]), state)


class TestPca:
    def test_single_direction_carries_all_variance(self, rng):
        # all three columns are affine images of one driver, so the
        # standardized cloud lies on a single direction: k=1, share 1
        driver = rng.standard_normal(40)
        frame = frame_of(a=driver, b=2.0 * driver + 5.0, c=-3.0 * driver + 2.0)
        state = pca_fit(frame, np.arange(40), 0.6, ["a", "b", "c"])
        assert state.n_components == 1
        assert state.explained_share == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        assert np.abs(state.basis[0] - expected).max() < 1e-9

    def test_full_variance_target_reconstructs(self, rng):
        data = rng.standard_normal((30, 4))
        frame = frame_of(**{f"f{j}": data[:, j] for j in range(4)})
        state = pca_fit(frame, np.arange(30), 1.0, [f"f{j}" for j in range(4)])
        assert state.n_components == 4
        out = pca_transform(frame, state)
        comps = np.stack([out.columns[f"pc_{j + 1}"] for j in range(4)], axis=1)
        z = (data - state.mean) / state.std
        recon = comps @ state.basis
        assert np.abs(recon - z).max() < 1e-9

    def test_matches_jacobi_oracle(self, rng):
        data = rng.standard_normal((50, 5)) @ rng.standard_normal((5, 5))
        frame = frame_of(**{f"f{j}": data[:, j] for j in range(5)})
        state = pca_fit(frame, np.arange(50), 1.0, [f"f{j}" for j in range(5)])
        z = (data - state.mean) / state.std
        cov = z.T @ z / 49.0
        evals, rows = jacobi_eigh(cov)
        assert np.abs(state.eigenvalues - evals).max() < 1e-9
        assert np.abs(state.basis - rows).max() < 1e-9

    def test_basis_rows_orthonormal(self, rng):
        data = rng.standard_normal((60, 4))
        frame = frame_of(**{f"f{j}": data[:, j] for j in range(4)})
        state = pca_fit(frame, np.arange(60), 0.99, [f"f{j}" for j in range(4)])
        gram = state.basis @ state.basis.T
        assert np.abs(gram - np.eye(state.n_components)).max() < 1e-9
        assert (np.diff(state.eigenvalues) <= 1e-12).all()
        assert (state.eigenvalues >= -1e-12).all()

    def test_sign_convention(self, rng):
        data = rng.standard_normal((50, 3))
        frame = frame_of(**{f"f{j}": data[:, j] for j in range(3)})
        state = pca_fit(frame, np.arange(50), 1.0, ["f0", "f1", "f2"])
        for row in state.basis:
            assert row[np.argmax(np.abs(row))] > 0

    def test_fewer_rows_than_features(self, rng):
        frame = frame_of(a=rng.random(3), b=rng.random(3), c=rng.random(3), d=rng.random(3))
        with pytest.raises(PipelineError):
            pca_fit(frame, np.arange(3), 0.95, ["a", "b", "c", "d"])

    def test_constant_column_named(self, rng):
        frame = frame_of(a=rng.random(10), b=np.full(10, 2.0))
        with pytest.raises(PipelineError, match="'b'"):
            pca_fit(frame, np.arange(10), 0.95, ["a", "b"])


class TestWindows:
    def test_count_arithmetic(self, rng):
        frame = frame_of(close=rng.random(10), x=rng.random(10))
        ds = make_windows(frame, lookback=3, horizon=1)
        assert ds.n == 7
        assert ds.inputs.shape == (7, 3, 1)

    def test_boundary_single_window(self, rng):
        frame = frame_of(close=rng.random(4), x=rng.random(4))
        ds = make_windows(frame, lookback=3, horizon=1)
        assert ds.n == 1
        assert np.array_equal(ds.inputs[0, :, 0], frame.columns["x"][:3])
        assert ds.targets[0] == frame.columns["close"][3]

    def test_targets_strictly_after_inputs(self, rng):
        frame = frame_of(close=rng.random(12), x=rng.random(12))
        ds = make_windows(frame, lookback=4, horizon=2)
        for i in range(ds.n):
            target_day = ds.target_dates[i]
            last_input_day = frame.dates[i + 3]
            assert target_day > last_input_day

    def test_window_contents_match_rows(self, rng):
        frame = frame_of(close=rng.random(9), x=rng.random(9), y=rng.random(9))
        ds = make_windows(frame, lookback=3, horizon=1)
        for i in range(ds.n):
            assert np.array_equal(ds.inputs[i, :, 0], frame.columns["x"][i : i + 3])
            assert np.array_equal(ds.inputs[i, :, 1], frame.columns["y"][i : i + 3])

    def test_too_short(self, rng):
        frame = frame_of(close=rng.random(3), x=rng.random(3))
        with pytest.raises(PipelineError):
            make_windows(frame, lookback=3, horizon=1)

    def test_inputs_are_a_read_only_view_of_the_feature_rows(self, rng):
        frame = frame_of(close=rng.random(50), x=rng.random(50), y=rng.random(50))
        ds = make_windows(frame, lookback=8, horizon=2)
        # overlapping windows share one copy of the rows
        assert np.shares_memory(ds.inputs[0], ds.inputs[1])
        root = ds.inputs
        while root.base is not None:
            root = root.base
        assert root.nbytes == 50 * 2 * 8  # the [L, F] feature matrix, not [N, T, F]
        assert not ds.inputs.flags.writeable
        with pytest.raises(ValueError):
            ds.inputs[0, 0, 0] = 1.0
        batch = ds.inputs[[3, 0]]  # indexing a batch copies just it
        assert batch.flags.writeable and batch.flags.c_contiguous


class TestSplit:
    def test_ten_windows_split_7_2_1(self, rng):
        frame = frame_of(close=rng.random(13), x=rng.random(13))
        train, val, test = split_indices(make_windows(frame, 3, 1).n)
        assert (train.size, val.size, test.size) == (7, 2, 1)

    def test_hundred_windows_split_70_20_10(self):
        train, val, test = split_indices(100)
        assert (train.size, val.size, test.size) == (70, 20, 10)

    def test_chronological_ordering(self, rng):
        frame = frame_of(close=rng.random(23), x=rng.random(23))
        ds = make_windows(frame, 3, 1)
        train, val, test = split_indices(ds.n)
        last_train = max(ds.target_dates[i] for i in train)
        first_val = min(ds.target_dates[i] for i in val)
        first_test = min(ds.target_dates[i] for i in test)
        assert last_train < first_val
        assert max(ds.target_dates[i] for i in val) < first_test

    def test_random_mode_disjoint_exhaustive(self):
        train, val, test = split_indices(57, mode="random", seed=4)
        merged = np.concatenate([train, val, test])
        assert np.array_equal(np.sort(merged), np.arange(57))
        again = split_indices(57, mode="random", seed=4)
        assert all(np.array_equal(a, b) for a, b in zip((train, val, test), again))
        other = split_indices(57, mode="random", seed=5)
        assert any(not np.array_equal(a, b) for a, b in zip((train, val, test), other))

    def test_random_mode_replays_the_numpy_stream(self):
        # a cache stores only the seed of a random split, so a numpy whose
        # default_rng(seed).permutation(n) changed would reload another split
        train, val, test = split_indices(57, mode="random", seed=4)
        assert val.tolist() == [2, 5, 9, 15, 17, 20, 22, 30, 31, 48, 52]
        assert test.tolist() == [3, 4, 6, 12, 14, 46, 53]
        assert train.tolist() == [
            0, 1, 7, 8, 10, 11, 13, 16, 18, 19, 21, 23, 24, 25, 26, 27, 28, 29, 32, 33,
            34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 47, 49, 50, 51, 54, 55, 56,
        ]

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            split_indices(10, ratios=(0.7, 0.2, 0.2))

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            split_indices(10, mode="shuffled")


def small_prepare_config(**overrides):
    base = dict(lookback=8, horizon=1, corr_threshold=0.3, pca=True,
                pca_variance=0.95, seed=5, sma_windows=(3, 5, 10))
    base.update(overrides)
    return PrepareConfig(**base)


class TestPrepareDataset:
    def test_deterministic(self):
        series = synthetic_ohlcv(rows=260, seed=2)
        cfg = small_prepare_config()
        a = prepare_dataset(series, cfg)
        b = prepare_dataset(synthetic_ohlcv(rows=260, seed=2), cfg)
        assert np.array_equal(a.dataset.inputs, b.dataset.inputs)
        assert np.array_equal(a.dataset.targets, b.dataset.targets)
        assert np.array_equal(a.dataset.train_idx, b.dataset.train_idx)

    def test_train_rows_scaled_into_unit_interval(self):
        series = synthetic_ohlcv(rows=260, seed=2)
        prepared = prepare_dataset(series, small_prepare_config(pca=False))
        ds = prepared.dataset
        train_rows = ds.inputs[ds.train_idx]
        assert train_rows.min() >= 0.0
        assert train_rows.max() <= 1.0
        train_targets = ds.targets[ds.train_idx]
        assert train_targets.min() >= 0.0 and train_targets.max() <= 1.0

    def test_summary_reports_splits(self):
        prepared = prepare_dataset(synthetic_ohlcv(rows=260, seed=2), small_prepare_config())
        text = prepared.describe()
        n = prepared.dataset.n
        expected = (int(0.7 * n), int(0.2 * n), n - int(0.7 * n) - int(0.2 * n))
        assert f"train={expected[0]} val={expected[1]} test={expected[2]}" in text

    def test_too_short_series(self):
        with pytest.raises(PipelineError):
            prepare_dataset(synthetic_ohlcv(rows=15, seed=2), small_prepare_config())

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.7, 0.2, 0.05, 0.05), (1.1, -0.2, 0.1),
                                        (math.nan, 0.5, 0.5)])
    def test_split_ratios_must_be_three_non_negative_shares(self, ratios):
        with pytest.raises(ConfigError, match="three non-negative"):
            small_prepare_config(split_ratios=ratios).validate()

    def test_pca_off_keeps_selected_columns(self):
        prepared = prepare_dataset(synthetic_ohlcv(rows=260, seed=2), small_prepare_config(pca=False))
        assert prepared.dataset.feature_names == prepared.preprocess.selected
        assert prepared.preprocess.pca is None


class TestDatasetCache:
    def test_round_trip(self, tmp_path):
        cfg = small_prepare_config()
        prepared = prepare_dataset(synthetic_ohlcv(rows=260, seed=2), cfg)
        path = tmp_path / "data.txt"
        save_dataset(prepared, path)
        loaded, cfg2 = load_dataset(path)
        assert np.array_equal(loaded.dataset.inputs, prepared.dataset.inputs)
        assert np.array_equal(loaded.dataset.targets, prepared.dataset.targets)
        assert np.array_equal(loaded.dataset.train_idx, prepared.dataset.train_idx)
        assert np.array_equal(loaded.dataset.test_idx, prepared.dataset.test_idx)
        assert loaded.dataset.target_dates == prepared.dataset.target_dates
        assert loaded.preprocess.selected == prepared.preprocess.selected
        assert np.array_equal(loaded.preprocess.pca.basis, prepared.preprocess.pca.basis)
        assert cfg2.lookback == cfg.lookback
        assert cfg2.split_mode == cfg.split_mode

    def cache_lines(self, tmp_path):
        prepared = prepare_dataset(synthetic_ohlcv(rows=260, seed=2), small_prepare_config())
        path = tmp_path / "data.txt"
        save_dataset(prepared, path)
        return path, path.read_text().splitlines()

    def test_bad_integer_names_its_line(self, tmp_path):
        path, lines = self.cache_lines(tmp_path)
        at = lines.index("lookback=8")
        lines[at] = "lookback=abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError, match=rf"line {at + 1}: bad value for lookback: 'abc'"):
            load_dataset(path)

    def test_damaged_column_block_names_its_line(self, tmp_path):
        path, lines = self.cache_lines(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith("column ")) + 1
        lines[at] = "#" + lines[at][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError, match=rf"line {at + 1}: bad base64 block"):
            load_dataset(path)

    def test_preprocessing_horizon_must_match_the_header(self, tmp_path):
        path, lines = self.cache_lines(tmp_path)
        at = lines.index("[preprocessing]") + 1
        assert lines[at] == "horizon=1" and lines.count("horizon=1") == 2
        lines[at] = "horizon=3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError) as exc:
            load_dataset(path)
        assert str(exc.value) == (
            f"{path}: header horizon=1 disagrees with [preprocessing] horizon=3"
        )

    def test_failed_save_keeps_the_previous_file(self, tmp_path, failing_writes):
        path, _ = self.cache_lines(tmp_path)
        before = path.read_bytes()
        prepared = prepare_dataset(synthetic_ohlcv(rows=300, seed=3), small_prepare_config())
        with failing_writes(), pytest.raises(OSError, match="No space left"):
            save_dataset(prepared, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left

    @pytest.mark.parametrize(
        "start", [date(1, 1, 1), date(999, 11, 1), date(1969, 11, 3), date(9998, 12, 1)]
    )
    def test_date_and_split_lines_match_value_by_value_writer(self, tmp_path, start):
        prepared = prepare_dataset(synthetic_ohlcv(rows=260, seed=2, start=start), small_prepare_config())
        path = tmp_path / "data.txt"
        save_dataset(prepared, path)
        lines = path.read_text().splitlines()
        at = lines.index("dates") + 1
        assert lines[at : at + 2] == [
            *reference_array_lines([d.toordinal() for d in prepared.frame.dates]),
            f"column {next(iter(prepared.frame.columns))}",
        ]
        assert load_dataset(path)[0].frame.dates == prepared.frame.dates

    @pytest.mark.parametrize("day", [0.0, 3652060.0, 1.5, math.nan, math.inf, -math.inf])
    def test_damaged_day_number_names_the_dates_line(self, tmp_path, day):
        path, lines = self.cache_lines(tmp_path)
        at = lines.index("dates") + 1
        days = np.frombuffer(base64.b64decode(lines[at]), "<f8").copy()
        days[5] = day
        lines[at] = base64.b64encode(days.tobytes()).decode("ascii")
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointFormatError) as exc:
                load_dataset(path)
        assert str(exc.value) == (
            f"{path}, line {at + 1}: day number {day!r} is not a whole number from 1 to 3652059"
        )

    def test_train_on_loaded_windows_matches_a_contiguous_copy(self, tmp_path):
        path = tmp_path / "data.txt"
        save_dataset(prepare_dataset(synthetic_ohlcv(rows=300, seed=2), small_prepare_config()), path)
        loaded, _ = load_dataset(path)
        view = loaded.dataset
        copy = replace(view, inputs=np.ascontiguousarray(view.inputs))
        assert not view.inputs.flags.c_contiguous and copy.inputs.flags.c_contiguous
        model_cfg = ModelConfig(
            features=len(view.feature_names), lookback=8, conv_filters=(4, 4, 4),
            kernel_width=2, pool_window=1, lstm_units=(6, 6, 6), seed=3,
        )
        train_cfg = TrainConfig(epochs=2, batch_size=16, seed=9, optim=OptimConfig(optimizer="adam"))
        reports = [
            train(build(model_cfg), ds, train_cfg) for ds in (view, copy)
        ]
        assert reports[0].train_loss == reports[1].train_loss
        assert reports[0].val_loss == reports[1].val_loss

    def test_save_is_byte_stable(self, tmp_path):
        prepared = prepare_dataset(synthetic_ohlcv(rows=260, seed=2), small_prepare_config())
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_dataset(prepared, p1)
        save_dataset(prepared, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCleanImputeOracle:
    def test_matches_reference_rules_exactly(self, rng):
        for trial in range(5):
            n = 80
            raw = {}
            for name in ("open", "high", "low", "close", "volume"):
                vals = rng.standard_normal(n) * (1 + trial)
                sd = np.std(vals, ddof=1)
                vals[int(rng.integers(n))] = 8 * sd  # guaranteed past 3 sigma
                cells = [None if rng.random() < 0.1 else float(v) for v in vals]
                if all(c is None for c in cells[:2]):
                    cells[0] = 1.0
                raw[name] = cells
            series = frame_of(**
                {k: [math.nan if c is None else c for c in v] for k, v in raw.items()}
            )
            ours = impute_mean(clean_three_sigma(series))
            expected = reference_clean_impute(raw)
            for name in raw:
                assert np.array_equal(ours.columns[name], np.array(expected[name])), name


class TestSynthCsv:
    def test_write_and_reload(self, tmp_path):
        series = synthetic_ohlcv(rows=120, seed=9)
        path = tmp_path / "synth.csv"
        write_csv(series, path)
        loaded = load_ohlcv(path)
        assert len(loaded) == 120
        assert loaded.dates == series.dates
        # CSV carries 6 decimals; round-trip is close, not exact
        assert np.abs(loaded.columns["close"] - series.columns["close"]).max() < 1e-6
