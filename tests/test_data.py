import csv
import statistics

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtmd import data as md
from mtmd.errors import DataError, ParseError


class TestChangeRate:
    """The change rates ``load_panel`` derives from consecutive prices."""

    @staticmethod
    def rate(tmp_path, price, next_price):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text([
            f"2020-01-01,A,1.0,{price!r}", f"2020-01-02,A,1.0,{next_price!r}"]))
        cpath = _write(tmp_path / "c.csv", "concept_id,stock_id\nC1,A\n")
        panel, _ = md.load_panel(ppath, cpath)
        return panel.slices[0].raw_labels[0]

    def test_ten_percent_gain(self, tmp_path):
        assert self.rate(tmp_path, 100.0, 110.0) == pytest.approx(0.1)

    def test_flat(self, tmp_path):
        assert self.rate(tmp_path, 50.0, 50.0) == 0.0

    def test_quarter_loss(self, tmp_path):
        assert self.rate(tmp_path, 200.0, 150.0) == pytest.approx(-0.25)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_non_positive_base_rejected(self, tmp_path, bad):
        with pytest.raises(DataError, match="positive"):
            self.rate(tmp_path, bad, 100.0)


class TestNormalizeLabels:
    def test_two_point_case(self):
        out = md.normalize_labels_per_date(np.array([1.0, -1.0]))
        assert np.allclose(out, [1.0, -1.0], atol=1e-15)

    def test_degenerate_std_gives_zeros(self):
        out = md.normalize_labels_per_date(np.array([5.0, 5.0, 5.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_singleton_gives_zero(self):
        assert np.array_equal(md.normalize_labels_per_date(np.array([3.0])), [0.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40), st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_zero_mean_unit_std(self, xs, seed):
        jitter = np.random.default_rng(seed).normal(size=len(xs))
        raw = np.array(xs) + jitter  # jitter avoids degenerate cross-sections
        out = md.normalize_labels_per_date(raw)
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-6


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        spec = md.SyntheticSpec(n_stocks=4, n_concepts=2, n_dates=70, seed=7)
        p1, g1, t1 = md.generate_synthetic(spec)
        p2, g2, t2 = md.generate_synthetic(spec)
        assert p1.dates == p2.dates
        for a, b in zip(p1.slices, p2.slices):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.prices, b.prices)
        assert g1.static_links == g2.static_links
        assert np.array_equal(t1.factors, t2.factors)

    def test_usable_date_trim(self):
        spec = md.SyntheticSpec(n_stocks=3, n_concepts=2, n_dates=300, seed=7)
        panel, _, _ = md.generate_synthetic(spec)
        assert len(panel.usable_dates) == 300 - 61
        assert len(panel.dates) == 300 - 60

    def test_zero_noise_single_concept_shares_return_path(self):
        spec = md.SyntheticSpec(n_stocks=5, n_concepts=1, n_dates=70,
                                membership_density=1.0, noise_sigma=0.0, seed=3)
        panel, _, truth = md.generate_synthetic(spec)
        for s in panel.usable_slices:
            assert np.allclose(s.raw_labels, s.raw_labels[0], atol=0.0)
        spread = truth.returns[1:].max(axis=1) - truth.returns[1:].min(axis=1)
        assert np.all(spread == 0.0)

    def test_zero_noise_returns_equal_mean_factor(self):
        spec = md.SyntheticSpec(n_stocks=6, n_concepts=3, n_dates=70,
                                noise_sigma=0.0, seed=11)
        _, _, truth = md.generate_synthetic(spec)
        exposure = truth.membership / truth.membership.sum(axis=1, keepdims=True)
        expected = truth.factors @ exposure.T
        assert np.max(np.abs(truth.returns - expected)) == 0.0

    def test_every_stock_has_a_concept(self):
        spec = md.SyntheticSpec(n_stocks=30, n_concepts=3, n_dates=70,
                                membership_density=0.05, seed=5)
        _, graph, truth = md.generate_synthetic(spec)
        assert truth.membership.any(axis=1).all()
        linked = {s for s, _ in graph.static_links}
        assert linked == set(truth.stock_ids)

    def test_too_few_dates_rejected(self):
        with pytest.raises(DataError, match="usable"):
            md.generate_synthetic(md.SyntheticSpec(n_dates=61))

    def test_link_indices_in_range(self):
        spec = md.SyntheticSpec(n_stocks=7, n_concepts=4, n_dates=70, seed=2)
        panel, graph, _ = md.generate_synthetic(spec)
        mask = graph.mask_for(panel.dates[0], panel.slices[0].stock_ids)
        assert mask.shape == (7, 4)
        assert mask.any()


class TestRoundTrip:
    def test_generate_write_load_reproduces_panel(self, tmp_path):
        spec = md.SyntheticSpec(n_stocks=3, n_concepts=2, n_dates=66, seed=13)
        panel, graph, _ = md.generate_synthetic(spec)
        ppath, cpath = str(tmp_path / "panel.csv"), str(tmp_path / "concepts.csv")
        md.write_panel_csv(panel, ppath)
        md.write_concepts_csv(graph, cpath)
        loaded, lgraph = md.load_panel(ppath, cpath)
        assert loaded.dates == panel.dates
        assert lgraph.static_links == graph.static_links
        assert lgraph.concept_ids == graph.concept_ids
        for a, b in zip(panel.slices, loaded.slices):
            assert a.stock_ids == b.stock_ids
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.market_caps, b.market_caps)
            assert np.array_equal(a.prices, b.prices)
            if a.labels is None:
                assert b.labels is None
            else:
                assert np.allclose(a.raw_labels, b.raw_labels, atol=1e-12)
                assert np.allclose(a.labels, b.labels, atol=1e-9)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def tiny_panel_text(rows):
    header = ",".join(list(md.PANEL_BASE_COLUMNS) + list(md.FEATURE_COLUMNS))
    feats = ",".join(["0.0"] * md.FEATURE_WIDTH)
    return header + "\n" + "\n".join(f"{r},{feats}" for r in rows) + "\n"


class TestLoadPanelValidation:
    def test_two_date_two_stock_fixture(self, tmp_path):
        text = tiny_panel_text([
            "2020-01-01,A,1.0,100.0",
            "2020-01-01,B,2.0,50.0",
            "2020-01-02,A,1.0,110.0",
            "2020-01-02,B,2.0,45.0",
        ])
        ppath = _write(tmp_path / "p.csv", text)
        cpath = _write(tmp_path / "c.csv", "concept_id,stock_id\nC1,A\n")
        panel, graph = md.load_panel(ppath, cpath)
        assert panel.dates == ["2020-01-01", "2020-01-02"]
        assert panel.usable_dates == ["2020-01-01"]
        first = panel.slices[0]
        assert first.n_stocks == 2
        assert first.raw_labels == pytest.approx([0.1, -0.1])
        assert graph.n_concepts == 1

    def test_empty_concept_file_is_parse_error(self, tmp_path):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text(["2020-01-01,A,1.0,100.0"]))
        cpath = _write(tmp_path / "c.csv", "concept_id,stock_id\n")
        with pytest.raises(ParseError, match=r"c\.csv:1: concept file has no stock-concept links"):
            md.load_panel(ppath, cpath)

    def test_duplicate_row_named(self, tmp_path):
        text = tiny_panel_text([
            "2020-01-01,A,1.0,100.0",
            "2020-01-01,A,1.0,100.0",
        ])
        ppath = _write(tmp_path / "p.csv", text)
        with pytest.raises(ParseError, match=r"p\.csv:3.*duplicate.*2020-01-01, A"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\n"))

    def test_non_numeric_cell_reports_line(self, tmp_path):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text(["2020-01-01,A,oops,100.0"]))
        with pytest.raises(ParseError, match=r"p\.csv:2.*market_cap"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\n"))

    def test_line_break_in_quoted_id_counts_physical_lines(self, tmp_path):
        # the record starts on line 2; its bad market_cap cell is on line 3
        ppath = _write(tmp_path / "p.csv", tiny_panel_text(['2020-01-01,"S\n0000",oops,100.0']))
        with pytest.raises(ParseError, match=r"p\.csv:3:.*market_cap"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\n"))

    def test_missing_column_rejected(self, tmp_path):
        ppath = _write(tmp_path / "p.csv", "date,stock_id,market_cap\n2020-01-01,A,1.0\n")
        with pytest.raises(ParseError, match=r"p\.csv:1.*header"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\n"))

    def test_unknown_stock_in_concept_file(self, tmp_path):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text(["2020-01-01,A,1.0,100.0"]))
        cpath = _write(tmp_path / "c.csv", "concept_id,stock_id\nC1,ZZZ\n")
        with pytest.raises(ParseError, match=r"c\.csv:2.*ZZZ"):
            md.load_panel(ppath, cpath)

    def test_concept_line_after_quoted_line_break(self, tmp_path):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text(['2020-01-01,"S\n0000",1.0,100.0']))
        cpath = _write(tmp_path / "c.csv", 'concept_id,stock_id\nC1,"S\n0000"\nC1,ZZZ\n')
        with pytest.raises(ParseError, match=r"c\.csv:4:.*ZZZ"):
            md.load_panel(ppath, cpath)

    def test_non_iso_date_rejected(self, tmp_path):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text(["01/02/2020,A,1.0,100.0"]))
        with pytest.raises(ParseError, match="ISO-8601"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\n"))

    @pytest.mark.parametrize("spelling", ["20200102", "2020-W01-4", "2020W014"])
    def test_non_canonical_date_rejected(self, tmp_path, spelling):
        # date.fromisoformat reads each of these as 2020-01-02, but dates
        # are ordered as text, which only the YYYY-MM-DD spelling keeps
        ppath = _write(tmp_path / "p.csv", tiny_panel_text([
            "2020-01-01,A,1.0,100.0", f"{spelling},A,1.0,101.0", "2020-01-03,A,1.0,102.0"]))
        with pytest.raises(ParseError, match=rf"p\.csv:3: date '{spelling}' is not"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\nC1,A\n"))

    @pytest.mark.parametrize("spelling", ["20200102", "2020-W01-4", "01/02/2020", "2020-1-2"])
    def test_non_canonical_concept_date_rejected(self, tmp_path, spelling):
        ppath = _write(tmp_path / "p.csv", tiny_panel_text([
            "2020-01-01,A,1.0,100.0", "2020-01-02,A,1.0,101.0"]))
        cpath = _write(tmp_path / "c.csv",
                       f"concept_id,stock_id,date\nC1,A,2020-01-01\nC2,A,{spelling}\n")
        with pytest.raises(ParseError, match=rf"c\.csv:3: date '{spelling}' is not"):
            md.load_panel(ppath, cpath)

    def test_concept_link_on_no_panel_date_rejected(self, tmp_path):
        # such a link is never used, yet its concept would add a column to
        # every date's mask
        ppath = _write(tmp_path / "p.csv", tiny_panel_text([
            "2020-01-01,A,1.0,100.0", "2020-01-02,A,1.0,101.0"]))
        cpath = _write(tmp_path / "c.csv",
                       "concept_id,stock_id,date\nC1,A,2020-01-01\nC2,A,2030-01-01\n")
        with pytest.raises(ParseError, match=r"c\.csv:3: date '2030-01-01' is not a panel date"):
            md.load_panel(ppath, cpath)

    @pytest.mark.parametrize("price, price_b", [("5e-324", "5e-324"), ("1e-306", "1e-306"),
                                                ("1e-306", "100.0")],
                             ids=["5e-324", "1e-306", "finite-mean"])
    def test_overflowing_change_rates_rejected(self, tmp_path, price, price_b):
        # positive prices so small that the next date's change rate (5e-324)
        # or the z-scoring of the date's rates (1e-306) overflows; with B's
        # price ordinary, the rates' mean is finite but their variance is not
        ppath = _write(tmp_path / "p.csv", tiny_panel_text([
            f"2020-01-01,A,1.0,{price}", f"2020-01-01,B,1.0,{price_b}",
            "2020-01-02,A,1.0,100.0", "2020-01-02,B,1.0,101.0"]))
        cpath = _write(tmp_path / "c.csv", "concept_id,stock_id\nC1,A\n")
        with pytest.raises(DataError, match=r"p\.csv: change rates from 2020-01-01 to "
                                            r"2020-01-02 overflow"):
            md.load_panel(ppath, cpath)

    def test_universe_mismatch_rejected(self, tmp_path):
        text = tiny_panel_text([
            "2020-01-01,A,1.0,100.0",
            "2020-01-02,B,1.0,100.0",
        ])
        ppath = _write(tmp_path / "p.csv", text)
        with pytest.raises(ParseError, match="universe"):
            md.load_panel(ppath, _write(tmp_path / "c.csv", "concept_id,stock_id\n"))

    def test_dated_concept_links(self, tmp_path):
        text = tiny_panel_text([
            "2020-01-01,A,1.0,100.0",
            "2020-01-02,A,1.0,101.0",
        ])
        ppath = _write(tmp_path / "p.csv", text)
        cpath = _write(tmp_path / "c.csv",
                       "concept_id,stock_id,date\nC1,A,2020-01-01\nC2,A,\n")
        _, graph = md.load_panel(ppath, cpath)
        m1 = graph.mask_for("2020-01-01", ["A"])
        m2 = graph.mask_for("2020-01-02", ["A"])
        assert m1.tolist() == [[True, True]]
        assert m2.tolist() == [[False, True]]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def base_rows(scratch):
    """The rows of a written 3-date, 3-stock panel, and its concept file."""
    panel, graph, _ = md.generate_synthetic(md.SyntheticSpec(n_stocks=3, n_concepts=2,
                                                             n_dates=63, seed=7))
    md.write_panel_csv(panel, str(scratch / "base.csv"))
    md.write_concepts_csv(graph, str(scratch / "concepts.csv"))
    with open(scratch / "base.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh)), str(scratch / "concepts.csv")


def assert_loads_like_reference(panel_path, concept_path):
    """``load_panel`` returns the reference loader's panel bit for bit, or
    raises a DataError with the message the reference rejects the file with."""
    try:
        want = oracles.load_panel_reference(panel_path)
    except ValueError as exc:
        with pytest.raises(DataError) as info:
            md.load_panel(panel_path, concept_path)
        assert str(info.value) == str(exc)
        return
    panel, _ = md.load_panel(panel_path, concept_path)
    assert panel.dates == [w["date"] for w in want]
    for s, w in zip(panel.slices, want):
        assert s.stock_ids == w["stock_ids"]
        for name in ("features", "market_caps", "prices", "raw_labels", "labels"):
            got, ref = getattr(s, name), w[name]
            assert (got is None) == (ref is None), name
            if ref is not None:
                assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
                assert got.tobytes() == ref.tobytes(), name


NUMBER_CORRUPTIONS = st.one_of(
    st.sampled_from(["abc", "1_000", "1__0", "_1", "1_", " 1.5", "1.5 ", "\t2.0\n", "\u00a03",
                     "\u0661\u0662", "\u0967.\u096b", "\uff11", "nan", "-NaN", "inf", "-Infinity",
                     "+inf", "iNf", "1e999", "-1e999", "0", "0.0", "-0.0", "-1", "-2.5e-3",
                     "1e-400", "", " ", "0x10", "1,5", '"1"', "1e", "--1"]),
    st.floats().map(repr),
    st.text(max_size=8),
)
DATE_CORRUPTIONS = st.one_of(
    st.sampled_from(["2018-13-01", "01/03/2018", "", "2018-03-0x", " 2018-03-02", "20180302",
                     "2018-03-02", "2018-03-03", "2030-01-01"]),
    st.text(max_size=12),
)


# prices small enough that a change rate, or the z-scoring of a date's
# rates, overflows, mixed with ordinary ones
TINY_OR_ORDINARY_PRICES = st.one_of(st.floats(1e-310, 1e-300), st.floats(0.01, 1e4))


class TestLabelOverflowProperty:
    @settings(max_examples=200, deadline=None)
    @given(prices=hnp.arrays(np.float64, st.tuples(st.integers(2, 4), st.integers(2, 4)),
                             elements=TINY_OR_ORDINARY_PRICES))
    def test_finite_labels_or_data_error(self, scratch, prices):
        dates = [f"2020-01-0{d + 1}" for d in range(prices.shape[0])]
        ppath = _write(scratch / "tiny_prices.csv", tiny_panel_text([
            f"{date},S{k},1.0,{price!r}" for date, row in zip(dates, prices.tolist())
            for k, price in enumerate(row)]))
        cpath = _write(scratch / "tiny_concepts.csv", "concept_id,stock_id\nC1,S0\n")
        try:
            panel, _ = md.load_panel(ppath, cpath)
        except DataError as exc:
            assert "overflow" in str(exc)
            return
        for s in panel.usable_slices:
            assert np.all(np.isfinite(s.raw_labels)) and np.all(np.isfinite(s.labels))
            if not s.labels.any():  # only a date whose rates barely differ scores all zero
                scale = max(1.0, float(np.max(np.abs(s.raw_labels))))
                assert statistics.pstdev(s.raw_labels.tolist()) < 1e-9 * scale


class TestLoadPanelFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_corrupt_cell_loads_like_reference(self, base_rows, scratch, data):
        rows, concept_path = base_rows
        rows = [list(r) for r in rows]
        line = data.draw(st.integers(1, len(rows) - 1), label="row")
        column = data.draw(st.sampled_from([0] + list(range(2, len(rows[0])))), label="column")
        rows[line][column] = data.draw(DATE_CORRUPTIONS if column == 0 else NUMBER_CORRUPTIONS,
                                       label="text")
        path = scratch / "corrupt.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        assert_loads_like_reference(str(path), concept_path)

    def test_unmodified_panel_loads_like_reference(self, base_rows, scratch):
        assert_loads_like_reference(str(scratch / "base.csv"), base_rows[1])


STOCK_ID_TEXT = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                                  st.sampled_from([",", '"', "\r", "\n", " "])), max_size=6)


QUOTED_ID = 'Q,"1\n'  # a known stock id that the CSV writer must quote


@pytest.fixture(scope="module")
def concept_rows():
    """The rows of a dated concept file, static and dated links, its known
    stocks and the dates of its panel."""
    panel, graph, _ = md.generate_synthetic(md.SyntheticSpec(n_stocks=3, n_concepts=2,
                                                             n_dates=63, seed=7))
    ids, dates = panel.slices[0].stock_ids, panel.dates
    rows = [["concept_id", "stock_id", "date"]]
    rows += [[concept, stock, ""] for stock, concept in sorted(graph.static_links)]
    rows += [["C9", ids[0], dates[0]], ["C8", QUOTED_ID, dates[-1]], ["C8", ids[1], dates[-1]]]
    return rows, set(ids) | {QUOTED_ID}, set(dates)


class TestLoadConceptsFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_corrupt_cell_loads_like_reference(self, concept_rows, scratch, data):
        rows, known, dates = concept_rows
        rows = [list(r) for r in rows]
        line = data.draw(st.integers(1, len(rows) - 1), label="row")
        kind = data.draw(st.sampled_from(["date", "stock", "concept", "columns"]), label="kind")
        if kind == "date":
            rows[line][2] = data.draw(DATE_CORRUPTIONS, label="text")
        elif kind == "columns":
            rows[line] = data.draw(st.sampled_from([rows[line][:2], rows[line] + [""],
                                                    rows[line][:1]]), label="cells")
        else:
            ids = st.sampled_from(sorted(known)) | STOCK_ID_TEXT
            rows[line][1 if kind == "stock" else 0] = data.draw(ids, label="text")
        path = scratch / "corrupt_concepts.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        try:
            want = oracles.load_concepts_reference(str(path), known, dates)
        except ValueError as exc:
            with pytest.raises(DataError) as info:
                md.load_concepts(str(path), known, dates)
            assert str(info.value) == str(exc)
            return
        graph = md.load_concepts(str(path), known, dates)
        assert (graph.concept_ids, graph.static_links, graph.dated_links) == want


class TestWritePanelFuzz:
    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(STOCK_ID_TEXT, min_size=1, max_size=4, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_quoted_ids_write_like_csv_writer_and_round_trip(self, scratch, ids, seed):
        ids = sorted(ids)
        rng = np.random.default_rng(seed)
        slices = []
        for date in ("2020-01-01", "2020-01-02"):
            feats = rng.normal(size=(len(ids), md.FEATURE_WIDTH))
            feats *= 10.0 ** rng.integers(-300, 300, size=feats.shape)
            feats[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
            slices.append(md.DateSlice(date=date, stock_ids=list(ids), features=feats,
                                       market_caps=rng.lognormal(size=len(ids)),
                                       prices=rng.lognormal(size=len(ids))))
        panel = md.FeaturePanel(slices)
        got, want = scratch / "ids.csv", scratch / "ids_ref.csv"
        md.write_panel_csv(panel, str(got))
        oracles.write_panel_reference(panel, str(want))
        assert got.read_bytes() == want.read_bytes()

        concepts = scratch / "ids_concepts.csv"
        with open(concepts, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["concept_id", "stock_id"], ["C", ids[0]]])
        loaded, _ = md.load_panel(str(got), str(concepts))
        for a, b in zip(panel.slices, loaded.slices):
            assert b.stock_ids == ids
            for name in ("features", "market_caps", "prices"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
