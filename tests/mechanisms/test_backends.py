"""The NumPy kernels against reference sums, and the grouped sums'
consumers: PTS's grouped batch support and PTS-CP's flag-filtered fold.
"""

import itertools

import numpy as np
import pytest

from repro.core.frameworks import make_framework
from repro.datasets import zipf_multiclass
from repro.exceptions import AggregationError
from repro.mechanisms import (
    CorrelatedPerturbation,
    OptimizedUnaryEncoding,
    fold_correlated_batch,
    grouped_batch_support,
)
from repro.mechanisms import engine
from repro.mechanisms.backends import backend_info, get_kernel, numpy_backend
from repro.mechanisms.kernels import bit_matrix_support
from repro.mechanisms.validity import flag_filtered_support
from repro.stream import make_session


# ----------------------------------------------------------------------
# grouped_scatter: earlier implementations kept as references
# ----------------------------------------------------------------------
def bincount_scatter(groups, bits, n_groups):
    """The earlier NumPy ``grouped_scatter``: every set cell becomes one
    flattened ``group * width + column`` index of a weighted bincount."""
    width = int(bits.shape[1])
    rows, cols = np.nonzero(bits)
    if rows.size == 0:
        return np.zeros((int(n_groups), width), dtype=np.int64)
    flat = np.bincount(
        groups[rows] * width + cols,
        weights=bits[rows, cols],
        minlength=int(n_groups) * width,
    )
    return flat.reshape(int(n_groups), width).astype(np.int64)


def add_at_scatter(groups, bits, n_groups):
    """Row-level ``np.add.at``: the unbuffered definition of the sum."""
    out = np.zeros((int(n_groups), int(bits.shape[1])), dtype=np.int64)
    np.add.at(out, groups, bits.astype(np.int64))
    return out


def add_at_fold(labels, bits, n_classes, n_items):
    """The earlier row-level ``np.add.at`` body of the PTS-CP fold:
    ``(item_support, flag_support, label_counts)``."""
    flag = bits[:, n_items].astype(bool)
    item_support = np.zeros((n_classes, n_items), dtype=np.int64)
    np.add.at(
        item_support, labels[~flag], bits[~flag, :n_items].astype(np.int64)
    )
    return (
        item_support,
        np.bincount(labels[flag], minlength=n_classes),
        np.bincount(labels, minlength=n_classes),
    )


#: ``(n_groups, width, rows, layout)``: one group up to far more groups
#: than rows (most of them empty), one-column and CP-width reports, and
#: the three row layouts the kernel is handed — a contiguous matrix, the
#: PTS-CP fold's ``bits[keep, :d]`` and a column-sliced strided view.
SCATTER_CASES = [
    (n_groups, width, rows, layout)
    for n_groups in (1, 2, 5, 64, 1000)
    for width in (1, 257)
    for rows in (0, 300)
    for layout in ("contiguous", "cp-fold", "strided")
]


def _scatter_inputs(n_groups, width, rows, layout):
    rng = np.random.default_rng([n_groups, width, rows])
    groups = rng.integers(0, n_groups, size=rows)
    full = (rng.random((rows, width + 1)) < 0.4).astype(np.uint8)
    if layout == "cp-fold":
        keep = full[:, width] == 0
        return groups[keep], full[keep, :width]
    if layout == "strided":
        return groups, full[:, :width]
    return groups, np.ascontiguousarray(full[:, :width])


class TestNumpyKernels:
    """The kernels against the earlier implementations kept above."""

    def test_categorical_support_counts_and_fused_bounds(self):
        kernel = numpy_backend.categorical_support
        counts = kernel(np.asarray([0, 2, 2, 3]), 5, "test")
        np.testing.assert_array_equal(counts, [1, 0, 2, 1, 0])
        assert counts.dtype == np.int64
        with pytest.raises(AggregationError):
            kernel(np.asarray([0, -1]), 5, "test")
        with pytest.raises(AggregationError):
            kernel(np.asarray([0, 5]), 5, "test")

    def test_grouped_scatter_matches_add_at_reference(self):
        for case in SCATTER_CASES:
            n_groups, width = case[:2]
            groups, bits = _scatter_inputs(*case)
            out = numpy_backend.grouped_scatter(groups, bits, n_groups)
            assert out.dtype == np.int64, case
            assert out.shape == (n_groups, width), case
            for reference in (add_at_scatter, bincount_scatter):
                np.testing.assert_array_equal(
                    out, reference(groups, bits, n_groups), err_msg=str(case)
                )

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int32, np.int64])
    def test_grouped_scatter_sums_any_integer_matrix(self, dtype):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, 4, size=400)
        high = 2 if dtype is np.bool_ else 7
        bits = rng.integers(0, high, size=(400, 9)).astype(dtype)
        out = numpy_backend.grouped_scatter(groups, bits, 4)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, add_at_scatter(groups, bits, 4))

    def test_grouped_scatter_beyond_a_16_bit_group_key(self):
        """More than 2**16 groups cannot use the 16-bit sort key; the
        wider key must give the same sums."""
        rng = np.random.default_rng(6)
        n_groups = (1 << 16) + 100
        groups = rng.integers(n_groups - 300, n_groups, size=500)
        bits = (rng.random((500, 3)) < 0.5).astype(np.uint8)
        np.testing.assert_array_equal(
            numpy_backend.grouped_scatter(groups, bits, n_groups),
            add_at_scatter(groups, bits, n_groups),
        )

    def test_grouped_scatter_all_zero_bits(self):
        out = numpy_backend.grouped_scatter(
            np.asarray([0, 1, 2]), np.zeros((3, 4), dtype=np.int64), 3
        )
        np.testing.assert_array_equal(out, np.zeros((3, 4), dtype=np.int64))


#: Row counts on both sides of the byte-lane limit (255 binary rows per
#: word partial, so 510 is two full partials) and one serve-sized batch,
#: widths on both sides of a whole 8-byte word, the dtypes the kernel
#: sums, and the layouts the folds are handed.
LANE_ROWS = (0, 1, 254, 255, 256, 509, 510, 511, 8192)
LANE_WIDTHS = (1, 7, 8, 9, 256, 257, 1280)
LANE_DTYPES = (np.bool_, np.uint8, np.int32, np.int64)
LANE_LAYOUTS = ("contiguous", "cp-fold", "strided")


def _lane_cases(rows):
    """Every width, dtype and layout; the 8192-row batch leaves out the
    1280-wide rows, whose lane counts the 510/511-row cases already
    cross, to keep the suite's memory and time small."""
    widths = LANE_WIDTHS if rows < 8192 else LANE_WIDTHS[:-1]
    return itertools.product(widths, LANE_DTYPES, LANE_LAYOUTS)


def _lane_inputs(rows, width, dtype, layout, binary=True):
    """A ``(rows', width)`` matrix in one of :data:`SCATTER_CASES`'
    layouts (the cp-fold layout keeps the rows whose spare column matches
    the first row's), or starting one byte into its buffer, so that its
    uint64 word view is misaligned.  Column 0 holds the matrix's largest
    entry in every row, so its lane fills as fast as a lane can.
    Non-binary uint8 holds values up to 255; non-binary int32/int64 go
    negative."""
    rng = np.random.default_rng([rows, width, LANE_DTYPES.index(dtype)])
    shape = (rows, width + 1)
    if binary or dtype is np.bool_:
        full = rng.integers(0, 2, size=shape, dtype=np.uint8).astype(dtype)
    elif dtype is np.uint8:
        full = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        full = rng.integers(-1000, 1000, size=shape, dtype=dtype)
    if rows:
        full[:, 0] = full.max()  # every row's largest entry: the fullest lane
    if layout == "cp-fold" and rows:
        return full[full[:, width] == full[0, width], :width]
    if layout in ("cp-fold", "strided"):
        return full[:, :width]
    if layout == "unaligned":
        buffer = np.zeros(rows * width * full.itemsize + 1, dtype=np.uint8)
        out = buffer[1:].view(dtype).reshape(rows, width)
        out[...] = full[:, :width]
        return out
    return np.ascontiguousarray(full[:, :width])


class TestByteLaneFold:
    """The byte-lane fold against int64 references: every fold that sums
    unary reports eight bits per add — ``grouped_scatter``, the OUE/SUE
    column sum and the validity flag filter — at the lane limit, at
    widths that do and do not fill whole words, for every dtype and
    layout, and beyond a 16-bit group key."""

    @pytest.mark.parametrize("rows", LANE_ROWS)
    def test_grouped_scatter_matches_add_at(self, rows):
        """One group puts a run of exactly ``rows`` rows on the lane
        limit; five skewed groups (one empty) put runs of other lengths
        after unaligned run starts."""
        rng = np.random.default_rng(rows)
        for width, dtype, layout in _lane_cases(rows):
            bits = _lane_inputs(rows, width, dtype, layout, binary=False)
            skewed = rng.choice(
                5, size=bits.shape[0], p=[0.8, 0.1, 0.05, 0.05, 0.0]
            )
            for groups, n_groups in ((np.zeros_like(skewed), 1), (skewed, 5)):
                case = (rows, width, dtype.__name__, layout, n_groups)
                out = numpy_backend.grouped_scatter(groups, bits, n_groups)
                assert out.dtype == np.int64, case
                np.testing.assert_array_equal(
                    out, add_at_scatter(groups, bits, n_groups), err_msg=str(case)
                )

    @pytest.mark.parametrize("rows", LANE_ROWS)
    def test_bit_matrix_support_matches_int64_sum(self, rows):
        for width, dtype, layout in _lane_cases(rows):
            bits = _lane_inputs(rows, width, dtype, layout)
            case = (rows, width, dtype.__name__, layout)
            out = bit_matrix_support(bits, width)
            assert out.dtype == np.int64, case
            np.testing.assert_array_equal(
                out, bits.astype(np.int64).sum(axis=0), err_msg=str(case)
            )

    @pytest.mark.parametrize("rows", LANE_ROWS)
    def test_flag_filtered_support_matches_int64_sum(self, rows):
        for width, dtype, layout in _lane_cases(rows):
            if width == 1:
                continue  # no item column besides the flag
            bits = _lane_inputs(rows, width, dtype, layout)
            case = (rows, width, dtype.__name__, layout)
            d = width - 1
            wide = bits.astype(np.int64)
            clear = wide[:, d] == 0
            expected = np.append(wide[clear, :d].sum(axis=0), (~clear).sum())
            out = flag_filtered_support(bits, d)
            assert out.dtype == np.int64, case
            np.testing.assert_array_equal(out, expected, err_msg=str(case))

    @pytest.mark.parametrize("width", (8, 9, 256))
    def test_folds_of_a_misaligned_buffer(self, width):
        """Rows that start one byte into their buffer are read as
        misaligned words, with the same sums."""
        for dtype in (np.bool_, np.uint8):
            bits = _lane_inputs(511, width, dtype, "unaligned")
            wide = bits.astype(np.int64)
            groups = np.arange(511) % 3
            np.testing.assert_array_equal(
                numpy_backend.grouped_scatter(groups, bits, 3),
                add_at_scatter(groups, bits, 3),
            )
            np.testing.assert_array_equal(
                bit_matrix_support(bits, width), wide.sum(axis=0)
            )
            clear = wide[:, -1] == 0
            np.testing.assert_array_equal(
                flag_filtered_support(bits, width - 1),
                np.append(wide[clear, :-1].sum(axis=0), (~clear).sum()),
            )

    @pytest.mark.parametrize("dtype", LANE_DTYPES)
    def test_grouped_scatter_beyond_a_16_bit_group_key(self, dtype):
        """Runs longer than the lane limit on group ids above 2**16 (the
        int64 sort key), with most groups empty."""
        rng = np.random.default_rng(8)
        n_groups = (1 << 16) + 7
        ids = np.asarray([0, 3, 1 << 16, n_groups - 1])
        groups = ids[rng.integers(0, ids.size, size=8192)]
        for width in (9, 16):
            bits = _lane_inputs(8192, width, dtype, "strided", binary=False)
            np.testing.assert_array_equal(
                numpy_backend.grouped_scatter(groups, bits, n_groups),
                add_at_scatter(groups, bits, n_groups),
                err_msg=f"{dtype.__name__} width={width}",
            )


class TestGroupedKernelConsumers:
    """The grouped sums: PTS's grouped batch support (through
    ``grouped_scatter``) and PTS-CP's flag-filtered fold (through
    ``byte_lane_sums``)."""

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_grouped_batch_support_rejects_out_of_range_groups(self, bad):
        """The id is rejected before anything is privatised: the
        oracle's generator has not moved."""
        oracle = OptimizedUnaryEncoding(1.0, 8, rng=0)
        before = oracle.rng.bit_generator.state
        groups = np.asarray([0, 1, 2, bad, 1])
        with pytest.raises(AggregationError, match=r"outside \[0, 3\)"):
            grouped_batch_support(oracle, groups, np.arange(5), 3)
        assert oracle.rng.bit_generator.state == before

    def test_grouped_batch_support_fetches_its_kernel_per_call(
        self, monkeypatch
    ):
        """perfbench's traced run times the grouped fold by rebinding
        ``engine.get_kernel`` to a wrapper, so the engine must fetch
        ``grouped_scatter`` through that module name on every call."""
        fetched, called = [], []

        def recording_get_kernel(name):
            fetched.append(name)
            kernel = get_kernel(name)

            def wrapped(*args):
                called.append(name)
                return kernel(*args)

            return wrapped

        def run():
            return grouped_batch_support(
                OptimizedUnaryEncoding(1.0, 8, rng=0), np.arange(40) % 3,
                np.arange(40) % 8, 3, block_elements=80,
            )

        expected = run()
        monkeypatch.setattr(engine, "get_kernel", recording_get_kernel)
        np.testing.assert_array_equal(run(), expected)
        assert fetched == ["grouped_scatter"]
        assert called == ["grouped_scatter"] * 4  # one per 10-row block

    def test_grouped_batch_support_rejects_misaligned_columns(self):
        oracle = OptimizedUnaryEncoding(1.0, 8, rng=0)
        with pytest.raises(AggregationError, match="must align"):
            grouped_batch_support(oracle, np.zeros(4), np.arange(5), 3)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_fold_rejects_out_of_range_labels_before_any_change(self, bad):
        item_support = np.zeros((3, 4), dtype=np.int64)
        flag_support = np.zeros(3, dtype=np.int64)
        label_counts = np.zeros(3, dtype=np.int64)
        bits = np.ones((3, 5), dtype=np.uint8)
        with pytest.raises(AggregationError, match=r"outside \[0, 3\)"):
            fold_correlated_batch(
                np.asarray([0, bad, 1]), bits,
                item_support, flag_support, label_counts,
            )
        assert not item_support.any()
        assert not flag_support.any()
        assert not label_counts.any()

    @pytest.mark.parametrize(
        "n_classes,n_items,rows",
        [(2, 1, 0), (2, 1, 400), (5, 256, 0), (5, 256, 400), (64, 16, 400),
         (1000, 8, 400)],
    )
    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8])
    def test_fold_matches_add_at_reference(self, n_classes, n_items, rows, dtype):
        rng = np.random.default_rng([n_classes, n_items, rows])
        labels = rng.integers(0, n_classes, size=rows)
        bits = (rng.random((rows, n_items + 1)) < 0.4).astype(dtype)
        item_support = np.zeros((n_classes, n_items), dtype=np.int64)
        flag_support = np.zeros(n_classes, dtype=np.int64)
        label_counts = np.zeros(n_classes, dtype=np.int64)
        fold_correlated_batch(
            labels, bits, item_support, flag_support, label_counts
        )
        expected = add_at_fold(labels, bits, n_classes, n_items)
        for got, want in zip(
            (item_support, flag_support, label_counts), expected
        ):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def _grouped_outputs() -> dict:
        """Seeded state of the grouped sums' consumers: protocol-mode PTS
        and PTS-CP sessions fed several batches (empty and one-user
        batches included), the one-shot protocol frameworks that delegate
        to them, and CP reports folded batch by batch with
        :func:`fold_correlated_batch`.  Only the PTS entries go through
        ``grouped_scatter``; the PTS-CP fold must come out the same
        whichever kernel ``get_kernel`` hands out."""
        rng = np.random.default_rng(31)
        out = {}
        for name in ("pts", "pts-cp"):
            session = make_session(name, 1.0, 5, 40, mode="protocol", rng=12)
            for size in (1500, 1, 0, 4000):
                session.ingest_batch(
                    rng.integers(0, 5, size), rng.integers(0, 40, size)
                )
            out[f"session-{name}"] = session.estimate()
        dataset = zipf_multiclass(3000, 4, 24, rng=np.random.default_rng(3))
        for name in ("pts", "pts-cp"):
            framework = make_framework(name, 1.0, 4, 24, mode="protocol", rng=7)
            out[f"oneshot-{name}"] = framework.estimate_frequencies(dataset)
        mech = CorrelatedPerturbation(0.5, 0.5, n_classes=4, n_items=33, rng=9)
        item_support = np.zeros((4, 33), dtype=np.int64)
        flag_support = np.zeros(4, dtype=np.int64)
        label_counts = np.zeros(4, dtype=np.int64)
        for size in (2000, 3, 700):
            labels, bits = mech.privatize_many(
                rng.integers(0, 4, size), rng.integers(0, 33, size)
            )
            fold_correlated_batch(
                labels, bits, item_support, flag_support, label_counts
            )
        out["fold-items"] = item_support
        out["fold-flags"] = flag_support
        out["fold-labels"] = label_counts
        return out

    def test_reference_kernel_gives_bit_identical_state(self, monkeypatch):
        current = self._grouped_outputs()
        monkeypatch.setitem(
            numpy_backend.KERNELS, "grouped_scatter", bincount_scatter
        )
        assert get_kernel("grouped_scatter") is bincount_scatter
        reference = self._grouped_outputs()
        assert current.keys() == reference.keys()
        for key in current:
            np.testing.assert_array_equal(current[key], reference[key], err_msg=key)


class TestNamesKeptForPerfbench:
    """perfbench imports these on every run; they must stay until
    perfbench tolerates their absence."""

    def test_backend_info_names_the_numpy_kernels(self):
        assert backend_info() == {"name": "numpy"}

    def test_default_thread_count_is_cpu_bounded(self):
        assert 1 <= engine.default_thread_count() <= 8

    def test_telemetry_switches_read_off(self):
        """perfbench refuses to take end-to-end numbers while either
        reads True; the library has no switch left to turn on."""
        from repro.obs.metrics import get_registry
        from repro.obs.trace import get_tracer

        assert get_registry().enabled is False
        assert get_tracer().enabled is False


class TestReportArrayFastPaths:
    """The list()-free conversion satellites keep generator support."""

    def test_as_report_array_accepts_generators(self):
        from repro.mechanisms.kernels import as_report_array

        arr = as_report_array(int(v) for v in range(5))
        np.testing.assert_array_equal(arr, np.arange(5))

    def test_as_report_array_accepts_lists_and_arrays(self):
        from repro.mechanisms.kernels import as_report_array

        np.testing.assert_array_equal(as_report_array([3, 1]), [3, 1])
        np.testing.assert_array_equal(
            as_report_array(np.asarray([[1], [2]])), [1, 2]
        )

    def test_as_report_matrix_accepts_generators_and_sequences(self):
        from repro.mechanisms.kernels import as_report_matrix

        rows = [np.asarray([1, 0, 1]), np.asarray([0, 1, 0])]
        out = as_report_matrix((row for row in rows), 3, "test")
        np.testing.assert_array_equal(out, np.asarray(rows))
        out = as_report_matrix(rows, 3, "test")
        np.testing.assert_array_equal(out, np.asarray(rows))
        assert as_report_matrix([], 3, "test").shape == (0, 3)
