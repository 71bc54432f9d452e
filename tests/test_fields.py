"""Field container and CSV / PGM export formats."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxrevive import Field2D, write_field_csv, write_field_pgm
from boxrevive.fields import local_maxima, parabolic_vertex, trapezoid_2d, uniform_times


@pytest.fixture
def small_field():
    t = np.linspace(0.0, 0.5, 4)
    x = np.linspace(0.0, 1.0, 6)
    values = np.outer(1.0 + t, np.sin(np.pi * x) ** 2)
    return Field2D(t, x, values, {"axis1": "time [T_rev]", "axis2": "position [L]"})


def csv_text(tmp_path, f, name="field.csv"):
    """The CSV text that write_field_csv writes for f."""
    path = tmp_path / name
    write_field_csv(path, f)
    return path.read_text()


def parse_pgm(path):
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    rest = raw[3:]
    comment_end = rest.index(b"\n")
    comment = rest[:comment_end].decode()
    assert comment.startswith("# ")
    dims, rest = rest[comment_end + 1 :].split(b"\n", 1)
    maxval, pixels = rest.split(b"\n", 1)
    w, h = (int(v) for v in dims.split())
    assert int(maxval) == 255
    data = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
    return comment, data


class TestField2D:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field2D(np.arange(3.0), np.arange(4.0), np.zeros((4, 3)))

    def test_trapezoid_2d_on_constant(self):
        f = Field2D(np.linspace(0, 2, 9), np.linspace(0, 3, 7), np.ones((9, 7)))
        assert trapezoid_2d(f.axis1, f.axis2, f.values) == pytest.approx(6.0, rel=1e-12)


class TestCsv:
    def test_round_trip(self, small_field, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(path, small_field)
        lines = path.read_text().splitlines()  # two header lines, the axis-2 row, the body
        axis2 = np.array(lines[2].split(",")[1:], dtype=float)
        body = np.array([ln.split(",") for ln in lines[3:]], dtype=float)
        assert np.allclose(body[:, 0], small_field.axis1, atol=1e-11)
        assert np.allclose(axis2, small_field.axis2, atol=1e-11)
        assert np.allclose(body[:, 1:], small_field.values, rtol=1e-11)

    def test_two_header_lines(self, small_field, tmp_path):
        lines = csv_text(tmp_path, small_field).splitlines()
        assert lines[0].startswith("#") and lines[1].startswith("#")
        assert not lines[2].startswith("#")
        assert "time [T_rev]" in lines[0]

    def test_byte_stability(self, small_field, tmp_path):
        assert csv_text(tmp_path, small_field, "a.csv") == csv_text(tmp_path, small_field, "b.csv")

    def test_cells_match_per_cell_formatting(self, tmp_path):
        # Signed zero, the smallest subnormal, exponent switches of %.12g and
        # a value that rounds in the 12th digit.
        awkward = [-0.0, 5e-324, 1e21, 123456789012.5, -1.5e-7, 0.1, -1e-300, 1e16, 2.5]
        axis1 = np.array(awkward[:4])
        axis2 = np.array(awkward[4:])
        values = np.array([np.roll(awkward, k)[: len(axis2)] for k in range(len(axis1))])
        f = Field2D(axis1, axis2, values, {"axis1": "a", "axis2": "b", "values": "c"})
        expected = [
            "# axis1 (rows): a; axis2 (columns): b; values: c",
            "# first data row lists axis2 coordinates; first column lists axis1 coordinates",
            "," + ",".join("%.12g" % float(v) for v in axis2),
        ]
        for t, row in zip(axis1, values):
            expected.append(",".join("%.12g" % float(v) for v in [t, *row]))
        text = csv_text(tmp_path, f)
        assert text == "\n".join(expected) + "\n"
        row = "-0,-0,4.94065645841e-324,1e+21,123456789012,-1.5e-07"
        assert text.splitlines()[3] == row

    def test_write_streams_rows(self, tmp_path):
        # A 512^2 field is 2 MiB; the writer holds one row of text and its
        # floats at a time (measured 0.06 MiB).
        rng = np.random.default_rng(3)
        f = Field2D(np.linspace(0.0, 1.0, 512), np.linspace(-1.0, 1.0, 512), rng.normal(size=(512, 512)))
        tracemalloc.start()
        try:
            write_field_csv(tmp_path / "big.csv", f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= f.values.nbytes // 8


class TestPgm:
    def test_density_export_dimensions(self, small_field, tmp_path):
        path = tmp_path / "field.pgm"
        write_field_pgm(path, small_field, signed=False)
        comment, data = parse_pgm(path)
        assert data.shape == (len(small_field.axis1), len(small_field.axis2))
        assert "gamma=0.5" in comment and "max=" in comment
        assert data.max() == 255                      # global maximum maps to white
        assert data[:, 0].max() == 0                  # wall column is black

    def test_gamma_compression(self, tmp_path):
        t = np.arange(2.0)
        x = np.arange(3.0)
        values = np.array([[0.0, 1.0, 4.0]] * 2)      # quarter of max -> half gray
        path = tmp_path / "gamma.pgm"
        write_field_pgm(path, Field2D(t, x, values), signed=False)
        _, data = parse_pgm(path)
        assert list(data[0]) == [0, 128, 255]

    def test_signed_export_midgray_zero(self, tmp_path):
        t = np.linspace(0, 1, 3)
        x = np.linspace(0, 1, 5)
        values = np.array([[-1.0, -0.5, 0.0, 0.5, 1.0]] * 3)
        path = tmp_path / "signed.pgm"
        write_field_pgm(path, Field2D(t, x, values), signed=True)
        comment, data = parse_pgm(path)
        assert "mapping=symmetric" in comment and "absmax=" in comment
        assert data[0, 0] == 0 and data[0, -1] == 255
        assert data[0, 2] in (127, 128)

    def test_negative_values_rejected_for_unsigned(self, tmp_path):
        f = Field2D(np.arange(2.0), np.arange(2.0), np.array([[0.0, -1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            write_field_pgm(tmp_path / "bad.pgm", f, signed=False)


class TestSharedRules:
    # Small integers make ties and plateaus common.
    @given(st.lists(st.integers(-3, 3), min_size=0, max_size=40))
    def test_local_maxima_match_the_index_loop(self, trace):
        v = np.array(trace, dtype=float)
        oracle = [i for i in range(1, len(v) - 1) if v[i - 1] < v[i] >= v[i + 1]]
        assert local_maxima(v).tolist() == oracle

    def test_parabolic_vertex_on_arrays_is_the_scalar_formula(self):
        def scalar(left, mid, right):
            denom = left - 2.0 * mid + right
            shift = 0.5 * (left - right) / denom if denom != 0.0 else 0.0
            return shift, mid - 0.25 * (left - right) * shift

        # Small integers give flat and linear triples, normals the general case.
        rng = np.random.default_rng(5)
        samples = np.hstack([rng.normal(size=(3, 200)), rng.integers(-2, 3, (3, 200))])
        got = np.stack(parabolic_vertex(*samples), axis=1)
        want = np.array([scalar(*triple) for triple in samples.T])
        assert got.tobytes() == want.tobytes()

    def test_empty_window_holds_one_sample_alone(self):
        assert uniform_times((0.3, 0.3), 1).tolist() == [0.3]
        with pytest.raises(ValueError, match="t1 > t0"):
            uniform_times((0.3, 0.3), 5)

    @pytest.mark.parametrize("triple", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (-0.5, 0.0, 0.5)])
    def test_flat_triple_gives_zero_shift_and_mid(self, triple):
        shift, height = parabolic_vertex(*triple)
        assert (shift, height) == (0.0, triple[1])
