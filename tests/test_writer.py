"""The per-step CSV writer `_write_steps`: the bytes of csv's default dialect
over [k] + row.tolist(), written a chunk of rows at a time."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

from cukf.discrete import _CHUNK, FilterTrace, _write_steps

VALUES = np.array([-0.0, 5e-324, 1e16, 9999999999999998.0, 1e-05, 1.0,
                   0.1 + 0.2, np.nan, np.inf, -np.inf])


def csv_writer_text(ks, times, names, cols):
    """The reference rendering: csv.writer, one [k] + row.tolist() a row."""
    if times is not None:
        names, cols = ["t"] + names, [times[:, None]] + cols
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["k"] + names)
    for k, row in zip(ks, np.hstack(cols)):
        w.writerow([k] + row.tolist())
    return buf.getvalue().encode()


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("N", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               3 * _CHUNK + 7])
def test_write_steps_is_byte_identical_to_csv_writer(tmp_path, N, timed):
    rng = np.random.default_rng(N)
    cols = [rng.choice(VALUES, size=(N, 2)), rng.choice(VALUES, size=(N, 3))]
    times = rng.choice(VALUES, size=N) if timed else None
    names = ["a_0", "a_1", "b_0", "b_1", "b_2"]
    path = tmp_path / "steps.csv"
    _write_steps(path, range(5, 5 + N), times, names, cols)
    text = path.read_bytes()
    assert text == csv_writer_text(range(5, 5 + N), times, names, cols)
    assert text.count(b"\r\n") == N + 1
    if N > _CHUNK:
        for value in (b"-0.0", b"5e-324", b"1e+16", b"9999999999999998.0",
                      b"1e-05", b"1.0", b"0.30000000000000004", b"nan",
                      b"-inf"):
            assert value in text


def test_a_two_state_trace_is_byte_identical_to_csv_writer(tmp_path):
    rng = np.random.default_rng(2)
    N, n, m = 2 * _CHUNK + 3, 2, 2

    def draw(*shape):
        return rng.choice(VALUES, size=shape)

    trace = FilterTrace(
        indices=np.arange(1, 1 + N), xhat_prior=draw(N, n),
        Sigma_prior=draw(N, n, n), xhat_post=draw(N, n),
        Sigma_post=draw(N, n, n), innovation=draw(N, m), S=draw(N, m, m),
        gain=draw(N, n, m))
    trace.to_csv(tmp_path / "trace.csv")
    iu = np.triu_indices(n)
    names = ["xhat_prior_0", "xhat_prior_1", "xhat_post_0", "xhat_post_1",
             "innovation_0", "innovation_1", "S_diag_0", "S_diag_1",
             "Sigma_post_00", "Sigma_post_01", "Sigma_post_11"]
    cols = [trace.xhat_prior, trace.xhat_post, trace.innovation,
            np.diagonal(trace.S, axis1=1, axis2=2),
            trace.Sigma_post[:, iu[0], iu[1]]]
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_text(
        range(1, 1 + N), None, names, cols)


def test_write_steps_never_holds_the_whole_file(tmp_path):
    # The text of the whole 2.5 MB file would pass the first bound, and a
    # stacked copy of the 0.96 MB (N, 6) table would pass the second; the
    # chunks peak at about 0.14 MB.
    N = 20_000
    table = np.random.default_rng(0).standard_normal((N, 6))
    path = tmp_path / "steps.csv"
    tracemalloc.start()
    try:
        _write_steps(path, range(1, N + 1), None,
                     [f"x_{i}" for i in range(6)], [table])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    assert peak < table.nbytes / 4
