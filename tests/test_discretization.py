import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc.discretization import (Field, Interval, PeriodicStrip,
                                  _interval_stiffness, _neumann_eigenvalues,
                                  _trapezoid_weights, field_from_csv,
                                  field_to_csv, make_operators, write_rows)
from chdbc.errors import ChdbcError, CorruptSnapshotError, NonZeroMeanError


@pytest.fixture
def iops():
    return make_operators(Interval(65))


@pytest.fixture
def sops():
    return make_operators(PeriodicStrip(2.0, 16, 17))


class TestQuadrature:
    def test_weights_sum_to_area(self, iops, sops):
        assert iops.weights.sum() == pytest.approx(iops.area)
        assert sops.weights.sum() == pytest.approx(sops.area)

    def test_mean_of_constant(self, iops, sops):
        for ops in (iops, sops):
            assert ops.mean(np.full(ops.n_bulk, 3.5)) == pytest.approx(3.5)

    def test_boundary_mean_interval(self, iops):
        # counting measure on the two endpoints, divided by |Omega| = 2
        assert iops.boundary_mean(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_boundary_mean_strip(self, sops):
        # two boundary lines of length Lx, |Omega| = 2 Lx: a constant c
        # averages to c
        c = 0.7
        psi = np.full(sops.trace_shape, c)
        assert sops.boundary_mean(psi) == pytest.approx(c)


def _neg_laplacian(ops, v):
    """-Lap v = K v / weights, flat: the Neumann Laplacian is -K (ghost-node
    elimination) over the quadrature weights."""
    return ops.K @ np.ravel(v) / ops.weights


class TestLaplacian:
    def test_constant_in_kernel(self, iops, sops):
        for ops in (iops, sops):
            v = np.full(ops.bulk_shape, 2.0)
            assert np.max(np.abs(_neg_laplacian(ops, v))) < 1e-12

    def test_conservative(self, iops, sops):
        rng = np.random.default_rng(0)
        for ops in (iops, sops):
            v = rng.standard_normal(ops.bulk_shape)
            # Neumann: the weighted integral of the Laplacian vanishes
            assert abs(ops.weights @ _neg_laplacian(ops, v)) < 1e-10

    def test_eigenfunction_interval(self, iops):
        x = iops.domain.x
        v = np.cos(np.pi * (x + 1.0) / 2.0)
        lam = (np.pi / 2.0) ** 2
        err = np.max(np.abs(_neg_laplacian(iops, v) - lam * v))
        assert err < 2e-3

    def test_eigenfunction_strip(self, sops):
        X, Y = np.meshgrid(sops.domain.x, sops.domain.y, indexing="ij")
        v = np.cos(np.pi * X) * np.cos(np.pi * (Y + 1.0) / 2.0)
        lam = np.pi ** 2 + (np.pi / 2.0) ** 2
        err = np.max(np.abs(_neg_laplacian(sops, v) - lam * v.ravel()))
        assert err < 0.15  # coarse grid, O(h^2)


class TestInverseLaplacian:
    def test_roundtrip(self, iops, sops):
        rng = np.random.default_rng(1)
        for ops in (iops, sops):
            r = rng.standard_normal(ops.bulk_shape)
            r -= ops.mean(r)
            w = ops.inverse_laplacian(r)
            assert abs(ops.mean(w)) < 1e-12
            assert np.max(np.abs(_neg_laplacian(ops, w) - r.ravel())) < 1e-9

    def test_rejects_nonzero_mean(self, iops):
        with pytest.raises(NonZeroMeanError):
            iops.inverse_laplacian(np.ones(iops.n_bulk))

    @pytest.mark.parametrize("m", [1, 16])
    def test_stack_matches_single_solves(self, iops, sops, m):
        rng = np.random.default_rng(3)
        for ops in (iops, sops):
            r = rng.standard_normal((m, ops.n_bulk))
            r -= (r @ ops.weights)[:, None] / ops.area
            r = r.reshape(m, *ops.bulk_shape)
            w = ops.inverse_laplacian(r)
            assert w.shape == r.shape
            for wk, rk in zip(w, r):
                single = ops.inverse_laplacian(rk)
                assert np.linalg.norm(wk - single) \
                    <= 1e-14 * np.linalg.norm(single)

    def test_one_field_stack_is_bitwise_the_field(self, iops, sops):
        rng = np.random.default_rng(4)
        for ops in (iops, sops):
            r = rng.standard_normal(ops.bulk_shape)
            r -= ops.mean(r)
            assert np.array_equal(ops.inverse_laplacian(r[None])[0],
                                  ops.inverse_laplacian(r))

    def test_stack_rejects_one_nonzero_mean_row(self, iops, sops):
        rng = np.random.default_rng(5)
        for ops in (iops, sops):
            r = rng.standard_normal((5, ops.n_bulk))
            r -= (r @ ops.weights)[:, None] / ops.area
            ops.inverse_laplacian(r)
            r[2] += 0.1
            with pytest.raises(NonZeroMeanError):
                ops.inverse_laplacian(r)

    def test_h_minus1_eigenvalue(self, iops):
        # [DERIVED] first Neumann eigenfunction: ||v||^2_{H^-1} = ||v||^2 / lam
        # = 4/pi^2 since the eigenvalue is pi^2/4 and ||v||^2 = 1
        v = np.cos(np.pi * (iops.domain.x + 1.0) / 2.0)
        val = iops.h_minus1_norm(v) ** 2
        assert val == pytest.approx(4.0 / np.pi ** 2, abs=2e-4)

    def test_strip_matches_dense(self):
        # the bordered solve satisfies the unbordered Neumann system K w = M r
        import scipy.sparse.linalg as spla
        ops = make_operators(PeriodicStrip(1.5, 8, 9))
        rng = np.random.default_rng(2)
        r = rng.standard_normal(ops.bulk_shape)
        r -= ops.mean(r)
        w = ops.inverse_laplacian(r)
        resid = ops.K @ w.ravel() - ops.weights * r.ravel()
        assert np.max(np.abs(resid)) < 1e-10


# One operator set per domain, built once: the property test draws from them.
_POISSON_OPS = [make_operators(d) for d in (
    Interval(9), Interval(129, -4.0, 4.0), PeriodicStrip(2.0, 4, 5),
    PeriodicStrip(1.5, 12, 13), PeriodicStrip(2.0, 40, 41))]


@given(st.sampled_from(_POISSON_OPS), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-6, 1e6))
@settings(max_examples=60, deadline=None)
def test_inverse_laplacian_property(ops, seed, scale):
    r = scale * np.random.default_rng(seed).standard_normal(ops.bulk_shape)
    r -= ops.mean(r)
    w = ops.inverse_laplacian(r)
    assert (np.linalg.norm(_neg_laplacian(ops, w) - r.ravel())
            <= 1e-10 * np.linalg.norm(r))
    assert abs(ops.mean(w)) <= 1e-14 * np.max(np.abs(w))


_DOMAINS = st.one_of(
    st.builds(lambda n, a, length: Interval(n, a, a + length),
              st.integers(5, 160), st.floats(-5.0, 5.0), st.floats(0.1, 10.0)),
    st.builds(PeriodicStrip, st.floats(0.2, 10.0), st.integers(4, 16),
              st.integers(5, 17)))


@given(_DOMAINS)
@settings(max_examples=60, deadline=None)
def test_laplacian_eigenvalues_match_dense(domain):
    """The closed-form spectrum equals the dense eigenvalues of the
    symmetrized pencil W^-1/2 K W^-1/2, zero mode first."""
    ops = make_operators(domain)
    s = 1.0 / np.sqrt(ops.weights)
    dense = np.linalg.eigvalsh(s[:, None] * ops.K.toarray() * s[None, :])
    kappa = ops.laplacian_eigenvalues()
    assert kappa.shape == (ops.n_bulk,)
    assert kappa[0] == 0.0 and np.all(kappa[1:] > 0.0)
    assert np.max(np.abs(np.sort(kappa) - dense)) <= 1e-12 * dense[-1]


@pytest.mark.parametrize("n, a, b", [(5, -1.0, 1.0), (33, -1.0, 1.0),
                                     (129, -4.0, 4.0), (17, 0.3, 1.7)])
def test_interval_is_the_one_column_strip_exactly(n, a, b):
    """The product grid with one column of unit weight reproduces the 1D
    stencil, trapezoid weights, counting measure and spectrum bit for bit."""
    dom = Interval(n, a, b)
    ops = make_operators(dom)
    K1 = _interval_stiffness(n, dom.h)
    assert ops.K.shape == K1.shape
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ops.K, attr), getattr(K1, attr))
    assert np.array_equal(ops.weights, _trapezoid_weights(n, dom.h))
    assert ops.K_gamma.shape == (2, 2) and ops.K_gamma.nnz == 0
    assert np.array_equal(ops.boundary_weights, [1.0, 1.0])
    assert np.array_equal(ops.boundary_indices, [0, n - 1])
    assert np.array_equal(ops.laplacian_eigenvalues(),
                          _neumann_eigenvalues(n, dom.h))
    assert (ops.bulk_shape, ops.trace_shape, ops.area) == ((n,), (2,), b - a)


@pytest.mark.parametrize("domain", [Interval(24), Interval(33, -4.0, 4.0),
                                    Interval(17, 0.3, 2.9),
                                    PeriodicStrip(2.0, 8, 9),
                                    PeriodicStrip(3.7, 12, 7)])
def test_cosine_mode_is_the_per_domain_formula_exactly(domain):
    """One basis for both domains: bit for bit the formulas written per
    domain kind, amp * cos_x * cos_y in that order."""
    ops = make_operators(domain)
    rng = np.random.default_rng(0)
    for kx, ky in [(0, 1), (0, 2), (1, 1), (2, 0), (2, 2), (1, 3)]:
        phase, amp = rng.uniform(0.0, 2.0 * np.pi), rng.standard_normal()
        if domain.kind == "interval":
            if kx:
                continue
            x, a, b = domain.x, domain.a, domain.b
            want = amp * np.cos(np.pi * ky * (x - a) / (b - a))
            got = ops.cosine_mode(0, ky, amp=amp)
        else:
            X, Y = domain.x[:, None], domain.y[None, :]
            want = amp * np.cos(2.0 * np.pi * kx * X / domain.Lx + phase) \
                * np.cos(np.pi * ky * (Y + 1.0) / 2.0)
            got = ops.cosine_mode(kx, ky, phase, amp)
        assert got.shape == ops.bulk_shape
        assert got.tobytes() == want.tobytes()


def test_unknown_domain_is_a_type_error():
    with pytest.raises(TypeError):
        make_operators((2.0, 8, 9))


class TestPhiW:
    def test_eigenfunction_example(self):
        # [DERIVED] bulk H^-1 part 4/pi^2, trace L^2 part 1^2 + (-1)^2 = 2
        ops = make_operators(Interval(257))
        v = np.cos(np.pi * (ops.domain.x + 1.0) / 2.0)
        f1 = ops.field_from_bulk(v)
        f0 = ops.field_from_bulk(np.zeros_like(v))
        d2 = ops.phi_w_distance(f1, f0) ** 2
        assert d2 == pytest.approx(2.0 + 4.0 / np.pi ** 2, abs=1e-4)

    def test_requires_equal_means(self, iops):
        f1 = iops.field_from_bulk(np.ones(iops.n_bulk))
        f0 = iops.field_from_bulk(np.zeros(iops.n_bulk))
        with pytest.raises(NonZeroMeanError):
            iops.phi_w_distance(f1, f0)

    def test_zero_distance(self, iops):
        v = np.sin(iops.domain.x)
        f = iops.field_from_bulk(v)
        assert iops.phi_w_distance(f, f.copy()) == 0.0


class TestBoundaryOperators:
    def test_normal_derivative_linear(self, iops):
        # exact (to stencil order) for linear functions: outward slopes +-a
        u = 3.0 * iops.domain.x + 1.0
        nd = iops.normal_derivative(u)
        assert nd[0] == pytest.approx(-3.0, abs=1e-10)
        assert nd[1] == pytest.approx(3.0, abs=1e-10)

    def test_normal_derivative_strip(self, sops):
        X, Y = np.meshgrid(sops.domain.x, sops.domain.y, indexing="ij")
        u = 2.0 * Y
        nd = sops.normal_derivative(u)
        assert np.allclose(nd[0], -2.0, atol=1e-10)
        assert np.allclose(nd[1], 2.0, atol=1e-10)

    def test_trace_of(self, iops):
        v = np.arange(iops.n_bulk, dtype=float)
        tr = iops.trace_of(v)
        assert tr[0] == 0.0 and tr[1] == iops.n_bulk - 1


class TestSerialization:
    def test_roundtrip_interval(self, iops, tmp_path):
        rng = np.random.default_rng(3)
        f = iops.field_from_bulk(rng.standard_normal(iops.bulk_shape))
        path = tmp_path / "f.csv"
        field_to_csv(iops, f, path)
        g = field_from_csv(iops, path)
        assert np.array_equal(f.bulk, g.bulk)
        assert np.array_equal(f.trace, g.trace)

    def test_roundtrip_strip(self, sops, tmp_path):
        rng = np.random.default_rng(4)
        f = sops.field_from_bulk(rng.standard_normal(sops.bulk_shape))
        path = tmp_path / "f.csv"
        field_to_csv(sops, f, path)
        g = field_from_csv(sops, path)
        assert np.array_equal(f.bulk, g.bulk)
        assert np.array_equal(f.trace, g.trace)

    @pytest.mark.parametrize("domain", [Interval(9, -2, 3), Interval(33),
                                        PeriodicStrip(1.5, 8, 9)])
    def test_bytes_match_per_row_csv_writer(self, tmp_path, domain):
        ops = make_operators(domain)
        rng = np.random.default_rng(5)
        f = Field(rng.standard_normal(ops.bulk_shape),
                  rng.standard_normal(ops.trace_shape))
        if domain.kind == "interval":
            header = ["x", "u", "kind"]
            rows = [*zip(domain.x.tolist(), f.bulk.tolist(),
                         ["bulk"] * domain.n),
                    *zip([domain.a, domain.b], f.trace.tolist(),
                         ["trace"] * 2)]
        else:
            header = ["x", "y", "u", "kind"]
            X, Y = np.meshgrid(domain.x, domain.y, indexing="ij")
            rows = [*zip(X.ravel().tolist(), Y.ravel().tolist(),
                         f.bulk.ravel().tolist(), ["bulk"] * ops.n_bulk),
                    *zip(np.tile(domain.x, 2).tolist(),
                         np.repeat([-1.0, 1.0], domain.nx).tolist(),
                         f.trace.ravel().tolist(), ["trace"] * 2 * domain.nx)]
        field_to_csv(ops, f, tmp_path / "got.csv")
        _csv_reference(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_template_per_domain(self, tmp_path):
        # equal n, different ends: each file carries its own coordinates
        for a, b in ((-1.0, 1.0), (0.0, 3.0), (-1.0, 1.0)):
            ops = make_operators(Interval(9, a, b))
            field_to_csv(ops, ops.field_from_bulk(np.zeros(9)),
                         tmp_path / "f.csv")
            with open(tmp_path / "f.csv", newline="") as fh:
                x = [float(row["x"]) for row in csv.DictReader(fh)]
            assert x == [*ops.domain.x.tolist(), a, b]

    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
                         1e300, -1e300]),
        st.floats(allow_nan=False, allow_infinity=False)),
        min_size=28, max_size=28))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        vals = np.array(values)
        for ops in _CSV_OPS:
            f = Field(vals[:ops.n_bulk].reshape(ops.bulk_shape),
                      vals[-len(ops.boundary_weights):].reshape(
                          ops.trace_shape))
            field_to_csv(ops, f, path)
            g = field_from_csv(ops, path)
            assert np.array_equal(g.bulk.view(np.int64), f.bulk.view(np.int64))
            assert np.array_equal(g.trace.view(np.int64),
                                  f.trace.view(np.int64))

    def test_any_column_order_line_end_and_float_text(self, tmp_path):
        ops = make_operators(Interval(5))
        rows = ["kind,u,x", "bulk,0.5,-1", "bulk, -.25,-0.5", "trace,1E-3,-1",
                "bulk,+0,0", "", "bulk,1_0.0,0.5", "trace,-2,1", "bulk,3,1"]
        for end in ("\n", "\r\n"):
            (tmp_path / "f.csv").write_bytes(end.join(rows).encode() + b"\n")
            g = field_from_csv(ops, tmp_path / "f.csv")
            assert g.bulk.tolist() == [0.5, -0.25, 0.0, 10.0, 3.0]
            assert g.trace.tolist() == [1e-3, -2.0]

    def test_shifted_value_still_loads(self, iops, tmp_path):
        path = tmp_path / "f.csv"
        field_to_csv(iops, iops.field_from_bulk(np.zeros(iops.n_bulk)), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(",0,", ",0.001,")
        path.write_text("\n".join(lines) + "\n")
        assert field_from_csv(iops, path).bulk[2] == 0.001

    @pytest.mark.parametrize("edit", [
        lambda ls: [ls[0].replace(",u,", ",v,"), *ls[1:]],
        lambda ls: [ls[0].replace("kind", "type"), *ls[1:]],
        lambda ls: [ls[0], ls[1].replace(",0,", ",zero,"), *ls[2:]],
        lambda ls: [ls[0], ls[1].replace(",0,", ",nan,"), *ls[2:]],
        lambda ls: [ls[0], ls[1].replace(",0,", ",-inf,"), *ls[2:]],
        lambda ls: [ls[0], ls[1].rsplit(",", 1)[0], *ls[2:]],
        lambda ls: [*ls, ls[1]],
        lambda ls: ls[:-1],
        lambda ls: [ls[0], *(ln.replace("trace", "bulk") for ln in ls[1:])],
        lambda ls: ls[:1],
        lambda ls: [],
        # two cells moved from one row to the next: the cell count is
        # unchanged, and read as one flat list every u cell holds a number
        lambda ls: [ls[0], ls[1].split(",")[0], ls[2] + ",0,bulk", *ls[3:]],
        # the writer never quotes; csv.reader would unquote these
        lambda ls: [ls[0], ls[1].replace(",0,", ',"0",'), *ls[2:]],
        lambda ls: [ls[0], ls[1].replace(",bulk", ',"bulk"'), *ls[2:]],
    ], ids=["no-u", "no-kind", "text", "nan", "inf", "short-row",
            "extra-bulk", "missing-trace", "trace-as-bulk", "no-rows",
            "empty", "short-and-long-row", "quoted-u", "quoted-kind"])
    def test_corrupt_snapshot_fails_loudly(self, tmp_path, edit):
        ops = make_operators(Interval(5))
        path = tmp_path / "f.csv"
        field_to_csv(ops, ops.field_from_bulk(np.zeros(5)), path)
        path.write_text("".join(ln + "\n" for ln in
                                edit(path.read_text().splitlines())))
        with pytest.raises(CorruptSnapshotError) as info:
            field_from_csv(ops, path)
        assert isinstance(info.value, ChdbcError)
        assert isinstance(info.value, ValueError)


_CSV_OPS = [make_operators(Interval(9)), make_operators(PeriodicStrip(2.0, 4, 5))]


def _csv_reference(path, header, rows):
    """The csv module's table, with floats formatted as .17g."""
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        wtr.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                      for row in rows)


class TestWriteRows:
    @pytest.mark.parametrize("header, rows", [
        (["x", "u", "kind"], [(0.1, -1 / 3, "bulk"), (1.0, 2e-300, "trace")]),
        (["branch", "h2", "condition_holds", "N", "margin"],
         [("satisfying", 0.0, True, 8, 0.25), ("violating", 3.0, False, 64,
                                                float("nan"))]),
        (["t", "N", "d"], [(np.float64(0.1), np.int64(16), np.float64(1e-17)),
                           (0.2, 32, float("inf")), (0.3, np.int64(-4), -0.0)]),
        (["s", "x1", "exit"], [[0.2, 1.0000000000000002, "interior"],
                               [4.0, 0.5, "saturated"]]),
        # a column whose type changes from row to row
        (["a", "b"], [(1, 2.5), (1.5, 2), (True, np.float64(3.0)), ("id", 7)]),
        (["only", "header"], []),
    ])
    def test_matches_csv_writer(self, tmp_path, header, rows):
        write_rows(tmp_path / "got.csv", header, iter(rows))
        _csv_reference(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


def test_field_copy_independent():
    ops = make_operators(Interval(17))
    f = ops.field_from_bulk(np.zeros(17))
    g = f.copy()
    g.bulk[0] = 5.0
    assert f.bulk[0] == 0.0
