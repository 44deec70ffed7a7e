"""Discrete domains, fields with boundary traces, and the discrete operators.

Two desk-scale domains are supported: a 1D interval whose boundary is the
two endpoints (counting measure, vanishing surface Laplacian) and a 2D
strip, periodic in x, whose boundary is the two lines y = +-1 (there the
surface Laplacian is the periodic second derivative in x).

Grids are node-centered and include the boundary nodes; boundary degrees of
freedom are identified with boundary nodes.  The Neumann Laplacian comes
from ghost-node elimination in conservative (flux) form, so the quadrature-
weighted row sums vanish exactly and mass conservation is exact to solver
tolerance.  The inverse Laplacian is defined on zero-mean functions only
and pins the mean through a bordered system rather than a pinned node.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CorruptSnapshotError, NonZeroMeanError, SingularSystemError

__all__ = [
    "Interval",
    "PeriodicStrip",
    "Field",
    "make_operators",
    "IntervalOperators",
    "StripOperators",
    "write_rows",
    "field_to_csv",
    "field_from_csv",
]


@dataclass(frozen=True)
class Interval:
    n: int
    a: float = -1.0
    b: float = 1.0

    kind = "interval"

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("interval needs at least 5 nodes")
        if not -np.inf < self.a < self.b < np.inf:  # NaN fails too
            raise ValueError(f"interval needs finite a < b, got a={self.a!r}, "
                             f"b={self.b!r}")

    @property
    def h(self):
        return (self.b - self.a) / (self.n - 1)

    @property
    def x(self):
        return np.linspace(self.a, self.b, self.n)


@dataclass(frozen=True)
class PeriodicStrip:
    Lx: float
    nx: int
    ny: int

    kind = "strip"

    def __post_init__(self):
        if self.nx < 4 or self.ny < 5:
            raise ValueError("strip needs nx >= 4 and ny >= 5")
        if not 0.0 < self.Lx < np.inf:  # NaN fails too
            raise ValueError(f"strip needs a finite Lx > 0, got {self.Lx!r}")

    @property
    def dx(self):
        return self.Lx / self.nx

    @property
    def hy(self):
        return 2.0 / (self.ny - 1)

    @property
    def x(self):
        return self.dx * np.arange(self.nx)

    @property
    def y(self):
        return np.linspace(-1.0, 1.0, self.ny)


@dataclass
class Field:
    """Bulk values plus an independently stored boundary trace.

    After a time step the trace equals the bulk boundary values exactly;
    only the initial datum may carry a mismatch.
    """

    bulk: np.ndarray
    trace: np.ndarray

    def copy(self):
        return Field(self.bulk.copy(), self.trace.copy())


def _interval_stiffness(n, h):
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sp.diags_array([off, main, off], offsets=[-1, 0, 1], format="csr")


def _periodic_stiffness(n, h):
    K = sp.diags_array(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
    ).tolil()
    K[0, n - 1] = -1.0
    K[n - 1, 0] = -1.0
    return (K / h).tocsr()


def _neumann_eigenvalues(n, h):
    """Spectrum of the trapezoid-weighted Neumann stencil: cosine modes."""
    return (2.0 / h * np.sin(np.pi * np.arange(n) / (2 * (n - 1)))) ** 2


def _trapezoid_weights(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


class _OperatorsBase:
    """Shared quadrature, H^-1 and Phi^w machinery; geometry in subclasses."""

    def __init__(self):
        # Called last by the subclasses, once K and the weights are set.
        self._poisson_lu = _bordered_lu(self.K, self.weights)

    # --- quadrature -----------------------------------------------------
    def mean(self, v):
        return float(self.weights @ np.ravel(v)) / self.area

    def inner(self, v, w):
        return float((self.weights * np.ravel(v)) @ np.ravel(w))

    def boundary_mean(self, psi):
        """Gamma-integral divided by |Omega|, matching the mean-potential bookkeeping."""
        return float(self.boundary_weights @ np.ravel(psi)) / self.area

    def boundary_inner(self, psi, phi):
        return float((self.boundary_weights * np.ravel(psi)) @ np.ravel(phi))

    def trace_of(self, bulk):
        return np.ravel(bulk)[self.boundary_indices].reshape(self.trace_shape)

    def field_from_bulk(self, bulk):
        bulk = np.asarray(bulk, dtype=float).reshape(self.bulk_shape)
        return Field(bulk, self.trace_of(bulk))

    # --- Laplacian and its inverse --------------------------------------
    def laplacian(self, v):
        """Conservative Neumann Laplacian (ghost-node elimination)."""
        flat = -(self.K @ np.ravel(v)) / self.weights
        return flat.reshape(np.shape(v))

    def inverse_laplacian(self, r):
        """Solve -Lap w = r with Neumann data and zero mean.

        Requires mean(r) ~ 0; returns the zero-mean solution.
        """
        r = np.asarray(r, dtype=float)
        flat = np.ravel(r)
        nrm = np.linalg.norm(flat)
        # absolute floor so that all-roundoff inputs (norm ~ eps) pass
        if abs(self.mean(r)) * self.area > max(1e-8 * nrm, 1e-14):
            raise NonZeroMeanError("inverse Laplacian requires zero-mean input")
        w = self._poisson_solve(flat)
        w -= (self.weights @ w) / self.area
        return w.reshape(np.shape(r))

    def _poisson_solve(self, flat_r):
        rhs = np.concatenate([self.weights * flat_r, [0.0]])
        sol = self._poisson_lu.solve(rhs)
        return sol[:-1]

    def h_minus1_norm(self, r):
        """|| r ||_{H^-1}: (A r, r)^(1/2) on zero-mean r."""
        w = self.inverse_laplacian(r)
        val = self.inner(w, r)
        return float(np.sqrt(max(val, 0.0)))

    def phi_w_distance(self, f1: Field, f2: Field):
        """sqrt(||u1-u2||^2_{H^-1(Omega)} + ||psi1-psi2||^2_{L^2(Gamma)})."""
        d = f1.bulk - f2.bulk
        if abs(self.mean(d)) > 1e-8 * (1.0 + float(np.max(np.abs(d)))):
            raise NonZeroMeanError("phi_w_distance requires equal bulk means")
        d = d - self.mean(d)
        dpsi = f1.trace - f2.trace
        return float(np.sqrt(self.h_minus1_norm(d) ** 2 + self.boundary_inner(dpsi, dpsi)))


class IntervalOperators(_OperatorsBase):
    def __init__(self, domain: Interval):
        self.domain = domain
        n, h = domain.n, domain.h
        self.bulk_shape = (n,)
        self.trace_shape = (2,)
        self.n_bulk = n
        self.weights = _trapezoid_weights(n, h)
        self.area = domain.b - domain.a
        # Two-point boundary: counting measure on Gamma.
        self.boundary_weights = np.ones(2)
        self.boundary_indices = np.array([0, n - 1])
        self.K = _interval_stiffness(n, h)
        # Laplace-Beltrami on a two-point boundary vanishes.
        self.K_gamma = sp.csr_array((2, 2))
        super().__init__()

    def normal_derivative(self, bulk):
        """Outward one-sided second-order differences at the two endpoints."""
        u = np.ravel(bulk)
        h = self.domain.h
        left = (3.0 * u[0] - 4.0 * u[1] + u[2]) / (2.0 * h)
        right = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
        return np.array([left, right])

    def laplacian_eigenvalues(self):
        """Generalized eigenvalues of (K, diag(weights)), zero mode first."""
        return _neumann_eigenvalues(self.domain.n, self.domain.h)


class StripOperators(_OperatorsBase):
    def __init__(self, domain: PeriodicStrip):
        self.domain = domain
        nx, ny = domain.nx, domain.ny
        dx, hy = domain.dx, domain.hy
        self.bulk_shape = (nx, ny)
        self.trace_shape = (2, nx)
        self.n_bulk = nx * ny
        wx = np.full(nx, dx)
        wy = _trapezoid_weights(ny, hy)
        self.weights = np.kron(wx, wy)  # C-order flattening of (nx, ny)
        self.area = 2.0 * domain.Lx
        self.boundary_weights = np.full(2 * nx, dx)
        idx = np.arange(nx) * ny
        self.boundary_indices = np.concatenate([idx, idx + ny - 1])  # y=-1 then y=+1
        Kx = _periodic_stiffness(nx, dx)
        Ky = _interval_stiffness(ny, hy)
        Mx = sp.diags_array(wx)
        My = sp.diags_array(wy)
        self.K = (sp.kron(Kx, My) + sp.kron(Mx, Ky)).tocsr()
        self.K_gamma = sp.block_diag(
            [_periodic_stiffness(nx, dx), _periodic_stiffness(nx, dx)], format="csr"
        )
        super().__init__()

    def normal_derivative(self, bulk):
        u = np.asarray(bulk).reshape(self.bulk_shape)
        hy = self.domain.hy
        bottom = (3.0 * u[:, 0] - 4.0 * u[:, 1] + u[:, 2]) / (2.0 * hy)
        top = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * hy)
        return np.stack([bottom, top])

    def laplacian_eigenvalues(self):
        """Generalized eigenvalues of (K, diag(weights)), zero mode first: the
        outer sum of the periodic (Fourier) x and the Neumann y spectra."""
        dom = self.domain
        kx = (2.0 / dom.dx * np.sin(np.pi * np.arange(dom.nx) / dom.nx)) ** 2
        return np.add.outer(kx, _neumann_eigenvalues(dom.ny, dom.hy)).ravel()


def _bordered_lu(K, weights):
    m = sp.csr_array(weights.reshape(1, -1))
    A = sp.block_array([[K, m.T], [m, None]], format="csc")
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularSystemError("bordered Poisson factorization failed") from exc


def make_operators(domain):
    if isinstance(domain, Interval):
        return IntervalOperators(domain)
    if isinstance(domain, PeriodicStrip):
        return StripOperators(domain)
    raise TypeError(f"unknown domain: {domain!r}")


def write_rows(path, header, rows):
    """One CSV table: floats (np.float64 too) as .17g, which reads back to
    the same double; every other value as str(), which is csv's default form
    for values that need no quoting (numbers, bools, identifiers)."""
    with open(path, "w", newline="") as fh:
        fh.write(_table(header, rows))


def _table(header, rows):
    """write_rows' text.  Each row is one % format, built once per distinct
    tuple of column types."""
    formats = {}
    lines = [",".join(header) + "\r\n"]
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types) + "\r\n"
        lines.append(fmt % tuple(row))
    return "".join(lines)


def field_to_csv(ops, field: Field, path):
    """One row per node (x[,y], u); the trace follows as flagged rows."""
    text = _snapshot_template(ops.domain) % tuple(
        np.ravel(field.bulk).tolist() + np.ravel(field.trace).tolist())
    with open(path, "w", newline="") as fh:
        fh.write(text)


@functools.lru_cache(maxsize=8)
def _snapshot_template(dom):
    """The snapshot table of one domain with a %.17g slot for each u value,
    so that a write is one % format."""
    u = repeat("%.17g")
    if dom.kind == "interval":
        return _table(["x", "u", "kind"], [
            *zip(dom.x.tolist(), u, repeat("bulk")),
            *zip([dom.a, dom.b], u, repeat("trace"))])
    X, Y = np.meshgrid(dom.x, dom.y, indexing="ij")
    return _table(["x", "y", "u", "kind"], [
        *zip(X.ravel().tolist(), Y.ravel().tolist(), u, repeat("bulk")),
        *zip(np.tile(dom.x, 2).tolist(), np.repeat([-1.0, 1.0], dom.nx).tolist(),
             u, repeat("trace"))])


def field_from_csv(ops, path):
    """The Field of a snapshot file, columns found by name in the header;
    missing columns, unreadable or non-finite values and row counts that do
    not fit ops raise CorruptSnapshotError."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        try:
            get = itemgetter(header.index("u"), header.index("kind"))
        except ValueError:
            raise CorruptSnapshotError(
                f"{path}: header {header} lacks a u or kind column") from None
        try:
            u_text, kinds = tuple(zip(*map(get, filter(None, rows)))) or ((), ())
            u = np.array(list(map(float, u_text)))
        except (IndexError, ValueError, csv.Error) as exc:  # short row, bad number
            raise CorruptSnapshotError(f"{path}: {exc}") from None
    if not np.isfinite(u).all():
        raise CorruptSnapshotError(f"{path}: non-finite u value")
    is_trace = np.array(kinds) == "trace"
    bulk, trace = u[~is_trace], u[is_trace]
    if bulk.size != ops.n_bulk or trace.size != len(ops.boundary_weights):
        raise CorruptSnapshotError(
            f"{path}: {bulk.size} bulk and {trace.size} trace rows, expected "
            f"{ops.n_bulk} and {len(ops.boundary_weights)}")
    return Field(bulk.reshape(ops.bulk_shape), trace.reshape(ops.trace_shape))
