"""Discrete domains, fields with boundary traces, and the discrete operators.

Two desk-scale domains are supported: a 1D interval whose boundary is the
two endpoints (counting measure, vanishing surface Laplacian) and a 2D
strip, periodic in x, whose boundary is the two lines y = +-1 (there the
surface Laplacian is the periodic second derivative in x).  One operators
class serves both as product grids X x [y0, y1]: the interval is the strip
with one column of unit weight.

Grids are node-centered and include the boundary nodes; boundary degrees of
freedom are identified with boundary nodes.  The Neumann Laplacian comes
from ghost-node elimination in conservative (flux) form, so the quadrature-
weighted row sums vanish exactly and mass conservation is exact to solver
tolerance.  The inverse Laplacian is defined on zero-mean functions only
and pins the mean through a bordered system rather than a pinned node.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConfigError, CorruptSnapshotError, NonZeroMeanError,
                     SingularSystemError)

# bulk nodes of a grid at most, so that a huge size fails before allocating
MAX_NODES = 10 ** 7


@dataclass(frozen=True)
class Interval:
    n: int
    a: float = -1.0
    b: float = 1.0

    kind = "interval"

    def __post_init__(self):
        if not 5 <= self.n <= MAX_NODES:
            raise ValueError(f"interval needs 5 to {MAX_NODES} nodes, "
                             f"got n={self.n!r}")
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
        if self.nx * self.ny > MAX_NODES:
            raise ValueError(f"strip needs at most {MAX_NODES} nodes, got "
                             f"nx * ny = {self.nx} * {self.ny}")
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
    """Quadrature, stiffness, H^-1 and Phi^w on the product grid X x [y0, y1]
    of a domain: nx nodes of weight dx along X (periodic on the strip, one
    node of unit weight on the interval) times the ny-node trapezoid grid
    along y.  Gamma is the two end rows y = y0 and y = y1, each node weighted
    dx; bulk values flatten in C order of (nx, ny)."""

    def __init__(self, domain):
        self.domain = domain
        if domain.kind == "interval":
            nx, dx, ny, hy = 1, 1.0, domain.n, domain.h
            Kx = sp.csr_array((1, 1))  # a two-point Gamma has no Laplacian
            self.bulk_shape, self.trace_shape = (ny,), (2,)
            self.area = domain.b - domain.a
            self._axes = np.zeros(1), 1.0, domain.x
        else:
            nx, dx, ny, hy = domain.nx, domain.dx, domain.ny, domain.hy
            Kx = _periodic_stiffness(nx, dx)
            self.bulk_shape, self.trace_shape = (nx, ny), (2, nx)
            self.area = 2.0 * domain.Lx
            self._axes = domain.x, domain.Lx, domain.y
        self._grid = nx, dx, ny, hy
        wx, wy = np.full(nx, dx), _trapezoid_weights(ny, hy)
        self.n_bulk = nx * ny
        self.weights = np.kron(wx, wy)
        self.boundary_weights = np.full(2 * nx, dx)
        idx = np.arange(nx) * ny
        self.boundary_indices = np.concatenate([idx, idx + ny - 1])  # y0 then y1
        self.K = (sp.kron(Kx, sp.diags_array(wy))
                  + sp.kron(sp.diags_array(wx), _interval_stiffness(ny, hy))).tocsr()
        self.K_gamma = sp.block_diag([Kx, Kx], format="csr")

    @functools.cached_property
    def _poisson_lu(self):
        """K bordered by the weights (the zero mean), factored on first use."""
        m = sp.csr_array(self.weights.reshape(1, -1))
        return factorize(sp.block_array([[self.K, m.T], [m, None]], format="csc"))

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

    def cosine_mode(self, kx, ky, phase=0.0, amp=1.0):
        """amp cos(2 pi kx x / period + phase) cos(pi ky (y - y0) / (y1 - y0)):
        a periodic mode along X (the constant on the interval's one column)
        times a Neumann cosine mode along y."""
        x, period, y = self._axes
        cx = np.cos(2.0 * np.pi * kx * x / period + phase)
        cy = np.cos(np.pi * ky * (y - y[0]) / (y[-1] - y[0]))
        return ((amp * cx)[:, None] * cy[None, :]).reshape(self.bulk_shape)

    def normal_derivative(self, bulk):
        """Outward one-sided second-order differences across y0 and y1."""
        _, _, ny, hy = self._grid
        u = np.reshape(bulk, (-1, ny))
        bottom = (3.0 * u[:, 0] - 4.0 * u[:, 1] + u[:, 2]) / (2.0 * hy)
        top = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * hy)
        return np.stack([bottom, top]).reshape(self.trace_shape)

    # --- Laplacian and its inverse --------------------------------------
    def laplacian_eigenvalues(self):
        """Generalized eigenvalues of (K, diag(weights)), zero mode first: the
        outer sum of the periodic (Fourier) x spectrum, [0] for one column,
        and the Neumann y spectrum."""
        nx, dx, ny, hy = self._grid
        kx = (2.0 / dx * np.sin(np.pi * np.arange(nx) / nx)) ** 2
        return np.add.outer(kx, _neumann_eigenvalues(ny, hy)).ravel()

    def inverse_laplacian(self, r):
        """Solve -Lap w = r with Neumann data and zero mean, for one field or
        each of a stack along a leading axis, in one LU solve.  A field's
        solution has the same bits in any stack (one dot per contiguous row).

        Requires mean ~ 0 of each field; returns the zero-mean solutions.
        """
        r = np.asarray(r, dtype=float)
        rows = r.reshape(-1, self.n_bulk)
        # absolute floor so that all-roundoff inputs (norm ~ eps) pass
        if np.any(np.abs(rows @ self.weights)
                  > np.maximum(1e-8 * np.linalg.norm(rows, axis=1), 1e-14)):
            raise NonZeroMeanError("inverse Laplacian requires zero-mean input")
        b = np.vstack([(self.weights * rows).T, np.zeros(len(rows))])
        w = np.ascontiguousarray(self._poisson_lu.solve(b)[:-1].T)
        w -= (w[:, None] @ self.weights) / self.area  # one dot per field
        return w.reshape(r.shape)

    def h_minus1_norm(self, r):
        """|| r ||_{H^-1}: (A r, r)^(1/2) on zero-mean r."""
        w = self.inverse_laplacian(r)
        val = self.inner(w, r)
        return float(np.sqrt(max(val, 0.0)))

    def phi_w_distance(self, f1: Field, f2: Field):
        """sqrt(||u1-u2||^2_{H^-1(Omega)} + ||psi1-psi2||^2_{L^2(Gamma)}), a
        float for two fields, or an array for the pairs of fields that f1's
        and f2's arrays stack along a leading axis, in one Poisson solve."""
        d = np.reshape(f1.bulk - f2.bulk, (-1, self.n_bulk))
        dpsi = np.reshape(f1.trace - f2.trace, (len(d), -1))
        mean = (d[:, None] @ self.weights) / self.area  # one dot per pair
        if np.any(np.abs(mean[:, 0]) > 1e-8 * (1.0 + np.max(np.abs(d), axis=1))):
            raise NonZeroMeanError("phi_w_distance requires equal bulk means")
        d = d - mean
        h = np.sqrt(np.maximum(_dot(self.weights * self.inverse_laplacian(d), d), 0.0))
        # float_power squares with libm's pow, as Python's float ** 2 does;
        # h * h rounds differently in about 0.1% of cases, which would move
        # the written distances by an ulp
        dist = np.sqrt(np.float_power(h, 2) + _dot(self.boundary_weights * dpsi, dpsi))
        return float(dist[0]) if np.shape(f1.bulk) == self.bulk_shape else dist


def _dot(a, b):
    """Inner products along the last axis, one BLAS dot each, as in
    _OperatorsBase.inner: equal rows give equal bits wherever they sit in a
    stack, if each row is contiguous."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def factorize(A):
    """SuperLU of the structurally symmetric CSC matrix A: the MMD ordering
    of A^T + A and the symmetric mode, which prefers diagonal pivots."""
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def make_operators(domain):
    if not isinstance(domain, (Interval, PeriodicStrip)):
        raise TypeError(f"unknown domain: {domain!r}")
    return _OperatorsBase(domain)


def write_rows(path, header, rows):
    """One CSV table in one % format from the first row's types, so each
    column holds one type: floats (np.float64 too) as .17g, which reads back
    to the same double; every other value as str(), csv's default form for
    values that need no quoting (numbers, bools, identifiers)."""
    write_text(path, _table(header, rows))


def write_text(path, text):
    """The one open-and-write behind every output file.  It makes the
    file's directory, and newline="" keeps the text's line ends.  A file
    that cannot be written is a ConfigError."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _table(header, rows):
    rows = list(rows)
    fmt = ",".join("%.17g" if isinstance(v, float) else "%s"
                   for v in rows[0]) + "\r\n" if rows else ""
    return ",".join(header) + "\r\n" + fmt * len(rows) % tuple(
        chain.from_iterable(rows))


def field_to_csv(ops, field: Field, path):
    """One row per node (x[,y], u); the trace follows as flagged rows."""
    write_text(path, _snapshot_template(ops.domain) % tuple(
        np.ravel(field.bulk).tolist() + np.ravel(field.trace).tolist()))


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


@functools.lru_cache(maxsize=8)
def _snapshot_cells(dom):
    """The cells of dom's template split at commas, with \\n line ends, as
    field_from_csv splits a file, and the slice of its u slots: from the
    first, one a row."""
    cells = _snapshot_template(dom).replace("\r\n", "\n").split(",")
    first = cells.index("%.17g")
    return cells, slice(first, None, cells.index("%.17g", first + 1) - first)


def field_from_csv(ops, path):
    """The Field of a snapshot file that field_to_csv wrote for ops.domain.
    Split at commas, every cell but the u values must equal its cell of the
    writer's template, so one comparison checks the header, coordinates,
    kinds and row layout; each u value must parse with float, be finite
    and hold no line end.  Either line end reads (\\r\\n as \\n).  Anything
    else raises CorruptSnapshotError."""
    want, slots = _snapshot_cells(ops.domain)
    # universal newlines read \r\n and \r as \n; an undecodable byte reads
    # as U+FFFD, which fails the comparison or the float parse
    with open(path, errors="replace") as fh:
        cells = fh.read().split(",")
    u = cells[slots]
    if len(cells) == len(want):  # else the comparison fails anyway
        cells[slots] = want[slots]
    if cells != want:
        raise CorruptSnapshotError(f"{path}: not a snapshot of {ops.domain}")
    try:
        values = np.array([float(v) for v in u])
    except ValueError as exc:
        raise CorruptSnapshotError(f"{path}: {exc}") from None
    # float strips whitespace, so a row broken after its u value would load
    if "\n" in "".join(u) or not np.isfinite(values).all():
        raise CorruptSnapshotError(
            f"{path}: a u value is not finite or holds a line end")
    return Field(values[:ops.n_bulk].reshape(ops.bulk_shape),
                 values[ops.n_bulk:].reshape(ops.trace_shape))
