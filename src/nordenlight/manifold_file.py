"""Line-oriented manifold description files.

Grammar (one directive per line, whitespace separated, ``#`` starts a
comment):

    DIM <2n>
    BASIS <name> ...                      (optional, one name per dimension)
    BRACKET i j = k:q [k:q ...]           [X_i, X_j] = sum q X_k
    METRIC i j = q                        symmetric closure applied
    J i = k:q [k:q ...]                   J X_i = sum q X_k
    HYPERSURFACE metric=principal|assoc span=i,j,... [xi=k:q[,k:q...]]

Indices are 1-based and, like DIM, ASCII decimal digits; rationals are ``p``
or ``p/q`` with q > 0; omitted bracket and metric entries default to zero.
Duplicate entries (including the mirrored index pair of a BRACKET or METRIC
line, and a key repeated on a HYPERSURFACE line) are rejected with the line
number, as are unknown keywords, out-of-range indices and malformed rationals.

Two resource limits are checked at parse time, before any table is built:
DIM is at most MAX_DIM (a verdict at that size takes seconds), and every
coefficient's numerator and denominator, in lowest terms, fit in
MAX_COEFFICIENT_BITS bits (entries of the derived tables grow with them,
past what a report can print for much larger input).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .ambient import LieAlgebraSpec, NordenStructure, norden_structure
from .errors import ParseError
from .exact import DenseTensor, format_rational, parse_rational, rational_bits
from .hypersurface import HypersurfaceSpec

Terms = tuple[tuple[int, Fraction], ...]  # (1-based index, coefficient)

MAX_DIM = 16
MAX_COEFFICIENT_BITS = 64


@dataclass(frozen=True)
class HypersurfaceBlock:
    inducing_metric: str  # "principal" | "associated"
    span_indices: tuple[int, ...]  # 1-based
    xi_hint: Terms | None = None


@dataclass(frozen=True)
class ManifoldFile:
    dim: int
    basis_labels: tuple[str, ...]
    bracket_entries: tuple[tuple[int, int, Terms], ...]
    metric_entries: tuple[tuple[int, int, Fraction], ...]
    j_entries: tuple[tuple[int, Terms], ...]
    hypersurfaces: tuple[HypersurfaceBlock, ...]

    def to_text(self) -> str:
        """Serialize back to the input grammar; parsing the result yields an
        equal value."""
        lines = [f"DIM {self.dim}", "BASIS " + " ".join(self.basis_labels)]
        for i, j, terms in self.bracket_entries:
            lines.append(f"BRACKET {i} {j} = " + _fmt_terms(terms, " "))
        for i, j, q in self.metric_entries:
            lines.append(f"METRIC {i} {j} = {format_rational(q)}")
        for i, terms in self.j_entries:
            lines.append(f"J {i} = " + _fmt_terms(terms, " "))
        for h in self.hypersurfaces:
            metric = "principal" if h.inducing_metric == "principal" else "assoc"
            line = f"HYPERSURFACE metric={metric} span=" + ",".join(map(str, h.span_indices))
            if h.xi_hint is not None:
                line += " xi=" + _fmt_terms(h.xi_hint, ",")
            lines.append(line)
        return "\n".join(lines) + "\n"


def _fmt_terms(terms: Terms, sep: str) -> str:
    return sep.join(f"{k}:{format_rational(q)}" for k, q in terms)


def _parse_terms(tokens: list[str], dim: int, line_no: int) -> Terms:
    out = []
    seen = set()
    for tok in tokens:
        if ":" not in tok:
            raise ParseError(f"expected k:q term, got {tok!r}", line_no)
        k_text, q_text = tok.split(":", 1)
        k = _parse_index(k_text, dim, line_no)
        if k in seen:
            raise ParseError(f"duplicate index {k} in term list", line_no)
        seen.add(k)
        out.append((k, _coefficient(q_text, line_no)))
    return tuple(out)


def parse_manifold_file(text: str) -> ManifoldFile:
    dim = None
    labels: tuple[str, ...] | None = None
    brackets: list[tuple[int, int, Terms]] = []
    metrics: list[tuple[int, int, Fraction]] = []
    j_entries: list[tuple[int, Terms]] = []
    entry_keys: set[tuple] = set()  # (keyword, indices) of every BRACKET, METRIC and J line
    hypers: list[HypersurfaceBlock] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword == "DIM":
            if dim is not None:
                raise ParseError("duplicate DIM directive", line_no)
            if len(tokens) != 2:
                raise ParseError("DIM takes exactly one argument", line_no)
            dim = _decimal(tokens[1], "dimension", line_no)
            if dim <= 0:
                raise ParseError("dimension must be positive", line_no)
            if dim > MAX_DIM:
                raise ParseError(f"dimension {dim} exceeds the limit of {MAX_DIM}", line_no)
            continue

        if dim is None:
            raise ParseError("DIM must precede every other directive", line_no)

        if keyword == "BASIS":
            if labels is not None:
                raise ParseError("duplicate BASIS directive", line_no)
            if len(tokens) - 1 != dim:
                raise ParseError(f"BASIS needs {dim} names, got {len(tokens) - 1}", line_no)
            repeated = next((t for i, t in enumerate(tokens) if t in tokens[1:i]), None)
            if repeated is not None:
                raise ParseError(f"BASIS repeats the name {repeated!r}", line_no)
            labels = tuple(tokens[1:])
            continue

        if keyword == "BRACKET":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError("expected BRACKET i j = k:q ...", line_no)
            i, j = _parse_index(tokens[1], dim, line_no), _parse_index(tokens[2], dim, line_no)
            _claim(entry_keys, (keyword, frozenset((i, j))), f"({i},{j})", line_no)
            brackets.append((i, j, _parse_terms(tokens[4:], dim, line_no)))
            continue

        if keyword == "METRIC":
            if len(tokens) != 5 or tokens[3] != "=":
                raise ParseError("expected METRIC i j = q", line_no)
            i, j = _parse_index(tokens[1], dim, line_no), _parse_index(tokens[2], dim, line_no)
            _claim(entry_keys, (keyword, frozenset((i, j))), f"({i},{j})", line_no)
            metrics.append((i, j, _coefficient(tokens[4], line_no)))
            continue

        if keyword == "J":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected J i = k:q ...", line_no)
            i = _parse_index(tokens[1], dim, line_no)
            _claim(entry_keys, (keyword, i), str(i), line_no)
            j_entries.append((i, _parse_terms(tokens[3:], dim, line_no)))
            continue

        if keyword == "HYPERSURFACE":
            metric_sel = None
            span: tuple[int, ...] | None = None
            xi: Terms | None = None
            keys: set[str] = set()
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ParseError(f"expected key=value, got {tok!r}", line_no)
                key, value = tok.split("=", 1)
                if key in keys:
                    raise ParseError(f"duplicate hypersurface key {key!r}", line_no)
                keys.add(key)
                if key == "metric":
                    if value == "principal":
                        metric_sel = "principal"
                    elif value == "assoc":
                        metric_sel = "associated"
                    else:
                        raise ParseError(f"metric must be principal or assoc, got {value!r}", line_no)
                elif key == "span":
                    parts = value.split(",")
                    indices = tuple(_parse_index(p, dim, line_no) for p in parts)
                    if len(set(indices)) != len(indices):
                        raise ParseError("duplicate index in span", line_no)
                    if len(indices) != dim - 1:
                        raise ParseError(
                            f"span must list {dim - 1} indices, got {len(indices)}", line_no
                        )
                    span = indices
                elif key == "xi":
                    xi = _parse_terms(value.split(","), dim, line_no)
                else:
                    raise ParseError(f"unknown hypersurface key {key!r}", line_no)
            if metric_sel is None:
                raise ParseError("hypersurface needs metric=principal|assoc", line_no)
            if span is None:
                raise ParseError("hypersurface needs span=i,j,...", line_no)
            hypers.append(HypersurfaceBlock(metric_sel, span, xi))
            continue

        raise ParseError(f"unknown keyword {keyword!r}", line_no)

    if dim is None:
        raise ParseError("missing DIM directive")
    if labels is None:
        labels = tuple(f"X{i}" for i in range(1, dim + 1))
    return ManifoldFile(
        dim=dim,
        basis_labels=labels,
        bracket_entries=tuple(brackets),
        metric_entries=tuple(metrics),
        j_entries=tuple(j_entries),
        hypersurfaces=tuple(hypers),
    )


def _coefficient(text: str, line_no: int) -> Fraction:
    """A rational within MAX_COEFFICIENT_BITS. A numerator or denominator of
    that many bits has at most a third as many decimal digits, so longer
    text is rejected before any conversion to int."""
    q = None
    if len(text) <= 2 * MAX_COEFFICIENT_BITS:
        try:
            q = parse_rational(text)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if q is None or rational_bits(q) > MAX_COEFFICIENT_BITS:
        raise ParseError(
            f"coefficient exceeds the limit of {MAX_COEFFICIENT_BITS} bits "
            "for its numerator and denominator",
            line_no,
        )
    return q


def _claim(entry_keys: set, key: tuple, where: str, line_no: int) -> None:
    """Record the (keyword, indices) key of a BRACKET, METRIC or J line, once."""
    if key in entry_keys:
        raise ParseError(f"duplicate {key[0]} entry for {where}", line_no)
    entry_keys.add(key)


def _decimal(text: str, what: str, line_no: int) -> int:
    """An integer written in ASCII decimal digits; int() alone also reads
    signs, underscores, whitespace and the digits of other scripts."""
    if text.isascii() and text.isdigit():
        with suppress(ValueError):  # more digits than int() converts
            return int(text)
    raise ParseError(f"bad {what} {text!r}", line_no)


def _parse_index(text: str, dim: int, line_no: int) -> int:
    i = _decimal(text, "index", line_no)
    if not 1 <= i <= dim:
        raise ParseError(f"index {i} out of range 1..{dim}", line_no)
    return i


# ---------------------------------------------------------------------------
# conversion to engine inputs: the only place where parsed Fraction entries
# become tables


def lie_algebra_spec(mf: ManifoldFile) -> LieAlgebraSpec:
    n = mf.dim
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, terms in mf.bracket_entries:
        for k, q in terms:
            table[i - 1][j - 1][k - 1] = q
            table[j - 1][i - 1][k - 1] = -q
    flat = tuple(table[i][j][k] for i in range(n) for j in range(n) for k in range(n))
    return LieAlgebraSpec(n, mf.basis_labels, DenseTensor.from_entries((n, n, n), flat))


def norden_from_file(mf: ManifoldFile) -> NordenStructure:
    n = mf.dim
    g = [[Fraction(0)] * n for _ in range(n)]
    for i, j, q in mf.metric_entries:
        g[i - 1][j - 1] = q
        g[j - 1][i - 1] = q
    j_table = [[Fraction(0)] * n for _ in range(n)]
    for i, terms in mf.j_entries:
        for k, q in terms:
            j_table[k - 1][i - 1] = q  # column i holds J X_i
    return norden_structure(
        DenseTensor.from_entries((n, n), chain.from_iterable(g)),
        DenseTensor.from_entries((n, n), chain.from_iterable(j_table)),
    )


def hypersurface_specs(mf: ManifoldFile) -> tuple[HypersurfaceSpec, ...]:
    n = mf.dim
    out = []
    for block in mf.hypersurfaces:
        # row r of the span is the unit vector of its r-th index
        offsets = tuple(r * n + i - 1 for r, i in enumerate(block.span_indices))
        span = DenseTensor((len(offsets), n), offsets, (1,) * len(offsets), 1)
        hint = None
        if block.xi_hint is not None:
            coords = [Fraction(0)] * n
            for k, q in block.xi_hint:
                coords[k - 1] = q
            hint = DenseTensor.from_entries((n,), coords)
        out.append(HypersurfaceSpec(span, block.inducing_metric, hint))
    return tuple(out)
