"""Text formats: .rlat for residuated lattices, .blat for bounded
distributive lattices, and the label-list filter syntax used on the
command line.

.rlat, line oriented, UTF-8, '#' starts a comment:

    elements: 0 a b c 1
    order: 0<a 0<b a<c b<c c<1
    odot:
    0 0 0 0 0
    ...           (n rows)
    imp: derive   (or n explicit rows)

Round-trip guarantee: parsing the printed form of an algebra yields the
same algebra, labels included.  .blat is the `elements:` and `order:`
lines alone; `rlx reticulate --out` writes it, and no command reads it.

Labels live at this edge: a filter, a quotient and a reticulation lattice
show ids, and are printed here under the labels of the algebra read.
"""

from __future__ import annotations

from .core import covers_of, leq_from_covers, validate
from .errors import FileFormatError
from .filters import Filter


def _logical_lines(text):
    """(lineno, content) with comments and blank lines stripped."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_header(lines, pos, key):
    if pos >= len(lines):
        raise FileFormatError(f"missing '{key}:' section", lines[-1][0] if lines else 1)
    lineno, line = lines[pos]
    if not line.startswith(key + ":"):
        raise FileFormatError(f"expected '{key}:', found {line.split(':')[0]!r}", lineno)
    return lineno, line[len(key) + 1:].strip()


def _parse_table_rows(lines, pos, n, labels, lineno_hint):
    index = {lbl: i for i, lbl in enumerate(labels)}
    rows = []
    for k in range(n):
        if pos >= len(lines):
            raise FileFormatError(f"table needs {n} rows, found {k}", lineno_hint)
        lineno, line = lines[pos]
        parts = line.split()
        if len(parts) != n:
            raise FileFormatError(f"row wants {n} entries, found {len(parts)}", lineno)
        try:
            rows.append(tuple(index[p] for p in parts))
        except KeyError as exc:
            raise FileFormatError(f"unknown element {exc.args[0]!r}", lineno) from None
        pos += 1
    return tuple(rows), pos


def _parse_elements_and_order(lines, pos):
    lineno, rest = _parse_header(lines, pos, "elements")
    labels = tuple(rest.split())
    if not labels:
        raise FileFormatError("no elements listed", lineno)
    if len(set(labels)) != len(labels):
        raise FileFormatError("duplicate element labels", lineno)
    for lbl in labels:
        if "<" in lbl or "," in lbl or "{" in lbl or "}" in lbl:
            raise FileFormatError(f"label {lbl!r} uses a reserved character", lineno)
    pos += 1
    index = {lbl: i for i, lbl in enumerate(labels)}

    lineno, rest = _parse_header(lines, pos, "order")
    covers = []
    for pair in rest.split():
        if "<" not in pair:
            raise FileFormatError(f"covering pair {pair!r} wants the form x<y", lineno)
        lo, hi = pair.split("<", 1)
        if lo not in index or hi not in index:
            raise FileFormatError(f"unknown element in pair {pair!r}", lineno)
        covers.append((index[lo], index[hi]))
    pos += 1
    leq = leq_from_covers(len(labels), covers)
    return labels, leq, pos


def parse_rlat(text):
    lines = _logical_lines(text)
    labels, leq, pos = _parse_elements_and_order(lines, 0)
    n = len(labels)

    lineno, rest = _parse_header(lines, pos, "odot")
    pos += 1
    if rest:
        raise FileFormatError("odot wants its rows on the following lines", lineno)
    odot, pos = _parse_table_rows(lines, pos, n, labels, lineno)

    lineno, rest = _parse_header(lines, pos, "imp")
    pos += 1
    if rest == "derive":
        imp = None
    elif rest:
        raise FileFormatError("imp wants 'derive' or rows on following lines", lineno)
    else:
        imp, pos = _parse_table_rows(lines, pos, n, labels, lineno)
    if pos != len(lines):
        raise FileFormatError("trailing content", lines[pos][0])
    return validate(labels, leq, odot, imp)


def print_rlat(A, labels=None):
    """A in .rlat form, under `labels` when given, else A's own: the
    .blat header of :func:`print_blat`, then the two tables."""
    labels = A.labels if labels is None else labels
    text = print_blat(A, labels)
    for name, table in (("odot", A.odot), ("imp", A.imp)):
        text += f"{name}:\n" + "".join(
            " ".join(labels[v] for v in row) + "\n" for row in table)
    return text


def print_blat(L, labels=None):
    """The `elements:` and `order:` lines of L, under `labels` when given,
    else L's own."""
    labels = L.labels if labels is None else labels
    covers = covers_of(L.leq)
    lines = [
        "elements: " + " ".join(labels),
        "order: " + " ".join(f"{labels[lo]}<{labels[hi]}" for lo, hi in covers),
    ]
    return "\n".join(lines) + "\n"


def parse_filter(A, text):
    """Filter from a label list: 'c,1' or '{c,1}'."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    names = [p.strip() for p in body.split(",") if p.strip()]
    index = {lbl: i for i, lbl in enumerate(A.labels)}
    members = set()
    for name in names:
        if name not in index:
            raise FileFormatError(f"unknown element {name!r}", 1)
        members.add(index[name])
    return Filter(A, frozenset(members))


def print_filter(A, F):
    """Label-list form '{c,1}' of F under A's labels, the inverse of
    parse_filter(A, ...)."""
    return "{" + ",".join(A.labels[x] for x in F.sorted_members()) + "}"


def reticulation_labels(A, R):
    """The labels '[e)' of the lattice of R = build_reticulation(A), e the
    generator of each principal filter under A's labels."""
    return tuple(f"[{A.labels[F.gen]})" for F in R.filter_of)


def load_rlat(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rlat(fh.read())


def save_rlat(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_rlat(A))

