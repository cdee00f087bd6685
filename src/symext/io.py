"""Decimal matrix files.

States and certificates are stored as JSON with every float written with 17
significant digits, which round-trips IEEE doubles exactly, with one
exception: -0.0 is written as -0, which JSON reads as the integer 0, so it
loads as +0.0 (equal to -0.0, with the sign bit clear). Writing the same
object twice yields identical bytes. A layout entry is either a local
dimension or the tag "sym(k)" marking the symmetric weight space of k qubits.

Every file is one JSON object, one field a line, in the one order all kinds
share: format_version, kind, the head fields of the kind (layout for a
matrix; k and dA for blocks), metadata with its keys sorted, and last the
body field (entries for a matrix, blocks for blocks).

Loading checks the entry count of a matrix, or of each block of a
certificate, and then converts the entries in one numpy pass when they are
all plain [re, im] number pairs; any other list is checked entry by entry, so
an error names the first entry (and its block's diagram) that is not a pair
of numbers or does not fit in a float. JSON true and false are not numbers
there. Sizes (format_version, k, dA, the rows of a diagram and the
dimensions of a layout) must be JSON integers; true, false and 3.0 are
refused.

A file longer than one slice (64 KiB) is parsed without a Python list for
every entry: each "entries": [[ array in the writer's spacing is cut out and
parsed a slice of about 64 KiB at a time, cut between two pairs, into one
float array, and the rest of the document is parsed whole. A slice is taken
only when, without its number bytes (-+.0-9eE), it is "[, ]" a pair joined by
", ", every "], [" is whole, and with brackets read as spaces it parses as
one flat JSON list of numbers that fit in a float. Any other file, and every
file of at most one slice, is parsed whole, and that path gives every
error: a file loads to the same arrays, or fails with the same message,
either way. A file that is not ASCII is an error naming it. Every loader
checks the state it builds in full (see `linalg`), but for verify's
`load_extension(path, checked=False)`, which skips trace and positivity.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator
from itertools import chain
from math import prod

import numpy as np

from .blocks import BlockState, BosonicState
from .caps import integer_size
from .linalg import DensityMatrix
from .young import YoungDiagram

FORMAT_VERSION = 1

_SYM_TAG = re.compile(r"^sym\((\d+)\)$")


class MatrixFileError(Exception):
    """Malformed or inconsistent matrix file."""


def _entries_chunks(matrix: np.ndarray) -> Iterator[str]:
    """The JSON list of the entries as [re, im] pairs, each part in 17 significant digits, a row a chunk."""
    yield "["
    # a view of a C-contiguous complex matrix, which every state and block is
    for r, row in enumerate(np.ascontiguousarray(matrix, dtype=complex).view(np.float64)):
        parts = iter(row.tolist())
        yield (", " if r else "") + ", ".join(map("[%.17g, %.17g]".__mod__, zip(parts, parts)))
    yield "]"


def _slots(entry) -> int:
    """The local dimension of a layout entry: a sym(k) tag has k+1 slots."""
    return entry if isinstance(entry, int) else int(_SYM_TAG.match(entry).group(1)) + 1


def _write(path, kind: str, head: dict, metadata: dict | None, body: tuple[str, Iterable[str]]) -> None:
    """Write a file in the field order of every kind (see the module docstring).

    head maps field names to JSON values; body is the name of the last field
    and the chunks of the JSON text of its value, written as given one at a
    time, so that the whole text is never held.
    """
    lines = ["{", f'"format_version": {FORMAT_VERSION},', f'"kind": {json.dumps(kind)},']
    lines += [f'"{name}": {json.dumps(value)},' for name, value in head.items()]
    lines += [f'"metadata": {json.dumps(metadata or {}, sort_keys=True)},', f'"{body[0]}": ']
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.writelines(body[1])
        fh.write("\n}\n")


def save_matrix_file(path, matrix, layout, kind: str = "state", metadata: dict | None = None) -> None:
    _write(path, kind, {"layout": list(layout)}, metadata, ("entries", _entries_chunks(matrix)))


def _check_version(path, doc: dict) -> None:
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise MatrixFileError(f"{path}: unsupported format_version {version!r}")


# a file of more bytes than this has its entries parsed a slice of about this many bytes at a time
_SLICE = 1 << 16
_ENTRIES = b'"entries": [['
# the bytes of a JSON number; without them a slice of the writer's pairs is "[, ]" a pair, joined by ", "
_NUMBER_BYTES = b"-+.0123456789eE"


def _read_json(path):
    """The JSON document of the file at path, parsed as the module docstring says."""
    with open(path, "rb") as fh:
        data = fh.read()
    doc = _sliced_doc(data) if len(data) > _SLICE and data.isascii() else None
    if doc is not None:
        return doc
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    # universal newlines, as a file opened in text mode reads them
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _sliced_doc(data: bytes):
    """json.loads(data), with every entries array in the writer's shape as a
    flat complex array, or None where that could differ from json.loads(data).

    Each array is cut out of the data and parsed a slice at a time; the rest
    is parsed whole, with a NaN standing in for each array, so it must hold
    no NaN or Infinity of its own. A cut can only be inside a string when
    the quote before the key closes a string, and then the key is a bare
    word that the rest keeps, so the rest does not parse.
    """
    arrays, pieces, pos = [], [], 0
    while (start := data.find(_ENTRIES, pos)) >= 0:
        start += len(_ENTRIES) - 2
        end = data.find(b"]]", start)  # an array of pairs ends at its first ]]
        pairs = _pairs(data, start + 1, end + 1) if end >= 0 else None
        if pairs is None:
            return None
        arrays.append(pairs)
        pieces += (data[pos:start], b"NaN")
        pos = end + 2
    pieces.append(data[pos:])
    if not arrays or any(b"NaN" in p or b"Infinity" in p for p in pieces[::2]):
        return None
    placed = iter(arrays)
    try:
        return json.loads(b"".join(pieces).decode("ascii"), parse_constant=lambda _: next(placed))
    except ValueError:
        return None


def _pairs(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The pairs data[start:end] lists, a slice at a time, as a flat complex
    array, or None unless each slice is the writer's skeleton and its runs of
    number bytes, brackets read as spaces, are one flat JSON list of floats."""
    # one pair before the first "], [" and one after each; a run of number bytes beside a
    # bracket outside a pair breaks a "], [", so the slices then hold more pairs than out
    out = np.empty(2 * data.count(b"], [", start, end) + 2)
    n = 0
    while start < end:
        cut = data.find(b"], [", min(start + _SLICE, end), end) + 1 or end
        piece = data[start:cut]
        pairs = piece.count(b"[")
        if piece.translate(None, _NUMBER_BYTES) != b"[, ]" + b", [, ]" * (pairs - 1):
            return None
        # brackets read as spaces join no two runs, so each part between commas is one number
        try:
            out[n : n + 2 * pairs] = json.loads(b"[" + piece.translate(bytes.maketrans(b"[]", b"  ")) + b"]")
        except (ValueError, OverflowError):
            return None
        n += 2 * pairs
        start = cut + 2
    return out.view(np.complex128)


def _matrix_file(path, doc) -> tuple[list, np.ndarray]:
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: top level is not an object")
    if doc.get("kind") == "blocks":
        raise MatrixFileError(f"{path}: a blocks certificate, not a matrix file")
    _check_version(path, doc)
    layout = doc.get("layout")
    if not isinstance(layout, list) or not layout:
        raise MatrixFileError(f"{path}: missing or empty layout")
    for entry in layout:
        if not ((type(entry) is int and entry >= 1) or (isinstance(entry, str) and _SYM_TAG.match(entry))):
            raise MatrixFileError(f"{path}: bad layout entry {entry!r}")
    entries = doc.get("entries")
    if not isinstance(entries, (list, np.ndarray)):
        raise MatrixFileError(f"{path}: missing entries")
    dim = prod(map(_slots, layout))
    if len(entries) != dim * dim:
        raise MatrixFileError(f"{path}: expected {dim * dim} entries for layout {layout}, found {len(entries)}")
    return layout, _complex_entries(path, entries).reshape(dim, dim)


def _complex_entries(where, entries: list | np.ndarray) -> np.ndarray:
    """The [re, im] pairs of a matrix or block as a flat complex array.

    `where` names the file, or the file and the block, in error messages.
    An array is one that `_read_json` parsed already.
    """
    if isinstance(entries, np.ndarray):
        return entries
    try:
        pairs = np.asarray(entries)
    except ValueError:  # ragged nesting
        pairs = None
    fast = pairs is not None and pairs.dtype.kind in "iuf" and pairs.shape == (len(entries), 2)
    # numpy reads true and false beside numbers as 1 and 0; the loop below refuses them
    if fast and bool not in map(type, chain.from_iterable(entries)):
        # a view keeps every part as parsed; re + 1j*im would turn inf into nan
        return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(-1)
    flat = np.empty(len(entries), dtype=complex)
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair)):
            raise MatrixFileError(f"{where}: entry {i} is not a [re, im] pair")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise MatrixFileError(f"{where}: entry {i} does not fit in a float: {exc}") from exc
    return flat


def load_matrix_file(path) -> tuple[list, np.ndarray]:
    """The layout of the matrix file at path, as written, and its square complex matrix.

    A sym(k) tag of the layout counts k+1 slots in the matrix's dimension.
    """
    return _matrix_file(path, _read_json(path))


def save_state(state: DensityMatrix, path, metadata: dict | None = None) -> None:
    save_matrix_file(path, state.matrix, list(state.dims), kind="state", metadata=metadata)


def _state(path, layout: list, matrix: np.ndarray, checked: bool = True) -> DensityMatrix:
    if any(not isinstance(e, int) for e in layout):
        raise MatrixFileError(f"{path}: layout {layout} is not a plain state layout")
    try:
        return DensityMatrix(matrix, layout, checked=checked)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def load_state(path) -> DensityMatrix:
    return _state(path, *load_matrix_file(path))


def save_bosonic(sigma: BosonicState, path, metadata: dict | None = None) -> None:
    save_matrix_file(
        path, sigma.matrix, [sigma.dA, f"sym({sigma.k})"], kind="bosonic", metadata=metadata
    )


def load_extension(path, *, checked: bool = True) -> DensityMatrix | BlockState:
    """Load a full-space extension, a bosonic one (by layout tag) or a block
    certificate (by kind), parsing the file once."""
    doc = _read_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "blocks":
        return _blocks(path, doc, checked)
    layout, matrix = _matrix_file(path, doc)
    tags = [e for e in layout if isinstance(e, str)]
    if not tags:
        return _state(path, layout, matrix, checked)
    if len(layout) != 2 or not isinstance(layout[0], int) or tags != [layout[1]]:
        raise MatrixFileError(f"{path}: bosonic layout must be [dA, \"sym(k)\"], got {layout}")
    k = int(_SYM_TAG.match(layout[1]).group(1))
    try:
        return BosonicState(layout[0], k, matrix, checked=checked)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def save_blocks(bs: BlockState, path, metadata: dict | None = None) -> None:
    def chunks():
        yield "["
        for n, lam in enumerate(sorted(bs.blocks, key=lambda d: -d.lambda1)):
            yield f'{", " if n else ""}{{"diagram": [{lam.lambda1}, {lam.lambda2}], "entries": '
            yield from _entries_chunks(bs.blocks[lam])
            yield "}"
        yield "]"

    _write(path, "blocks", {"k": bs.k, "dA": bs.dA}, metadata, ("blocks", chunks()))


def _blocks(path, doc, checked: bool = True) -> BlockState:
    if not isinstance(doc, dict) or doc.get("kind") != "blocks":
        raise MatrixFileError(f"{path}: not a blocks certificate file")
    _check_version(path, doc)
    try:
        k = integer_size("k", doc["k"])
        dA = integer_size("dA", doc["dA"])
        blocks = {}
        for part in doc["blocks"]:
            l1, l2 = (integer_size("diagram row", v) for v in part["diagram"])
            lam = YoungDiagram(l1, l2)
            if lam in blocks:
                raise MatrixFileError(f"{path}: diagram [{l1},{l2}] appears twice")
            n = dA * lam.num_weights
            entries = part["entries"]
            if len(entries) != n * n:
                raise MatrixFileError(f"{path}: expected {n * n} entries for diagram [{l1},{l2}], found {len(entries)}")
            blocks[lam] = _complex_entries(f"{path}: diagram [{l1},{l2}]", entries).reshape(n, n)
        return BlockState(k, dA, blocks, checked=checked)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def load_blocks(path) -> BlockState:
    return _blocks(path, _read_json(path))
