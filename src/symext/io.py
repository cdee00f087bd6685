"""Decimal matrix files.

States and certificates are stored as JSON with every float written with 17
significant digits, which round-trips IEEE doubles exactly, with one
exception: -0.0 is written as -0, which JSON reads as the integer 0, so it
loads as +0.0 (equal to -0.0, with the sign bit clear). Writing the same
object twice yields identical bytes. A layout entry is either a local
dimension or the tag "sym(k)" marking the symmetric weight space of k qubits.

Loading checks the entry count of a matrix, or of each block of a
certificate, and then converts the entries in one numpy pass when they are
all plain [re, im] number pairs; any other list is checked entry by entry, so
an error names the first entry (and its block's diagram) that is not a pair
of numbers or does not fit in a float. Sizes (format_version, k, dA, the
rows of a diagram and the dimensions of a layout) must be JSON integers;
true, false and 3.0 are refused.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .blocks import BlockState
from .caps import integer_size
from .convert import BosonicState
from .linalg import DensityMatrix
from .young import YoungDiagram

FORMAT_VERSION = 1

_SYM_TAG = re.compile(r"^sym\((\d+)\)$")


class MatrixFileError(Exception):
    """Malformed or inconsistent matrix file."""


def _entries_text(matrix: np.ndarray) -> str:
    """The entries as [re, im] pairs, each part in 17 significant digits."""
    parts = iter(np.ascontiguousarray(matrix, dtype=complex).view(np.float64).reshape(-1).tolist())
    return "[" + ", ".join(map("[%.17g, %.17g]".__mod__, zip(parts, parts))) + "]"


def _metadata_text(metadata: dict | None) -> str:
    return json.dumps(metadata or {}, sort_keys=True)


@dataclass
class MatrixFile:
    layout: list
    entries: np.ndarray  # square complex matrix
    kind: str = "state"
    metadata: dict = field(default_factory=dict)

    def dims(self) -> tuple[int, ...]:
        """Local dimensions, with sym(k) tags resolved to k+1 slots."""
        out = []
        for entry in self.layout:
            if isinstance(entry, int):
                out.append(entry)
            else:
                out.append(int(_SYM_TAG.match(entry).group(1)) + 1)
        return tuple(out)


def save_matrix_file(path, matrix, layout, kind: str = "state", metadata: dict | None = None) -> None:
    matrix = np.asarray(matrix, dtype=complex)
    layout_json = json.dumps(list(layout))
    lines = [
        "{",
        f'"format_version": {FORMAT_VERSION},',
        f'"kind": {json.dumps(kind)},',
        f'"layout": {layout_json},',
        f'"metadata": {_metadata_text(metadata)},',
        f'"entries": {_entries_text(matrix)}',
        "}",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_int(value) -> bool:
    """Whether `caps.integer_size` accepts value; it refuses JSON true, false and 3.0."""
    try:
        integer_size("", value)
    except ValueError:
        return False
    return True


def _check_version(path, doc: dict) -> None:
    version = doc.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise MatrixFileError(f"{path}: unsupported format_version {version!r}")


def _read_json(path):
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _matrix_file(path, doc) -> MatrixFile:
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: top level is not an object")
    _check_version(path, doc)
    layout = doc.get("layout")
    if not isinstance(layout, list) or not layout:
        raise MatrixFileError(f"{path}: missing or empty layout")
    clean_layout = []
    for entry in layout:
        if _is_int(entry) and entry >= 1:
            clean_layout.append(entry)
        elif isinstance(entry, str) and _SYM_TAG.match(entry):
            clean_layout.append(entry)
        else:
            raise MatrixFileError(f"{path}: bad layout entry {entry!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise MatrixFileError(f"{path}: missing entries")
    mf = MatrixFile(clean_layout, np.empty(0), str(doc.get("kind", "state")), doc.get("metadata") or {})
    dim = prod(mf.dims())
    if len(entries) != dim * dim:
        raise MatrixFileError(f"{path}: expected {dim * dim} entries for layout {clean_layout}, found {len(entries)}")
    mf.entries = _complex_entries(path, entries).reshape(dim, dim)
    return mf


def _complex_entries(where, entries: list) -> np.ndarray:
    """The [re, im] pairs of a matrix or block as a flat complex array.

    `where` names the file, or the file and the block, in error messages.
    """
    try:
        pairs = np.asarray(entries)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is not None and pairs.dtype.kind in "biuf" and pairs.shape == (len(entries), 2):
        # a view keeps every part as parsed; re + 1j*im would turn inf into nan
        return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128).reshape(-1)
    flat = np.empty(len(entries), dtype=complex)
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, (int, float)) for v in pair)):
            raise MatrixFileError(f"{where}: entry {i} is not a [re, im] pair")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise MatrixFileError(f"{where}: entry {i} does not fit in a float: {exc}") from exc
    return flat


def load_matrix_file(path) -> MatrixFile:
    return _matrix_file(path, _read_json(path))


def save_state(state: DensityMatrix, path, metadata: dict | None = None) -> None:
    save_matrix_file(path, state.matrix, list(state.dims), kind="state", metadata=metadata)


def _state(path, mf: MatrixFile) -> DensityMatrix:
    if any(not isinstance(e, int) for e in mf.layout):
        raise MatrixFileError(f"{path}: layout {mf.layout} is not a plain state layout")
    try:
        return DensityMatrix(mf.entries, mf.dims())
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def load_state(path) -> DensityMatrix:
    return _state(path, load_matrix_file(path))


def save_bosonic(sigma: BosonicState, path, metadata: dict | None = None) -> None:
    save_matrix_file(
        path, sigma.matrix, [sigma.dA, f"sym({sigma.k})"], kind="bosonic", metadata=metadata
    )


def load_extension(path) -> DensityMatrix | BosonicState | BlockState:
    """Load a full-space extension, a bosonic one (by layout tag) or a block
    certificate (by kind), parsing the file once."""
    doc = _read_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "blocks":
        return _blocks(path, doc)
    mf = _matrix_file(path, doc)
    tags = [e for e in mf.layout if isinstance(e, str)]
    if not tags:
        return _state(path, mf)
    if len(mf.layout) != 2 or not isinstance(mf.layout[0], int) or tags != [mf.layout[1]]:
        raise MatrixFileError(f"{path}: bosonic layout must be [dA, \"sym(k)\"], got {mf.layout}")
    k = int(_SYM_TAG.match(mf.layout[1]).group(1))
    try:
        return BosonicState(mf.layout[0], k, mf.entries)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def save_blocks(bs: BlockState, path, metadata: dict | None = None) -> None:
    parts = []
    for lam in sorted(bs.blocks, key=lambda d: -d.lambda1):
        parts.append(
            f'{{"diagram": [{lam.lambda1}, {lam.lambda2}], "entries": {_entries_text(bs.blocks[lam])}}}'
        )
    lines = [
        "{",
        f'"format_version": {FORMAT_VERSION},',
        '"kind": "blocks",',
        f'"k": {bs.k},',
        f'"dA": {bs.dA},',
        f'"metadata": {_metadata_text(metadata)},',
        '"blocks": [' + ", ".join(parts) + "]",
        "}",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _blocks(path, doc) -> BlockState:
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
            n = dA * lam.num_weights
            entries = part["entries"]
            if len(entries) != n * n:
                raise MatrixFileError(f"{path}: expected {n * n} entries for diagram [{l1},{l2}], found {len(entries)}")
            blocks[lam] = _complex_entries(f"{path}: diagram [{l1},{l2}]", entries).reshape(n, n)
        return BlockState(k, dA, blocks)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def load_blocks(path) -> BlockState:
    return _blocks(path, _read_json(path))


def load_block_or_state(path) -> BlockState | DensityMatrix:
    """A block certificate if the file's kind is "blocks", else a plain state.

    The file is read and parsed once. A blocks file that does not hold a valid
    certificate raises the error `load_blocks` would; any other file raises
    the error `load_state` would.
    """
    doc = _read_json(path)
    if isinstance(doc, dict) and doc.get("kind") == "blocks":
        return _blocks(path, doc)
    return _state(path, _matrix_file(path, doc))
