"""Decimal matrix files.

States and certificates are stored as JSON with every float written with 17
significant digits, which round-trips IEEE doubles exactly; writing the same
object twice yields identical bytes. A layout entry is either a local
dimension or the tag "sym(k)" marking the symmetric weight space of k qubits.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .blocks import BlockState
from .convert import BosonicState
from .linalg import DensityMatrix
from .young import YoungDiagram

FORMAT_VERSION = 1

_SYM_TAG = re.compile(r"^sym\((\d+)\)$")


class MatrixFileError(Exception):
    """Malformed or inconsistent matrix file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _entries_text(matrix: np.ndarray) -> str:
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return "[" + ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in flat) + "]"


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
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise MatrixFileError(f"{path}: unsupported format_version {version!r}")
    layout = doc.get("layout")
    if not isinstance(layout, list) or not layout:
        raise MatrixFileError(f"{path}: missing or empty layout")
    clean_layout = []
    for entry in layout:
        if isinstance(entry, int) and entry >= 1:
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
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(v, (int, float)) for v in pair)):
            raise MatrixFileError(f"{path}: entry {i} is not a [re, im] pair")
        flat[i] = complex(pair[0], pair[1])
    mf.entries = flat.reshape(dim, dim)
    return mf


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


def load_extension(path) -> DensityMatrix | BosonicState:
    """Load either a full-space extension or a bosonic one, by layout tag."""
    mf = load_matrix_file(path)
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
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION or doc.get("kind") != "blocks":
        raise MatrixFileError(f"{path}: not a blocks certificate file")
    try:
        k = int(doc["k"])
        dA = int(doc["dA"])
        blocks = {}
        for part in doc["blocks"]:
            l1, l2 = (int(v) for v in part["diagram"])
            lam = YoungDiagram(l1, l2)
            n = dA * lam.num_weights
            flat = np.array([complex(p[0], p[1]) for p in part["entries"]])
            blocks[lam] = flat.reshape(n, n)
        return BlockState(k, dA, blocks)
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def load_blocks(path) -> BlockState:
    return _blocks(path, _read_json(path))


def load_block_or_state(path) -> BlockState | DensityMatrix:
    """A block certificate if the file holds a valid one, else a plain state.

    The file is read and parsed once; a file that is neither raises the error
    `load_state` would.
    """
    doc = _read_json(path)
    try:
        return _blocks(path, doc)
    except MatrixFileError:
        return _state(path, _matrix_file(path, doc))
