import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

import symext
from conftest import planted_marginal, planted_two_copy, product_state, random_density, singlet_state
from symext.blocks import PROFILE_EXCLUDE_BOSONIC, BlockState, blocks_to_global, gen_random_extendible, marginal_from_blocks
from symext.cli import _Help, _UsageError, build_parser, main, run_command
from symext.convert import BosonicState, sym_to_bos, verify_extension
from symext.io import (
    MatrixFileError,
    _entries_chunks,
    load_blocks,
    load_extension,
    load_matrix_file,
    load_state,
    save_blocks,
    save_bosonic,
    save_matrix_file,
    save_state,
)
from symext.linalg import DensityMatrix
from symext.schur import build_schur_basis
from symext.solver import qutrit_counterexample
from symext.young import YoungDiagram, list_diagrams

MARKER = "--- timings ---"


def above_marker(report):
    head, _, _ = report.partition(MARKER)
    return head


def test_state_round_trip_is_exact(tmp_path):
    path = tmp_path / "rho.state"
    rho = product_state()
    save_state(rho, path, metadata={"seed": 5})
    back = load_state(path)
    assert back.dims == rho.dims
    assert np.array_equal(back.matrix, rho.matrix)
    # identical bytes on re-save: the format is canonical
    first = path.read_bytes()
    save_state(back, path, metadata={"seed": 5})
    assert path.read_bytes() == first


def test_negative_zero_loads_as_positive_zero(tmp_path):
    # the one double that does not round-trip: -0.0 is written as -0, which
    # JSON reads as the integer 0
    path = tmp_path / "rho.state"
    m = np.array([[0.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.5]])
    save_matrix_file(path, m, [2])
    assert '"entries": [[0.5, 0], [-0, -0], [-0, 0], [0.5, 0]]' in path.read_text()
    _, back = load_matrix_file(path)
    assert np.array_equal(back, m)
    assert not np.signbit(back.view(np.float64)).any()
    assert np.signbit(m.view(np.float64)).sum() == 3


def _per_element_entries_text(matrix):
    # the per-element formatter the list-based writer replaces
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return "[" + ", ".join(f"[{format(float(z.real), '.17g')}, {format(float(z.imag), '.17g')}]" for z in flat) + "]"


def test_entries_text_matches_the_per_element_formatter():
    gen = np.random.default_rng(11)
    m = gen.standard_normal((7, 7)) + 1j * gen.standard_normal((7, 7))
    m.flat[:8] = [-0.0, 5e-324, 1e-300, 1e22, complex(-0.0, -0.0), complex(1e-310, -1e308), 0.1, 1 / 3]
    for matrix in (m, m.T, m[::2, 1::3], m.real, np.eye(3, dtype=int), np.zeros((0, 0))):
        assert "".join(_entries_chunks(matrix)) == _per_element_entries_text(matrix)


def test_saving_a_full_space_state_peaks_below_its_array(tmp_path):
    # the entries are written a row at a time, so neither the whole text nor
    # a list of every float is held: together about twelve times the array
    _, witness = gen_random_extendible(8, 2, 0)
    rho = blocks_to_global(witness, build_schur_basis(8))
    tracemalloc.start()
    try:
        save_state(rho, tmp_path / "full.state")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rho.matrix.nbytes == 16 * 512**2, peak / rho.matrix.nbytes


def _load_peak(load, path):
    tracemalloc.start()
    try:
        loaded = load(path)
        return tracemalloc.get_traced_memory()[1], loaded
    finally:
        tracemalloc.stop()


def test_loading_a_full_space_state_or_a_certificate_peaks_below_five_arrays(tmp_path):
    # the entries are parsed a slice at a time into one array, so no list of
    # every float is held: the file's bytes, the array and one slice's lists
    _, witness = gen_random_extendible(8, 2, 0)
    path = tmp_path / "full.state"
    save_state(blocks_to_global(witness, build_schur_basis(8)), path)
    peak, (_, loaded) = _load_peak(load_matrix_file, path)
    assert peak < 5 * loaded.nbytes == 5 * 16 * 512**2, peak / loaded.nbytes
    _, witness = gen_random_extendible(64, 2, 0)
    path = tmp_path / "w.blocks"
    save_blocks(witness, path)
    peak, loaded = _load_peak(load_blocks, path)
    size = sum(block.nbytes for block in loaded.blocks.values())
    assert peak < 5 * size, peak / size


def test_qutrit_qubit_layout_round_trips(tmp_path):
    gen = np.random.default_rng(2)
    m = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
    rho = DensityMatrix(m @ m.conj().T / np.trace(m @ m.conj().T).real, (3, 2))
    path = tmp_path / "rho.state"
    save_state(rho, path)
    assert load_state(path).dims == (3, 2)


def test_blocks_round_trip(tmp_path):
    _, witness = gen_random_extendible(3, 2, 1)
    path = tmp_path / "w.blocks"
    save_blocks(witness, path, metadata={"seed": 1})
    back = load_blocks(path)
    assert back.k == 3 and back.dA == 2
    assert back.blocks.keys() == witness.blocks.keys()
    for lam, x in witness.blocks.items():
        assert np.array_equal(back.blocks[lam], x)


def test_bosonic_round_trip_and_dispatch(tmp_path):
    _, witness = gen_random_extendible(4, 2, 2)
    bos = sym_to_bos(witness)
    path = tmp_path / "sigma.state"
    save_bosonic(bos, path)
    back = load_extension(path)
    assert isinstance(back, BosonicState)
    assert back.k == 4 and back.dA == 2
    assert np.array_equal(back.matrix, bos.matrix)
    # a plain layout comes back as a full-space state
    full = tmp_path / "full.state"
    save_state(blocks_to_global(bos, build_schur_basis(4)), full)
    assert isinstance(load_extension(full), DensityMatrix)


def test_each_file_kind_is_written_byte_for_byte(tmp_path):
    # every kind shares one field order: format_version, kind, the head
    # fields, metadata with sorted keys, then the body; entries are exact in
    # binary, and -0.0 is written as -0
    meta = {"z": [True, "x"], "a": 1}
    m = np.array([[0.5, complex(-0.0, 0.25)], [complex(-0.0, -0.25), 0.5]])
    entries = "[[0.5, 0], [-0, 0.25], [0, -0.25], [0.5, 0]]"
    top = np.array([[0.25, 0.125j, -0.0], [-0.125j, 0.25, 0], [-0.0, 0, 0]])
    blocks = BlockState(2, 1, {YoungDiagram(1, 1): np.array([[0.5]]), YoungDiagram(2, 0): top})
    for save, obj, head, body in (
        (save_state, DensityMatrix(m, (1, 2)), '"kind": "state",\n"layout": [1, 2]', f'"entries": {entries}'),
        (save_bosonic, BosonicState(1, 1, m), '"kind": "bosonic",\n"layout": [1, "sym(1)"]', f'"entries": {entries}'),
        (
            save_blocks,
            blocks,
            '"kind": "blocks",\n"k": 2,\n"dA": 1',
            '"blocks": [{"diagram": [2, 0], "entries": [[0.25, 0], [0, 0.125], [-0, 0], [0, -0.125], [0.25, 0], '
            '[0, 0], [-0, 0], [0, 0], [0, 0]]}, {"diagram": [1, 1], "entries": [[0.5, 0]]}]',
        ),
    ):
        path = tmp_path / save.__name__
        save(obj, path, metadata=meta)
        want = f'{{\n"format_version": 1,\n{head},\n"metadata": {{"a": 1, "z": [true, "x"]}},\n{body}\n}}\n'
        assert path.read_bytes() == want.encode("ascii")


def test_sym_tag_resolves_weight_slots(tmp_path):
    # sym(3) counts the 4 weight slots of 3 qubits, so the matrix is 8 x 8
    path = tmp_path / "sigma.state"
    save_matrix_file(path, np.eye(8) / 8, [2, "sym(3)"])
    layout, matrix = load_matrix_file(path)
    assert layout == [2, "sym(3)"] and np.array_equal(matrix, np.eye(8) / 8)


def test_truncated_file_reports_position(tmp_path):
    path = tmp_path / "rho.state"
    save_state(product_state(), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(MatrixFileError, match="parse error at line"):
        load_state(path)


def test_malformed_files_rejected(tmp_path):
    path = tmp_path / "bad.state"
    path.write_text('{"format_version": 99, "layout": [2], "entries": []}')
    with pytest.raises(MatrixFileError, match="format_version"):
        load_matrix_file(path)
    save_matrix_file(path, np.eye(2) / 2, [2])
    text = path.read_text().replace("[2]", "[0]")
    path.write_text(text)
    with pytest.raises(MatrixFileError, match="bad layout entry"):
        load_matrix_file(path)
    save_matrix_file(path, np.eye(2) / 2, [2, 2])
    with pytest.raises(MatrixFileError, match="expected 16 entries"):
        load_matrix_file(path)
    save_matrix_file(path, np.eye(4), [2, 2])  # trace 4 is not a state
    with pytest.raises(MatrixFileError, match="trace"):
        load_state(path)
    bos_path = tmp_path / "sigma.state"
    save_bosonic(sym_to_bos(gen_random_extendible(2, 2, 0)[1]), bos_path)
    with pytest.raises(MatrixFileError, match="plain state layout"):
        load_state(bos_path)
    # a sym(k) tag is the second and last layout entry of a bosonic file
    save_matrix_file(bos_path, np.eye(6) / 6, ["sym(2)", 2])
    with pytest.raises(MatrixFileError, match=re.escape("""bosonic layout must be [dA, "sym(k)"], got ['sym(2)', 2]""")):
        load_extension(bos_path)
    empty = tmp_path / "empty.state"
    empty.write_text('{"format_version": 1, "layout": [], "entries": []}')
    with pytest.raises(MatrixFileError, match="missing or empty layout"):
        load_matrix_file(empty)
    # a blocks certificate where a state is expected is named as such
    blocks = tmp_path / "w.blocks"
    save_blocks(gen_random_extendible(2, 2, 0)[1], blocks)
    with pytest.raises(MatrixFileError, match="a blocks certificate, not a matrix file"):
        load_matrix_file(blocks)
    for argv in (["check-sym", "--k", "2", "--in"], ["tilde", "--k", "2", "--in"]):
        code, report = run_command(argv + [str(blocks)])
        assert code == 1 and "a blocks certificate, not a matrix file" in report, report
    with pytest.raises(MatrixFileError, match="not a blocks certificate"):
        load_blocks(path)
    # sizes must be JSON integers: true loads as a Python int, and int() would
    # truncate 3.9 to 3
    for layout in ("[true, 4]", "[2.0, 2]"):
        path.write_text(f'{{"format_version": 1, "layout": {layout}, "entries": []}}')
        with pytest.raises(MatrixFileError, match="bad layout entry"):
            load_matrix_file(path)
    path.write_text('{"format_version": true, "layout": [1], "entries": [[1, 0]]}')
    with pytest.raises(MatrixFileError, match="format_version"):
        load_matrix_file(path)


def write_state(state, path):
    save_state(state, path)
    return str(path)


def test_check_sym_exit_codes(tmp_path):
    good = write_state(product_state(), tmp_path / "good.state")
    bad = write_state(singlet_state(), tmp_path / "bad.state")
    code, report = run_command(["check-sym", "--k", "2", "--in", good])
    assert code == 0
    assert "status: FEASIBLE" in report
    code, report = run_command(["check-sym", "--k", "2", "--in", bad])
    assert code == 2
    assert "status: INFEASIBLE" in report
    assert "gap_estimate" in report


def test_check_bos_and_certificate(tmp_path):
    good = write_state(product_state(), tmp_path / "good.state")
    cert = tmp_path / "cert.blocks"
    code, report = run_command(["check-bos", "--k", "3", "--in", good, "--cert", str(cert)])
    assert code == 0
    assert f"certificate: {cert}" in report
    bs = load_blocks(cert)
    assert set(bs.blocks) == {list_diagrams(3)[0]}


def test_check_sym_and_check_bos_write_the_same_output(tmp_path):
    # one problem decides both for a qubit B side; only the command line differs
    rho, _ = gen_random_extendible(4, 2, 3, PROFILE_EXCLUDE_BOSONIC)
    good = write_state(rho, tmp_path / "good.state")
    bad = write_state(singlet_state(), tmp_path / "bad.state")
    for i, state in enumerate((good, bad)):
        heads, certs = [], []
        for command in ("check-sym", "check-bos"):
            cert = tmp_path / f"{command}-{i}.blocks"
            _, report = run_command([command, "--k", "4", "--in", state, "--cert", str(cert)])
            heads.append(above_marker(report).replace(command, "CMD").replace(str(cert), "CERT"))
            certs.append(cert.read_bytes() if cert.exists() else None)
        assert heads[0] == heads[1]
        assert certs[0] == certs[1]
        assert (certs[0] is None) == (state == bad)


def test_solver_commands_take_no_seed(tmp_path):
    good = write_state(product_state(), tmp_path / "good.state")
    for argv in (["check-sym", "--k", "2"], ["check-bos", "--k", "2"], ["check-bos2", "--dB", "2"]):
        code, report = run_command(argv + ["--in", good, "--seed", "1"])
        assert code == 1 and "unrecognized arguments: --seed 1" in report
    cert = tmp_path / "cert.blocks"
    run_command(["check-sym", "--k", "2", "--in", good, "--cert", str(cert)])
    assert '"seed"' not in cert.read_text()


def test_check_bos2_exit_codes(tmp_path):
    marg, _, _ = qutrit_counterexample()
    qutrit = write_state(marg, tmp_path / "marg.state")
    code, report = run_command(["check-bos2", "--dB", "3", "--in", qutrit])
    assert code == 2
    assert "status: INFEASIBLE" in report
    good = write_state(product_state(), tmp_path / "good.state")
    code, _ = run_command(["check-bos2", "--dB", "2", "--in", good])
    assert code == 0
    # layout mismatch is a usage error
    code, report = run_command(["check-bos2", "--dB", "3", "--in", good])
    assert code == 1
    assert "status: ERROR" in report


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sym", "--k", "2", "--cert"],
        ["check-bos", "--k", "2", "--cert"],
        ["check-bos2", "--dB", "2", "--cert"],
        ["convert", "--k", "2", "--out"],
    ],
)
def test_a_run_whose_output_cannot_be_written_has_one_status(tmp_path, argv):
    # the solve is FEASIBLE, but the file it would write sits in a missing
    # directory: the report's one status line is ERROR
    good = write_state(product_state(), tmp_path / "good.state")
    out = tmp_path / "missing" / "out.state"
    code, report = run_command(argv + [str(out), "--in", good])
    head = above_marker(report).splitlines()
    assert code == 1
    assert [ln for ln in head if ln.startswith("status: ")] == ["status: ERROR"]
    assert head[-2].startswith("error: ") and str(out) in head[-2]
    assert head[-1] == "status: ERROR"
    assert not out.parent.exists()


def test_check_bos2_refuses_an_oversized_map(tmp_path, monkeypatch):
    from symext import caps, solver

    monkeypatch.setattr(solver, "_MAPS", OrderedDict())
    monkeypatch.setattr(caps, "DENSE_BYTES_LIMIT", 2**20)
    state = write_state(DensityMatrix(np.eye(16) / 16, (2, 8)), tmp_path / "big.state")
    code, report = run_command(["check-bos2", "--dB", "8", "--in", state])
    assert code == 1
    errors = [ln for ln in report.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "above the 1 MiB limit" in errors[0]
    assert (2, 2, 8) not in solver._MAPS


def test_check_bos2_is_check_bos_at_k2(tmp_path):
    # one solve for every B dimension: check-bos2 --dB D writes the file and
    # the report of check-bos --k 2, a block file for a qubit B side
    for name, state in (("qubit", product_state()), ("qutrit", DensityMatrix(np.eye(9) / 9, (3, 3)))):
        good = write_state(state, tmp_path / f"{name}.state")
        heads, certs = [], []
        for argv in (["check-bos", "--k", "2"], ["check-bos2", "--dB", str(state.dims[1])]):
            cert = tmp_path / f"{name}-{argv[0]}.cert"
            code, report = run_command(argv + ["--in", good, "--cert", str(cert)])
            assert code == 0, report
            heads.append(above_marker(report).replace(" ".join(argv), "CMD").replace(str(cert), "CERT"))
            certs.append(cert.read_bytes())
        assert heads[0] == heads[1] and certs[0] == certs[1]
        assert (b'"kind": "blocks"' in certs[0]) == (name == "qubit")
    assert b'"layout": [3, 6]' in certs[0] and b'"metadata": {"dB": 3, "k": 2}' in certs[0]


@pytest.mark.parametrize("k", range(2, 6))
def test_verify_checks_a_bosonic_certificate_of_any_b_dimension_on_its_block(tmp_path, k):
    # I/9 has a bosonic extension at every k; its certificate, a state on
    # A tensor Sym^k(C^3), is checked on its block, with no lift
    rho = write_state(DensityMatrix(np.eye(9) / 9, (3, 3)), tmp_path / "rho.state")
    cert = tmp_path / "cert.state"
    code, report = run_command(["check-bos", "--k", str(k), "--in", rho, "--cert", str(cert)])
    assert code == 0 and "status: FEASIBLE" in report, report
    assert load_state(cert).dims == (3, (k + 2) * (k + 1) // 2)
    code, report = run_command(["verify", "--k", str(k), "--ext", str(cert), "--marginal", rho])
    head = above_marker(report)
    assert code == 0, report
    assert "layout: bosonic\n" in head and "invariance: structural\nsupport: structural\n" in head
    assert head.endswith("status: PASS\n")


def test_verify_reads_check_bos2_certificates(tmp_path):
    # each certificate passes; a copy with one diagonal entry moved by 1e-6,
    # and a second moved back to keep the trace, fails on its marginal
    states = {
        "mixed": DensityMatrix(np.eye(6) / 6, (2, 3)),
        "planted": DensityMatrix(planted_two_copy(2, 4, 0).marginal((0, 1)), (2, 4)),
    }
    for name, state in states.items():
        rho, cert, moved = (tmp_path / f"{name}.{x}" for x in ("rho", "cert", "moved"))
        write_state(state, rho)
        code, report = run_command(["check-bos2", "--dB", str(state.dims[1]), "--in", str(rho), "--cert", str(cert)])
        assert code == 0, report
        code, report = run_command(["verify", "--k", "2", "--ext", str(cert), "--marginal", str(rho)])
        assert code == 0 and "status: PASS" in report, report
        doc = json.loads(cert.read_text())
        n = doc["layout"][0] * doc["layout"][1]
        doc["entries"][0][0] += 1e-6
        doc["entries"][n + 1][0] -= 1e-6
        moved.write_text(json.dumps(doc))
        code, report = run_command(["verify", "--k", "2", "--ext", str(moved), "--marginal", str(rho)])
        assert code == 2 and "marginal: FAIL" in report and "status: FAIL" in report, report


@pytest.mark.parametrize("name", ["planted", "mixed"])
def test_verify_reads_check_bos_certificates_at_k7(tmp_path, name):
    # at k = 7 a lift into A tensor B^7 would have 4,374 (dA = 2) or 6,561
    # (dA = 3) rows; the block has 72 or 108. A planted marginal at dA = 2,
    # I/9 at dA = 3: each certificate passes, and a copy with two diagonal
    # entries moved by +1e-6 and -1e-6, its trace kept, fails on its marginal
    state = planted_marginal(2, 3, 7, 4) if name == "planted" else DensityMatrix(np.eye(9) / 9, (3, 3))
    dA = state.dims[0]
    rho, cert, moved = (tmp_path / x for x in ("rho.state", "cert.state", "moved.state"))
    write_state(state, rho)
    code, report = run_command(["check-bos", "--k", "7", "--in", str(rho), "--cert", str(cert)])
    assert code == 0 and "status: FEASIBLE" in report, report
    code, report = run_command(["verify", "--k", "7", "--ext", str(cert), "--marginal", str(rho)])
    assert code == 0 and "layout: bosonic\n" in report and "status: PASS" in report, report
    doc = json.loads(cert.read_text())
    assert doc["layout"] == [dA, 36]
    n = dA * 36
    doc["entries"][0][0] += 1e-6
    doc["entries"][n + 1][0] -= 1e-6
    moved.write_text(json.dumps(doc))
    code, report = run_command(["verify", "--k", "7", "--ext", str(moved), "--marginal", str(rho)])
    assert code == 2 and "marginal: FAIL" in report and "status: FAIL" in report, report


def test_verify_names_the_bosonic_layout_a_plain_file_misses(tmp_path):
    # a plain (2, 5) file at k = 3 against a (2, 3) marginal is no state on
    # A tensor Sym^3(C^3), whose layout is (2, 10): it is not labelled bosonic
    rho = write_state(DensityMatrix(np.eye(6) / 6, (2, 3)), tmp_path / "rho.state")
    ext = write_state(DensityMatrix(np.eye(10) / 10, (2, 5)), tmp_path / "ext.state")
    code, report = run_command(["verify", "--k", "3", "--ext", ext, "--marginal", rho])
    head = above_marker(report)
    assert code == 1, report
    assert "layout: bosonic" not in head and "layout: full-space\n" in head
    assert "error: layout (2, 5) does not have 3 extension legs or the layout (2, 10) of A tensor Sym^3(C^3)\n" in head


def _psd_line(ext, marginal, k, tol):
    code, report = run_command(["verify", "--k", str(k), "--ext", str(ext), "--marginal", marginal, "--tol", tol])
    return code, next(ln for ln in report.splitlines() if ln.startswith("psd: "))


def test_verify_measures_positivity_against_its_tol(tmp_path):
    # a full-space file with smallest eigenvalue -1e-7, and a bosonic one and
    # a plain one on A tensor Sym^3(C^3) with -1e-5, all of unit trace: each
    # loads, and --tol decides its psd line
    rho_a = random_density(2, np.random.default_rng(5))
    zero, one = np.eye(2)
    for name, low, loose, b0, b1 in (
        ("full", 1e-7, "1e-6", np.kron(zero, np.kron(zero, zero)), np.kron(one, np.kron(one, one))),
        ("bosonic", 1e-5, "1e-4", np.eye(4)[0], np.eye(4)[3]),
        ("sym", 1e-5, "1e-4", np.eye(10)[0], np.eye(10)[9]),
    ):
        # rho_a on B in b0, less low times a vector orthogonal to it
        base = np.kron(rho_a, np.outer(b0, b0))
        v = np.kron(zero, b1)
        m = (1 + low) * base - low * np.outer(v, v)
        ext = tmp_path / f"{name}.ext"
        if name == "bosonic":
            save_matrix_file(ext, m, [2, "sym(3)"], kind="bosonic")
            marg = marginal_from_blocks(BosonicState(2, 3, base))
        elif name == "sym":
            # b0 is |000> of Sym^3(C^3), so base's marginal is rho_a x |0><0|
            save_state(DensityMatrix(m, (2, 10), checked=False), ext)
            marg = DensityMatrix(np.kron(rho_a, np.diag([1.0, 0.0, 0.0])), (2, 3))
        else:
            save_state(DensityMatrix(m, (2, 2, 2, 2), checked=False), ext)
            marg = DensityMatrix(np.kron(rho_a, np.outer(zero, zero)), (2, 2))
        marginal = write_state(marg, tmp_path / f"{name}.rho")
        code, line = _psd_line(ext, marginal, 3, "1e-8")
        assert code == 2 and line == f"psd: FAIL (min eigenvalue {-low:.6e})", line
        code, line = _psd_line(ext, marginal, 3, loose)
        assert code == 0 and line == f"psd: pass (min eigenvalue {-low:.6e})", line


def _moved(path, shift):
    """A copy of the file at path with entry (0, 0) of its first block or matrix moved by shift."""
    doc = json.loads(path.read_text())
    entries = doc["blocks"][0]["entries"] if doc["kind"] == "blocks" else doc["entries"]
    entries[0][0] += shift
    moved = path.with_name("moved-" + path.name)
    moved.write_text(json.dumps(doc))
    return str(moved)


def test_verify_measures_the_trace_against_its_tol(tmp_path):
    # verify loads each kind of extension file with its trace off and
    # measures it against --tol; every command that builds on a file still
    # refuses it at load: a check-sym certificate and its convert output
    # moved by 2e-6 (outside the 1e-6 of a block), a full-space file and a
    # dB = 3 check-bos certificate moved by 2e-8 (outside the 1e-8 of a state)
    qubit, witness = gen_random_extendible(3, 2, 6)
    rho2 = write_state(qubit, tmp_path / "rho2.state")
    rho3 = write_state(planted_marginal(2, 3, 3, 1), tmp_path / "rho3.state")
    cert, bos, full, plain = (tmp_path / n for n in ("cert.blocks", "cert.bos", "full.state", "plain.state"))
    assert run_command(["check-sym", "--k", "3", "--in", rho2, "--cert", str(cert)])[0] == 0
    assert run_command(["convert", "--k", "3", "--in", str(cert), "--out", str(bos)])[0] == 0
    save_state(blocks_to_global(witness, build_schur_basis(3)), full)
    assert run_command(["check-bos", "--k", "3", "--in", rho3, "--cert", str(plain)])[0] == 0
    for ext, rho, shift, loose, refusal in (
        (cert, rho2, 2e-6, "1e-5", r"weighted block trace \S+ is not 1 within 1e-06"),
        (bos, rho2, 2e-6, "1e-5", r"weighted block trace \S+ is not 1 within 1e-06"),
        (full, rho2, 2e-8, "1e-7", r"trace \S+ is not 1 within 1e-08"),
        (plain, rho3, 2e-8, "1e-7", r"trace \S+ is not 1 within 1e-08"),
    ):
        moved = _moved(ext, shift)
        code, report = run_command(["verify", "--k", "3", "--ext", moved, "--marginal", rho])
        dev = re.search(r"^trace: FAIL \(deviation (\S+)\)$", report, re.M)
        assert code == 2 and dev and float(dev.group(1)) == pytest.approx(shift, rel=1e-6), report
        assert "status: FAIL\n" in report, report
        code, report = run_command(["verify", "--k", "3", "--ext", moved, "--marginal", rho, "--tol", loose])
        assert code == 0 and "trace: pass" in report and "status: PASS\n" in report, report
        code, report = run_command(["convert", "--k", "3", "--in", moved, "--out", str(tmp_path / "out.bos")])
        assert code == 1 and re.search(rf"^error: {re.escape(moved)}: {refusal}$", report, re.M), report
        for command in (["check-sym", "--k", "3"], ["check-bos", "--k", "3"], ["tilde", "--k", "3"]):
            code, report = run_command(command + ["--in", moved])
            assert code == 1 and "status: ERROR" in report, report
            if ext in (full, plain):
                assert re.search(rf"^error: {re.escape(moved)}: {refusal}$", report, re.M), report


def test_gen_refuses_a_negative_seed(tmp_path):
    out = str(tmp_path / "rho.state")
    code, report = run_command(["gen", "--k", "3", "--dA", "2", "--seed", "-1", "--out", out])
    assert code == 1 and "error: seed must be a non-negative integer, got -1\nstatus: ERROR" in report, report
    assert run_command(["gen", "--k", "3", "--dA", "2", "--seed", "0", "--out", out])[0] == 0


def _pipeline(workdir):
    """gen, check-sym, convert (from the certificate and from the state) and
    verify in workdir; returns the bytes of every file written."""
    rho = workdir / "rho.state"
    witness = workdir / "witness.blocks"
    cert = workdir / "cert.blocks"
    sigma = workdir / "sigma.state"
    resolved = workdir / "resolved.state"
    code, report = run_command(
        ["gen", "--k", "3", "--dA", "2", "--seed", "7", "--profile", "all", "--out", str(rho), "--witness", str(witness)]
    )
    assert code == 0 and "status: PASS" in report
    code, _ = run_command(["check-sym", "--k", "3", "--in", str(rho), "--cert", str(cert)])
    assert code == 0
    code, report = run_command(["convert", "--k", "3", "--in", str(cert), "--out", str(sigma)])
    assert code == 0
    assert "input: block certificate" in report
    code, report = run_command(["convert", "--k", "3", "--in", str(rho), "--out", str(resolved)])
    assert code == 0
    assert "input: bipartite state" in report
    code, report = run_command(
        ["verify", "--k", "3", "--ext", str(sigma), "--marginal", str(rho)]
    )
    assert code == 0
    assert "layout: bosonic" in report
    assert "support: structural" in report
    assert "status: PASS" in report
    return {p.name: p.read_bytes() for p in (rho, witness, cert, sigma, resolved)}


def test_pipeline_gen_check_convert_verify(tmp_path):
    # two runs in fresh directories write byte-identical files, and
    # converting the state re-solves to the bytes converted from its certificate
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        runs.append(_pipeline(tmp_path / name))
    assert runs[0] == runs[1]
    assert runs[0]["resolved.state"] == runs[0]["sigma.state"]


def test_convert_accepts_state_and_full_space(tmp_path):
    rho, witness = gen_random_extendible(2, 2, 3)
    state = write_state(rho, tmp_path / "rho.state")
    sigma = tmp_path / "sigma.state"
    code, report = run_command(["convert", "--k", "2", "--in", state, "--out", str(sigma)])
    assert code == 0
    assert "solving for a witness" in report
    from symext.blocks import blocks_to_global
    from symext.schur import build_schur_basis

    full = write_state(blocks_to_global(witness, build_schur_basis(2)), tmp_path / "full.state")
    code, report = run_command(["convert", "--k", "2", "--in", full, "--out", str(sigma)])
    assert code == 0
    assert "input: full-space extension" in report
    code, report = run_command(
        ["verify", "--k", "2", "--ext", str(sigma), "--marginal", state]
    )
    assert code == 0


def test_convert_propagates_infeasibility(tmp_path):
    bad = write_state(singlet_state(), tmp_path / "bad.state")
    out = tmp_path / "sigma.state"
    code, report = run_command(["convert", "--k", "2", "--in", bad, "--out", str(out)])
    assert code == 2
    assert "status: INFEASIBLE" in report
    assert not out.exists()


def test_verify_reports_failures(tmp_path):
    rho, witness = gen_random_extendible(3, 2, 4)
    other, _ = gen_random_extendible(3, 2, 5)
    sigma = tmp_path / "sigma.state"
    save_bosonic(sym_to_bos(witness), sigma)
    marginal = write_state(other, tmp_path / "other.state")
    code, report = run_command(
        ["verify", "--k", "3", "--ext", str(sigma), "--marginal", marginal]
    )
    assert code == 2
    assert "marginal: FAIL" in report
    assert "status: FAIL" in report


def test_tilde_command(tmp_path):
    bad = write_state(singlet_state(), tmp_path / "bad.state")
    out = tmp_path / "tilde.state"
    code, report = run_command(["tilde", "--k", "2", "--in", bad, "--out", str(out)])
    assert code == 2
    assert "ppt: no" in report
    assert "pt_min_eigenvalue: -1.250000e-01" in report
    assert load_state(out).dims == (2, 2)
    good = write_state(product_state(), tmp_path / "good.state")
    code, report = run_command(["tilde", "--k", "3", "--in", good])
    assert code == 0
    assert "ppt: yes" in report


def test_gen_witness_matches_marginal(tmp_path):
    rho = tmp_path / "rho.state"
    witness = tmp_path / "w.blocks"
    code, _ = run_command(
        [
            "gen", "--k", "4", "--dA", "3", "--seed", "9",
            "--profile", "exclude-bosonic",
            "--out", str(rho), "--witness", str(witness),
        ]
    )
    assert code == 0
    from symext.blocks import marginal_from_blocks

    bs = load_blocks(witness)
    assert list_diagrams(4)[0] not in bs.blocks
    assert np.allclose(marginal_from_blocks(bs).matrix, load_state(rho).matrix, atol=1e-15)


def test_reports_are_deterministic_above_marker(tmp_path):
    good = write_state(product_state(), tmp_path / "good.state")
    args = ["check-sym", "--k", "4", "--in", good]
    _, first = run_command(args)
    _, second = run_command(args)
    assert above_marker(first) == above_marker(second)
    assert MARKER in first


def test_usage_errors_exit_one(tmp_path):
    code, report = run_command(["check-sym", "--k", "2"])
    assert code == 1 and "status: ERROR" in report
    code, _ = run_command(["no-such-command"])
    assert code == 1
    code, report = run_command(["selftest"])
    assert code == 1 and "status: ERROR" in report
    code, report = run_command(["check-sym", "--k", "2", "--in", str(tmp_path / "nope")])
    assert code == 1
    assert "error:" in report
    good = write_state(product_state(), tmp_path / "good.state")
    code, _ = run_command(["gen", "--k", "2", "--dA", "2", "--seed", "0", "--profile", "bogus", "--out", str(tmp_path / "x")])
    assert code == 1
    # non-bipartite input
    tri = tmp_path / "tri.state"
    save_state(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), tri)
    code, report = run_command(["check-sym", "--k", "2", "--in", str(tri)])
    assert code == 1
    assert "bipartite" in report
    # a k too large for a float, a tol that would pass or fail everything, and
    # a bosonic file of zero legs
    code, report = run_command(["tilde", "--k", "1" + "0" * 400, "--in", good])
    assert code == 1 and "error: k does not fit in a float\nstatus: ERROR" in report
    rho, witness = gen_random_extendible(3, 2, 4)
    sigma, marginal = tmp_path / "sigma.state", write_state(rho, tmp_path / "rho.state")
    save_bosonic(sym_to_bos(witness), sigma)
    for tol in ("inf", "nan", "-1e-8"):
        code, report = run_command(["verify", "--k", "3", "--ext", str(sigma), "--marginal", marginal, f"--tol={tol}"])
        assert code == 1 and "error: tol must be finite and not negative, got " in report, tol
    # a negative value in its own argument is a value, not an option
    for tol in ("-1e-8", "-1E-8", "-2.5e+3", "-0.5", "-inf", "-Infinity", "-NaN"):
        code, report = run_command(["verify", "--k", "3", "--ext", str(sigma), "--marginal", marginal, "--tol", tol])
        assert code == 1 and f"error: tol must be finite and not negative, got {float(tol)!r}\n" in report, tol
    zero = tmp_path / "zero.bos"
    save_matrix_file(zero, np.eye(2) / 2, [2, "sym(0)"])
    code, report = run_command(["verify", "--k", "0", "--ext", str(zero), "--marginal", good])
    assert code == 1 and f"error: {zero}: k=0 outside 1..64\nstatus: ERROR" in report


@pytest.mark.parametrize("k", [0, -3, 65])
def test_verify_refuses_a_k_outside_the_block_range_for_every_file_kind(tmp_path, k):
    # one rule, caps.block_k, for every kind of extension file: a report that
    # ends in one error line, never a traceback, and the library raises it too
    rho, witness = gen_random_extendible(3, 2, 4)
    marginal = write_state(rho, tmp_path / "rho.state")
    files = {
        "one-factor": write_state(DensityMatrix(np.eye(4) / 4, (4,)), tmp_path / "one.state"),
        "two-factor": marginal,
        "full-space": write_state(blocks_to_global(witness, build_schur_basis(3)), tmp_path / "full.state"),
        "blocks": str(tmp_path / "cert.blocks"),
        "bosonic": str(tmp_path / "sigma.state"),
    }
    assert run_command(["check-sym", "--k", "3", "--in", marginal, "--cert", files["blocks"]])[0] == 0
    assert run_command(["convert", "--k", "3", "--in", files["blocks"], "--out", files["bosonic"]])[0] == 0
    message = f"k={k} outside 1..64"
    for kind, path in files.items():
        code, report = run_command(["verify", "--k", str(k), "--ext", path, "--marginal", marginal])
        assert code == 1 and above_marker(report).endswith(f"\nerror: {message}\nstatus: ERROR\n"), (kind, report)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_extension(load_extension(path, checked=False), rho, k)


@pytest.mark.parametrize("k", [0, -3, 65])
def test_every_command_ends_in_one_error_line_at_a_k_outside_the_block_range(tmp_path, k):
    marginal = write_state(gen_random_extendible(3, 2, 4)[0], tmp_path / "rho.state")
    commands = [
        ["gen", "--dA", "2", "--seed", "0", "--out", str(tmp_path / "gen.state")],
        ["check-sym", "--in", marginal],
        ["check-bos", "--in", marginal],
        ["convert", "--in", marginal, "--out", str(tmp_path / "sigma.state")],
    ]
    # tilde builds no block: it takes any k >= 1
    if k < 1:
        commands.append(["tilde", "--in", marginal])
    else:
        assert run_command(["tilde", "--k", str(k), "--in", marginal])[0] == 0
    for argv in commands:
        code, report = run_command([argv[0], "--k", str(k), *argv[1:]])
        head = above_marker(report)
        assert code == 1 and head.count("error:") == 1 and head.endswith("\nstatus: ERROR\n"), report


def test_the_module_runs_as_a_program():
    # the one statement no in-process test reaches: main() under the
    # `__main__` guard, run in a child process on this package's sources
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symext.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "symext.cli", "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("command: --help\nusage: symext [-h] {check-sym,") and MARKER in proc.stdout


def test_main_prints_and_exits(tmp_path, capsys):
    good = write_state(product_state(), tmp_path / "good.state")
    with pytest.raises(SystemExit) as exc:
        main(["check-sym", "--k", "2", "--in", good])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "status: FEASIBLE" in out
    assert MARKER in out


def test_main_keeps_the_report_code_when_stdout_is_closed(tmp_path, monkeypatch):
    # as after `symext check-sym ... | head -3`: the reader is gone before the
    # report is written, and no BrokenPipeError escapes
    singlet = write_state(singlet_state(), tmp_path / "singlet.state")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(SystemExit) as exc:
            main(["check-sym", "--k", "2", "--in", singlet])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["check-sym", "--help"], ["verify", "-h"]])
def test_help_is_the_report_with_exit_code_zero(argv, capsys, monkeypatch):
    code, report = run_command(argv)
    assert code == 0 and capsys.readouterr().out == ""
    head, _ = report.split(MARKER)
    usage = "usage: symext " + (argv[0] + " [-h] --k K" if len(argv) == 2 else "[-h] {check-sym,")
    assert head.startswith(f"command: {' '.join(argv)}\n{usage}")
    assert "status:" not in head and "error:" not in head
    # the text is wrapped at a fixed width, whatever the terminal's
    monkeypatch.setenv("COLUMNS", "40")
    assert run_command(argv)[1].split(MARKER)[0] == head


def test_main_prints_the_help_report(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-bos", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("command: check-bos --help\nusage: symext check-bos [-h]") and MARKER in out


# valid arguments of each command, its size option first; no file is read
_VALID_ARGS = {
    "check-sym": ["--k", "3", "--in", "rho.state", "--cert", "w.blocks"],
    "check-bos": ["--k", "3", "--in", "rho.state", "--cert", "w.blocks"],
    "check-bos2": ["--dB", "3", "--in", "rho.state"],
    "convert": ["--k", "3", "--in", "w.blocks", "--out", "sigma.bos"],
    "verify": ["--k", "3", "--ext", "sigma.bos", "--marginal", "rho.state", "--tol", "1e-6"],
    "tilde": ["--k", "3", "--in", "rho.state"],
    "gen": ["--k", "3", "--dA", "2", "--seed", "1", "--profile", PROFILE_EXCLUDE_BOSONIC, "--out", "rho.state"],
}


def _parsed(parse, argv):
    """The arguments parse gives for argv, less the command's name, or the
    name and text of the usage error or help it raises."""
    try:
        args = vars(parse(argv))
    except (_UsageError, _Help) as exc:
        return type(exc).__name__, str(exc)
    args.pop("command", None)  # set by the top-level parser alone
    return args


@pytest.mark.parametrize("command", _VALID_ARGS)
def test_a_command_parses_alike_through_its_own_parser_and_the_top_level_one(command, monkeypatch):
    valid = _VALID_ARGS[command]
    inputs = [
        valid,
        valid[2:],  # the size option missing
        [valid[0], "x", *valid[2:]],  # a size that is not an integer
        [*valid, "--bogus", "1"],
        [*valid, "--ce", "c.blocks"],  # --cert abbreviated, where there is one
        [*valid, "--help"],
        [*valid, "--tol", "-1e-8"],
    ]
    parser = build_parser()
    own = parser.commands[command]
    outcomes = []
    for argv in inputs:
        want = _parsed(parser.parse_args, [command, *argv])
        assert _parsed(own.parse_args, argv) == want, argv
        outcomes.append(want)
    assert isinstance(outcomes[0], dict) and outcomes[1][0] == outcomes[2][0] == "_UsageError"
    assert outcomes[5][0] == "_Help"
    # run_command takes the command's own parser; the top-level one is left for help
    monkeypatch.setattr(parser, "parse_args", lambda argv: pytest.fail(f"top-level parse of {argv}"))
    code, report = run_command([command, "--help"])
    assert code == 0 and f"usage: symext {command} [-h]" in report


def test_convert_and_verify_parse_each_file_once(tmp_path, monkeypatch):
    import symext.io as mio
    from symext.blocks import blocks_to_global
    from symext.schur import build_schur_basis

    rho, witness = gen_random_extendible(3, 2, 6)
    full = write_state(blocks_to_global(witness, build_schur_basis(3)), tmp_path / "full.state")
    marginal = write_state(rho, tmp_path / "rho.state")
    cert = tmp_path / "w.blocks"
    save_blocks(witness, cert)
    sigma = str(tmp_path / "sigma.state")
    parsed = []
    read = mio._read_json
    monkeypatch.setattr(mio, "_read_json", lambda path: parsed.append(str(path)) or read(path))
    for argv, files in (
        (["convert", "--k", "3", "--in", full, "--out", sigma], [full]),
        (["convert", "--k", "3", "--in", str(cert), "--out", sigma], [str(cert)]),
        (["verify", "--k", "3", "--ext", full, "--marginal", marginal], [full, marginal]),
        (["verify", "--k", "3", "--ext", str(cert), "--marginal", marginal], [str(cert), marginal]),
    ):
        parsed.clear()
        code, report = run_command(argv)
        assert code == 0, report
        assert parsed == files


def test_convert_reports_unreadable_inputs(tmp_path):
    out = str(tmp_path / "sigma.state")
    listing = tmp_path / "list.state"
    listing.write_text("[1, 2]")
    code, report = run_command(["convert", "--k", "2", "--in", str(listing), "--out", out])
    assert code == 1
    assert "top level is not an object" in report
    # a blocks file that fails validation is reported as the blocks file it is
    broken = tmp_path / "broken.blocks"
    save_blocks(gen_random_extendible(2, 2, 0)[1], broken)
    broken.write_text(broken.read_text().replace('"k": 2', '"k": 5'))
    code, report = run_command(["convert", "--k", "2", "--in", str(broken), "--out", out])
    assert code == 1
    assert "[2,0] is not a sector of 5 qubits" in report
    # a certificate is converted only at the k it was made for
    cert = tmp_path / "w3.blocks"
    save_blocks(gen_random_extendible(3, 2, 0)[1], cert)
    code, report = run_command(["convert", "--k", "4", "--in", str(cert), "--out", out])
    assert code == 1 and f"error: {cert}: certificate is for k=3, not k=4\nstatus: ERROR" in report
    # a bosonic file is already converted, and is refused by name, not read as a state
    sigma = tmp_path / "sigma.bos"
    save_bosonic(sym_to_bos(gen_random_extendible(2, 2, 0)[1]), sigma)
    code, report = run_command(["convert", "--k", "2", "--in", str(sigma), "--out", out])
    assert code == 1
    assert f"error: {sigma}: a bosonic state is not convertible; " in report
    assert "status: ERROR" in report


def _write_entries(path, layout, entries_text):
    path.write_text(
        '{\n"format_version": 1,\n"kind": "state",\n'
        f'"layout": {layout},\n"metadata": {{}},\n"entries": {entries_text}\n}}\n'
    )


def _loop_entries(entries):
    # the entry-by-entry conversion the numpy pass replaces
    return np.array([complex(re, im) for re, im in entries], dtype=complex)


@pytest.mark.parametrize(
    "entries",
    [
        [[0.5, 0.0], [0.25, -0.125], [0.25, 0.125], [0.5, 0.0]],
        [[1, 0], [0, 0], [0, 0], [0, 0]],
        [[-0.0, -0.0], [0, -0.0], [-0.0, 0], [1e-300, -2.5e-310]],
        [[1, -0.0], [2, 0.1], [3, -1e308], [0.5, 0]],
    ],
    ids=["float", "int", "negative-zero", "mixed"],
)
def test_fast_entry_parse_matches_the_loop(tmp_path, entries):
    path = tmp_path / "m.state"
    _write_entries(path, "[2]", json.dumps(entries))
    got = load_matrix_file(path)[1].reshape(-1)
    want = _loop_entries(entries)
    assert got.dtype == want.dtype
    # bit-identical, so the sign of every zero is kept too
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "bad",
    ['"1.5"', '["1.5", 0]', "[1, 2, 3]", "[1, [2, 3]]", "[[1], [2]]", "null", "{}", '{"re": 1, "im": 0}'],
)
def test_malformed_entries_name_their_index(tmp_path, bad):
    path = tmp_path / "m.state"
    _write_entries(path, "[2]", f"[[0.5, 0], [0, 0], {bad}, [0.5, 0]]")
    with pytest.raises(MatrixFileError, match=r"entry 2 is not a \[re, im\] pair"):
        load_matrix_file(path)


def _writer_files(root):
    """A file of each kind the writer makes: marginals, a check-bos2 state, and
    full-space, bosonic and block files both below and above one slice."""
    files = []
    for tag, k, full_k, sigma_k in (("small", 3, 2, 3), ("large", 12, 6, 24)):
        rho, witness = gen_random_extendible(k, 2, 1)
        full = gen_random_extendible(full_k, 2, 2)[1]
        for name, save, obj, meta in (
            ("rho.state", save_state, rho, {"seed": 1}),
            ("full.state", save_state, blocks_to_global(full, build_schur_basis(full_k)), None),
            ("sigma.bos", save_bosonic, sym_to_bos(gen_random_extendible(sigma_k, 2, 3)[1]), None),
            ("w.blocks", save_blocks, witness, {"profile": "all"}),
        ):
            path = root / f"{tag}-{name}"
            save(obj, path, metadata=meta)
            files.append(path)
    pair = root / "sym2.state"
    save_matrix_file(pair, np.eye(6) / 6, [2, 3], metadata={"dB": 2, "sym2": True})
    return files + [pair]


def _pair_spans(data):
    """Where each [re, im] pair of the last entries array of data starts and ends."""
    start = data.rindex(b'"entries": [[') + len(b'"entries": [')
    end = data.index(b"]]", start) + 1
    return [m.span() for m in re.compile(rb"\[[^\[\]]*\]").finditer(data, start, end)]


def _with_pair(data, index, new):
    start, end = _pair_spans(data)[index]
    return data[:start] + new + data[end:]


def _in_metadata(data, field):
    """data with its metadata, as the value of "z", beside one more field."""
    start = data.index(b'"metadata": ') + len(b'"metadata": ')
    end = data.index(b",\n", start)
    return data[:start] + b"{" + field + b', "z": ' + data[start:end] + b"}" + data[end:]


def _reordered(data):
    doc = json.loads(data)
    for part in doc.get("blocks", []):
        part.update(reversed(list(part.items())))
    return json.dumps(dict(reversed(list(doc.items())))).encode()


_ENTRY_VALUES = [
    b"NaN", b"Infinity", b"-Infinity", b"true", b"false", b'"1.5"', b"null", b"[1, 2]", b"{}",
    b"1e999", b"-1e999", b"1e-400", b"01", b"1.", b".5", b"+1", b"-", b"1e5", b"1E-5",
    b"-0", b"-0.0", b"1" + b"0" * 400, b"18446744073709551617", b"9007199254740993",
    # number bytes alone, which JSON refuses
    b"1-2", b"1e", b"1e+", b"--1", b"1.5.5", b"-01", b"",
]
_PAIRS = [
    b"[1, 2, 3]", b"[1]", b"[]", b"[[1, 2]]", b"[1, [2]]", b"[[1], [2]]", b"1", b"[1 2]", b"[1,2]",
    b"[ 1, 0]", b"[1 , 0]", b"[1,  0]", b"[1, 0 ]",
    # a run of number bytes beside a space or outside the brackets, and beside an empty part
    b"[1,2 3]", b"[1, 2]3", b"[1, 2],3", b"3[1, 2]", b"[1,2 ]", b"[1, ]3", b"3[, 1]", b"[1, 2],3 [, 4]",
]


def _edits(data):
    """Edited copies of data: each keeps or breaks the writer's shape."""
    yield data
    yield data.replace(b"], [", b"],\n [", 3)
    yield data.replace(b"], [", b"],  [", 1)
    yield data.replace(b", ", b" , ")
    for newline in (b"\r\n", b"\r"):
        yield data.replace(b"\n", newline)
        yield data.replace(b"\n", newline)[: len(data) // 2]
    yield data.replace(b'"entries": [[', b'"entries":[[')
    yield _reordered(data)
    yield data.replace(b'"entries": [[', b'"entries": [[1, 0]],\n"entries": [[', 1)
    yield data.replace(b"\n}\n", b',\n"entries": [[1, 0]]\n}\n')
    yield _in_metadata(data, b'"entries": [[1, 2], [3, 4]]')
    yield _in_metadata(data, b'"x": NaN')
    yield _in_metadata(data, b'"x": -Infinity')
    body = data.rindex(b'"entries": [[')
    yield _in_metadata(data[:body] + b'"entries": 0\n}\n', b'"entries": [[1, 2]]')
    yield _in_metadata(data, data[body : data.index(b"]]", body) + 2])
    last = len(_pair_spans(data)) - 1
    for index in (0, last // 2, last):
        for value in _ENTRY_VALUES:
            yield _with_pair(data, index, b"[" + value + b", 0]")
            yield _with_pair(data, index, b"[0.5, " + value + b"]")
        for pair in _PAIRS:
            yield _with_pair(data, index, pair)
        yield _with_pair(data, index, b"[1\xc3\xa9, 0]")
    yield _in_metadata(data, b'"\xc3\xa9": 1')
    yield data.replace(b"\n", b" \xe9\n", 1)
    for end in (len(data) // 2, len(data) - 3, data.rindex(b"]]") + 1, _pair_spans(data)[-1][0] + 3):
        yield data[:end]


def _outcome(load, path):
    """What load gives for path: its error text, or every array it returned, as bytes."""
    try:
        loaded = load(path)
    except MatrixFileError as exc:
        return "error", str(exc)
    if isinstance(loaded, tuple):
        layout, matrix = loaded
        return layout, matrix.dtype, matrix.shape, matrix.tobytes()
    if isinstance(loaded, DensityMatrix):
        return loaded.dims, loaded.matrix.tobytes()
    blocks = sorted(loaded.blocks.items(), key=lambda item: item[0].lambda1)
    return type(loaded), loaded.k, loaded.dA, [(lam, x.dtype, x.shape, x.tobytes()) for lam, x in blocks]


def _whole_text_doc(path):
    """The document as every file was parsed before slices: json.loads of the
    whole text, read in text mode."""
    try:
        return json.loads(path.read_text(encoding="ascii"))
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def test_sliced_loads_match_the_whole_text_parse(tmp_path, monkeypatch):
    # the slices give bit-identical arrays, or the identical error, compared
    # with json.loads of the whole text and the list conversion; small files
    # are sliced too when a slice is 64 bytes
    import symext.io as mio

    read, slice_default = mio._read_json, mio._SLICE
    path = tmp_path / "edited"
    for source in _writer_files(tmp_path):
        data = source.read_bytes()
        large = len(data) > slice_default
        # the slice path takes every writer file above one slice
        doc = read(source)
        blocks = doc["kind"] == "blocks"
        held = [part["entries"] for part in doc["blocks"]] if blocks else [doc["entries"]]
        assert all(isinstance(e, np.ndarray) for e in held) == large, source
        loaders = (load_blocks,) if blocks else (load_matrix_file, load_extension)
        for edited in _edits(data) if blocks or not large else (data,):
            path.write_bytes(edited)
            monkeypatch.setattr(mio, "_read_json", _whole_text_doc)
            want = [_outcome(load, path) for load in loaders]
            monkeypatch.setattr(mio, "_read_json", read)
            for slice_bytes in (slice_default,) if large else (slice_default, 64):
                monkeypatch.setattr(mio, "_SLICE", slice_bytes)
                assert [_outcome(load, path) for load in loaders] == want, (source.name, slice_bytes, edited[:300])
            monkeypatch.setattr(mio, "_SLICE", slice_default)


def test_a_non_ascii_file_is_a_file_error(tmp_path):
    path = tmp_path / "rho.state"
    save_state(product_state(), path, metadata={"note": "x"})
    path.write_bytes(path.read_bytes().replace(b'"x"', '"é"'.encode()))
    with pytest.raises(MatrixFileError, match=f"^{re.escape(str(path))}: 'ascii' codec can't decode byte 0xc3"):
        load_state(path)
    code, report = run_command(["tilde", "--k", "2", "--in", str(path)])
    assert code == 1 and f"error: {path}: 'ascii' codec can't decode byte 0xc3 in position " in report


@pytest.mark.parametrize(
    "entries",
    [
        [[True, False], [False, True], [True, False], [False, False]],
        [[1, -0.0], [0.5, 0.1], [True, 0.1], [0.5, 0]],
        [[0.5, 0], [0, 0], [0, 0], [0.5, False]],
    ],
    ids=["all", "real-part", "imaginary-part"],
)
def test_json_booleans_are_not_matrix_entries(tmp_path, entries):
    # numpy would read true and false as 1 and 0, as int() reads a size
    bad = next(i for i, pair in enumerate(entries) if any(isinstance(v, bool) for v in pair))
    path = tmp_path / "m.state"
    _write_entries(path, "[2]", json.dumps(entries))
    with pytest.raises(MatrixFileError, match=rf"entry {bad} is not a \[re, im\] pair"):
        load_matrix_file(path)
    cert = _damaged_blocks(tmp_path / "w.blocks", lambda e: e.__setitem__(3, [True, 0.0]))
    with pytest.raises(MatrixFileError, match=r"diagram \[2,1\]: entry 3 is not a \[re, im\] pair"):
        load_blocks(cert)


def test_a_diagram_listed_twice_is_refused(tmp_path):
    # a later block would silently replace the first
    path = tmp_path / "w.blocks"
    save_blocks(gen_random_extendible(3, 1, 0)[1], path)
    doc = json.loads(path.read_text())
    doc["blocks"].append(doc["blocks"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(MatrixFileError, match=re.escape(f"{path}: diagram [3,0] appears twice")):
        load_blocks(path)
    code, report = run_command(["convert", "--k", "3", "--in", str(path), "--out", str(tmp_path / "s.bos")])
    assert code == 1 and "diagram [3,0] appears twice" in report


# edits of the parsed k = 3, dA = 2 certificate, whose block 1 is diagram [2,1],
# and the error each gives after the file name; sizes must be JSON integers
_MALFORMED_BLOCKS = {
    "float-k": (lambda doc: doc.__setitem__("k", 3.9), "k must be an integer, got 3.9"),
    "bool-k": (lambda doc: doc.__setitem__("k", True), "k must be an integer, got True"),
    "float-dA": (lambda doc: doc.__setitem__("dA", 2.2), "dA must be an integer, got 2.2"),
    "float-row": (lambda doc: doc["blocks"][0].__setitem__("diagram", [3.5, 0.25]), "diagram row must be an integer, got 3.5"),
    "bool-row": (lambda doc: doc["blocks"][0].__setitem__("diagram", [True, False]), "diagram row must be an integer, got True"),
    "no-k": (lambda doc: doc.pop("k"), "missing field k"),
    "no-dA": (lambda doc: doc.pop("dA"), "missing field dA"),
    "no-blocks": (lambda doc: doc.pop("blocks"), "missing field blocks"),
    "no-diagram": (lambda doc: doc["blocks"][1].pop("diagram"), "block 1: missing field diagram"),
    "no-entries": (lambda doc: doc["blocks"][1].pop("entries"), "diagram [2,1]: missing field entries"),
    "int-blocks": (lambda doc: doc.__setitem__("blocks", 7), "blocks is not a list"),
    "int-diagram": (lambda doc: doc["blocks"][1].__setitem__("diagram", 7), "block 1: diagram is not a list of 2 rows"),
    "int-block": (lambda doc: doc["blocks"].__setitem__(1, 7), "block 1 is not an object"),
    "three-rows": (lambda doc: doc["blocks"][1]["diagram"].append(0), "block 1: diagram is not a list of 2 rows"),
    "one-row": (lambda doc: doc["blocks"][1]["diagram"].pop(), "block 1: diagram is not a list of 2 rows"),
    "int-entries": (lambda doc: doc["blocks"][1].__setitem__("entries", 7), "diagram [2,1]: entries is not a list"),
}


@pytest.mark.parametrize("case", _MALFORMED_BLOCKS)
def test_a_malformed_blocks_file_names_the_bad_field(tmp_path, case):
    damage, message = _MALFORMED_BLOCKS[case]
    marginal, witness = gen_random_extendible(3, 2, 0)
    rho = write_state(marginal, tmp_path / "rho.state")
    path = tmp_path / "w.blocks"
    save_blocks(witness, path)
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    want = f"{path}: {message}"
    with pytest.raises(MatrixFileError, match=f"^{re.escape(want)}$"):
        load_blocks(path)
    for argv in (
        ["convert", "--k", "3", "--in", str(path), "--out", str(tmp_path / "sigma.bos")],
        ["verify", "--k", "3", "--ext", str(path), "--marginal", rho],
    ):
        code, report = run_command(argv)
        assert code == 1 and above_marker(report).endswith(f"\nerror: {want}\nstatus: ERROR\n"), report


def test_entries_too_large_for_a_float_are_file_errors(tmp_path):
    huge = "1" + "0" * 400
    path = tmp_path / "huge.state"
    _write_entries(path, "[2, 2]", f"[[{huge}, 0]" + ", [0, 0]" * 15 + "]")
    code, report = run_command(["tilde", "--k", "2", "--in", str(path)])
    assert code == 1
    assert f"error: {path}: entry 0 does not fit in a float" in report
    blocks = tmp_path / "huge.blocks"
    save_blocks(gen_random_extendible(2, 2, 0)[1], blocks)
    text = blocks.read_text()
    first = text.index('"entries": [[') + len('"entries": [[')
    blocks.write_text(text[:first] + huge + text[text.index(",", first):])
    with pytest.raises(MatrixFileError, match="too large"):
        load_blocks(blocks)


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    rho = str(tmp_path / "rho.state")
    witness = tmp_path / "w.blocks"
    gen = ["gen", "--k", "2", "--dA", "2", "--seed", "1", "--out", rho]
    code, report = run_command(gen + ["--witness", str(witness)])
    assert code == 0 and "witness:" in report
    witness.unlink()
    code, report = run_command(gen)
    assert code == 0
    assert "witness" not in above_marker(report)
    assert not witness.exists()
    code, report = run_command(["gen", "--k", "2", "--dA", "2", "--out", rho])
    assert code == 1 and "status: ERROR" in report


def test_verify_above_the_full_check_cutoff(tmp_path):
    rho = tmp_path / "rho.state"
    witness = tmp_path / "w.blocks"
    sigma = tmp_path / "sigma.state"
    for argv in (
        ["gen", "--k", "10", "--dA", "2", "--seed", "4", "--out", str(rho), "--witness", str(witness)],
        ["convert", "--k", "10", "--in", str(witness), "--out", str(sigma)],
    ):
        code, report = run_command(argv)
        assert code == 0, report
    code, report = run_command(["verify", "--k", "10", "--ext", str(sigma), "--marginal", str(rho)])
    assert code == 0, report
    head = above_marker(report)
    assert "invariance: structural\n" in head
    assert "support: structural\n" in head
    assert "status: PASS" in head


def _damaged_blocks(path, damage):
    """A k=3, dA=2 witness file with the 16 entries of diagram [2,1] damaged."""
    save_blocks(gen_random_extendible(3, 2, 0)[1], path)
    doc = json.loads(path.read_text())
    part = next(p for p in doc["blocks"] if p["diagram"] == [2, 1])
    damage(part["entries"])
    path.write_text(json.dumps(doc))
    return str(path)


def _large_off_diagonal(entries):
    # a Hermitian pair of large entries (0, 1) and (1, 0) of the 4 x 4 block
    # keeps the trace and adds an eigenvalue near -10
    entries[1] = entries[4] = [10.0, 0.0]


@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda e: e.__setitem__(5, "oops"), r"diagram \[2,1\]: entry 5 is not a \[re, im\] pair"),
        (lambda e: e.pop(), r"expected 16 entries for diagram \[2,1\], found 15"),
        (_large_off_diagonal, r"block for \[2,1\] has eigenvalue -"),
        (lambda e: e.__setitem__(5, [float("nan"), 0.0]), r"block for \[2,1\] entries must be finite"),
        (lambda e: e.__setitem__(0, [0.0, float("inf")]), r"block for \[2,1\] entries must be finite"),
    ],
    ids=["bad-entry", "missing-entry", "not-psd", "nan", "inf"],
)
def test_convert_names_the_damage_in_a_block_certificate(tmp_path, damage, message):
    cert = _damaged_blocks(tmp_path / "w.blocks", damage)
    code, report = run_command(["convert", "--k", "3", "--in", cert, "--out", str(tmp_path / "sigma.state")])
    assert code == 1
    assert re.search(message, report), report
    assert "missing or empty layout" not in report
    with pytest.raises(MatrixFileError, match=message):
        load_blocks(cert)


def test_verify_names_a_non_finite_block_entry(tmp_path):
    rho = tmp_path / "rho.state"
    save_state(marginal_from_blocks(gen_random_extendible(3, 2, 0)[1]), rho)
    cert = _damaged_blocks(tmp_path / "w.blocks", lambda e: e.__setitem__(5, [float("nan"), 0.0]))
    code, report = run_command(["verify", "--k", "3", "--ext", cert, "--marginal", str(rho)])
    assert code == 1
    assert f"error: {cert}: block for [2,1] entries must be finite" in report, report
    assert "did not converge" not in report


def test_verify_names_a_non_finite_bosonic_entry(tmp_path):
    rho, witness = gen_random_extendible(3, 2, 0)
    rho_path, ext = tmp_path / "rho.state", tmp_path / "sigma.bos"
    save_state(rho, rho_path)
    save_bosonic(sym_to_bos(witness), ext)
    doc = json.loads(ext.read_text())
    doc["entries"][7] = [float("nan"), 0.0]
    ext.write_text(json.dumps(doc))
    code, report = run_command(["verify", "--k", "3", "--ext", str(ext), "--marginal", str(rho_path)])
    assert code == 1
    assert f"error: {ext}: block for [3,0] entries must be finite" in report, report


def test_every_extension_file_kind_has_one_load_rule(tmp_path):
    # one extension written as each kind of file: convert refuses an
    # eigenvalue below -1e-6 at load, exit 1, whatever the kind; verify loads
    # every one and reports an eigenvalue below its tol as "psd: FAIL", exit 2
    rho, witness = gen_random_extendible(3, 2, 7)
    marginal = write_state(rho, tmp_path / "rho.state")
    top = YoungDiagram(3, 0)
    m = sym_to_bos(witness).matrix.copy()
    m[0, 0] -= 0.05
    m[-1, -1] += 0.05
    w, v = np.linalg.eigh(m)
    assert -1.3e-2 < w[0] < -1.2e-2
    # the smallest eigenvalue moved to -1e-7, its weight onto the largest
    slight = m - (w[0] + 1e-7) * (np.outer(v[:, 0], v[:, 0].conj()) - np.outer(v[:, -1], v[:, -1].conj()))

    def files(x, name):
        bs = BlockState._assembled(3, 2, {top: x})
        bos, blocks = tmp_path / f"{name}.bos", tmp_path / f"{name}.blocks"
        save_matrix_file(bos, x, [2, "sym(3)"], kind="bosonic")
        save_blocks(bs, blocks)
        return bos, blocks, blocks_to_global(bs, build_schur_basis(3))

    bos, blocks, full = files(m, "negative")
    assert np.linalg.eigvalsh(full.matrix)[0] < -1.2e-2
    for ext in (bos, blocks, write_state(full, tmp_path / "negative.state")):
        code, report = run_command(["verify", "--k", "3", "--ext", str(ext), "--marginal", marginal])
        assert code == 2, report
        assert re.search(r"^psd: FAIL \(min eigenvalue -1\.2397\d*e-02\)$", report, re.M), report
        code, report = run_command(["convert", "--k", "3", "--in", str(ext), "--out", str(tmp_path / "out.bos")])
        assert code == 1 and re.search(r"^error: .*eigenvalue -1\.240e-02", report, re.M), report
    for ext in files(slight, "slight")[:2]:
        code, report = run_command(["verify", "--k", "3", "--ext", str(ext), "--marginal", marginal])
        assert code == 2, report
        low = re.search(r"^psd: FAIL \(min eigenvalue (\S+)\)$", report, re.M)
        assert low and float(low.group(1)) == pytest.approx(-1e-7, rel=1e-6), report


def test_verify_full_space_with_qutrit_legs(tmp_path):
    # a product extension with three equal qutrit legs: invariant, with the
    # right marginal, and outside Sym^3 only where the legs are
    gen = np.random.default_rng(2)
    a, b = random_density(2, gen), random_density(3, gen)
    ext = DensityMatrix(np.kron(a, np.kron(b, np.kron(b, b))), (2, 3, 3, 3))
    sigma = write_state(ext, tmp_path / "ext.state")
    rho = write_state(DensityMatrix(np.kron(a, b), (2, 3)), tmp_path / "rho.state")
    code, report = run_command(["verify", "--k", "3", "--ext", sigma, "--marginal", rho])
    assert code == 0, report
    head = above_marker(report)
    assert "layout: full-space\n" in head
    assert "invariance: pass" in head
    assert "status: PASS" in head
    # legs of two dimensions are no extension of any pair marginal
    mixed = write_state(DensityMatrix(np.eye(12) / 12, (2, 2, 3)), tmp_path / "mixed.state")
    code, report = run_command(["verify", "--k", "2", "--ext", mixed, "--marginal", rho])
    assert code == 1 and "error: extension legs in (2, 2, 3) are not all equal\n" in report


def test_verify_reads_block_certificates(tmp_path):
    # the witness of gen and the certificate of check-sym are both checked in
    # sector coordinates, against the marginal they were made for
    rho = tmp_path / "rho.state"
    witness = tmp_path / "w.blocks"
    cert = tmp_path / "cert.blocks"
    for argv in (
        ["gen", "--k", "3", "--dA", "2", "--seed", "1", "--out", str(rho), "--witness", str(witness)],
        ["check-sym", "--k", "3", "--in", str(rho), "--cert", str(cert)],
    ):
        code, report = run_command(argv)
        assert code == 0, report
    assert isinstance(load_extension(witness), BlockState)
    for ext in (witness, cert):
        code, report = run_command(["verify", "--k", "3", "--ext", str(ext), "--marginal", str(rho)])
        assert code == 0, report
        head = above_marker(report)
        assert "layout: blocks\n" in head
        assert "support: skipped (blocks layout)\n" in head
        assert "status: PASS" in head
    other = write_state(gen_random_extendible(3, 2, 2)[0], tmp_path / "other.state")
    code, report = run_command(["verify", "--k", "3", "--ext", str(witness), "--marginal", other])
    assert code == 2 and "marginal: FAIL" in report
    code, report = run_command(["verify", "--k", "4", "--ext", str(witness), "--marginal", str(rho)])
    assert code == 1 and "expected 4" in report
    # a block certificate extends a qubit B side only
    qutrit = write_state(DensityMatrix(np.eye(6) / 6, (2, 3)), tmp_path / "qutrit.state")
    code, report = run_command(["verify", "--k", "3", "--ext", str(witness), "--marginal", qutrit])
    assert code == 1 and "error: marginal layout (2, 3) does not match extension\n" in report


def test_infeasible_report_prints_the_witness_and_writes_no_certificate(tmp_path):
    bad = write_state(singlet_state(), tmp_path / "bad.state")
    cert = tmp_path / "cert.blocks"
    code, report = run_command(["check-sym", "--k", "2", "--in", bad, "--cert", str(cert)])
    assert code == 2
    head = above_marker(report).splitlines()
    gap = float(next(line for line in head if line.startswith("gap_estimate: ")).split()[-1])
    value = next(line for line in head if line.startswith("witness: "))
    assert value.startswith("witness: tr(W rho) + c = -")
    assert float(value.split()[-1]) == pytest.approx(-gap, rel=1e-6)
    assert head[-1] == value
    assert not cert.exists()
    _, again = run_command(["check-sym", "--k", "2", "--in", bad, "--cert", str(cert)])
    assert above_marker(again) == above_marker(report)
    code, report = run_command(["check-sym", "--k", "2", "--in", write_state(product_state(), tmp_path / "good.state")])
    assert code == 0 and "witness:" not in report
