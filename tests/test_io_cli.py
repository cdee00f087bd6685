import json
import re

import numpy as np
import pytest

from conftest import product_state, random_density, singlet_state
from symext.blocks import PROFILE_EXCLUDE_BOSONIC, BlockState, gen_random_extendible, marginal_from_blocks
from symext.cli import main, run_command
from symext.convert import BosonicState, sym_to_bos
from symext.io import (
    MatrixFile,
    MatrixFileError,
    _entries_text,
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
from symext.solver import qutrit_counterexample
from symext.young import list_diagrams

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
    back = load_matrix_file(path).entries
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
        assert _entries_text(matrix) == _per_element_entries_text(matrix)


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
    save_state(bos.embed(), full)
    assert isinstance(load_extension(full), DensityMatrix)


def test_sym_tag_resolves_weight_slots():
    mf = MatrixFile([2, "sym(3)"], np.eye(8))
    assert mf.dims() == (2, 4)


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
    marginal, witness = gen_random_extendible(3, 2, 0)
    marginal_path = tmp_path / "rho.state"
    save_state(marginal, marginal_path)
    save_blocks(witness, path)
    good = json.loads(path.read_text())
    for field, value, message in (
        ("k", 3.9, "k must be an integer, got 3.9"),
        ("k", True, "k must be an integer, got True"),
        ("dA", 2.2, "dA must be an integer, got 2.2"),
        ("diagram", [3.5, 0.25], "diagram row must be an integer, got 3.5"),
        ("diagram", [True, False], "diagram row must be an integer, got True"),
    ):
        doc = json.loads(json.dumps(good))
        if field == "diagram":
            doc["blocks"][0]["diagram"] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MatrixFileError, match=re.escape(message)):
            load_blocks(path)
        code, report = run_command(["verify", "--k", "3", "--ext", str(path), "--marginal", str(marginal_path)])
        assert code == 1 and message in report


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


def test_check_bos2_refuses_an_oversized_map(tmp_path, monkeypatch):
    from symext import caps, solver

    monkeypatch.setattr(solver, "_MAPS", solver._MapCache(solver._MAP_CACHE_BYTES))
    monkeypatch.setattr(caps, "DENSE_BYTES_LIMIT", 2**20)
    state = write_state(DensityMatrix(np.eye(16) / 16, (2, 8)), tmp_path / "big.state")
    code, report = run_command(["check-bos2", "--dB", "8", "--in", state])
    assert code == 1
    errors = [ln for ln in report.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "above the 1 MiB limit" in errors[0]
    with pytest.raises(pytest.fail.Exception):
        solver._MAPS.get((2, 2, 8), pytest.fail)


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


def test_main_prints_and_exits(tmp_path, capsys):
    good = write_state(product_state(), tmp_path / "good.state")
    with pytest.raises(SystemExit) as exc:
        main(["check-sym", "--k", "2", "--in", good])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "status: FEASIBLE" in out
    assert MARKER in out


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
        [[True, False], [False, True], [True, False], [False, False]],
        [[-0.0, -0.0], [0, -0.0], [-0.0, 0], [1e-300, -2.5e-310]],
        [[1, -0.0], [True, 0.1], [3, -1e308], [0.5, False]],
    ],
    ids=["float", "int", "bool", "negative-zero", "mixed"],
)
def test_fast_entry_parse_matches_the_loop(tmp_path, entries):
    path = tmp_path / "m.state"
    _write_entries(path, "[2]", json.dumps(entries))
    got = load_matrix_file(path).entries.reshape(-1)
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
    assert f"error: {ext}: matrix entries must be finite" in report, report


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
