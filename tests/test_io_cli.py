import numpy as np
import pytest

from conftest import product_state, singlet_state
from symext.blocks import gen_random_extendible
from symext.cli import main, run_command
from symext.convert import BosonicState, sym_to_bos
from symext.io import (
    MatrixFile,
    MatrixFileError,
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
    for lam in list_diagrams(3):
        assert np.array_equal(back.block(lam), witness.block(lam))


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


def test_pipeline_gen_check_convert_verify(tmp_path):
    rho = tmp_path / "rho.state"
    cert = tmp_path / "cert.blocks"
    sigma = tmp_path / "sigma.state"
    code, report = run_command(
        ["gen", "--k", "3", "--dA", "2", "--seed", "7", "--out", str(rho)]
    )
    assert code == 0 and "status: PASS" in report
    code, _ = run_command(["check-sym", "--k", "3", "--in", str(rho), "--cert", str(cert)])
    assert code == 0
    code, report = run_command(["convert", "--k", "3", "--in", str(cert), "--out", str(sigma)])
    assert code == 0
    assert "input: block certificate" in report
    code, report = run_command(
        ["verify", "--k", "3", "--ext", str(sigma), "--marginal", str(rho)]
    )
    assert code == 0
    assert "layout: bosonic" in report
    assert "support: pass" in report
    assert "status: PASS" in report


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
    assert not bs.block(list_diagrams(4)[0]).any()
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


def test_selftest_single_criterion():
    code, report = run_command(["selftest", "--only", "1"])
    assert code == 0
    assert "criterion 1: pass" in report
    assert "status: PASS" in report


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
    # a blocks file that fails validation is reported as the state it is not
    broken = tmp_path / "broken.blocks"
    save_blocks(gen_random_extendible(2, 2, 0)[1], broken)
    broken.write_text(broken.read_text().replace('"k": 2', '"k": 5'))
    code, report = run_command(["convert", "--k", "2", "--in", str(broken), "--out", out])
    assert code == 1
    assert "missing or empty layout" in report
