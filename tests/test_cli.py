"""End-to-end command line behavior, driven through main(argv)."""

import json
import re

import pytest

import lieforge.oracle as oracle_module
import lieforge.sampler as sampler_module
import lieforge.serialize as serialize_module
from lieforge.cli import CSV_HEADER, main
from lieforge.errors import DegenerateParametersError


def _generate_doc(tmp_path, *extra):
    path = tmp_path / "sample.json"
    code = main(["generate", "--dim", "5", "--seed", "11", "--out", str(path), *extra])
    assert code == 0
    return path


def _corrupt_structure_entry(path):
    doc = json.loads(path.read_text())
    doc["structure_constants"][0][3] += 1.0
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# --- generate ---------------------------------------------------------------


def test_generate_is_deterministic_per_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["generate", "--dim", "6", "--seed", "3", "--out", str(a)]) == 0
    assert main(["generate", "--dim", "6", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_writes_document_to_stdout(capsys):
    assert main(["generate", "--dim", "3", "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3 and doc["seed"] == 9
    assert "structure_constants" in doc and "adjoint" not in doc


def test_generate_echoes_entropy_seed(capsys):
    assert main(["generate", "--dim", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed: ")
    echoed = int(captured.err.split()[1])
    assert json.loads(captured.out)["seed"] == echoed


def test_generate_stays_quiet_when_seed_given(capsys):
    assert main(["generate", "--dim", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_generate_emit_options(capsys):
    assert main(["generate", "--dim", "3", "--seed", "2", "--emit", "both"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "adjoint" in doc and "structure_constants" in doc
    assert main(["generate", "--dim", "3", "--seed", "2", "--emit", "none"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "adjoint" not in doc and "structure_constants" not in doc


def test_generate_nilpotent_three_dim_single_entry(capsys):
    assert main(
        ["generate", "--dim", "3", "--seed", "4", "--mode", "nilpotent", "--emit", "structure"]
    ) == 0
    entries = json.loads(capsys.readouterr().out)["structure_constants"]
    assert len(entries) == 1
    i, j, k, value = entries[0]
    assert (i, j, k) == (1, 2, 0)
    assert value != 0


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--dim", "1"],
        ["generate", "--dim", "3", "--max-attempts", "0"],
        ["generate", "--dim", "3", "--seed", "-1"],
        ["generate", "--dim", "3", "--seed", str(2**64)],
        ["generate"],
        ["generate", "--dim", "3", "--seed", "abc"],
    ],
)
def test_generate_usage_errors(argv, capsys):
    assert main(argv) == 64
    capsys.readouterr()


def test_generate_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["generate", "--dim", "3", "--seed", "1", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("lieforge generate: cannot write output:")
    assert err.count("\n") == 1


def _no_memory(monkeypatch, path=None):
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: 0)


def test_generate_adjoint_too_large_for_memory_is_usage_error(monkeypatch, tmp_path, capsys):
    _no_memory(monkeypatch)
    out = tmp_path / "x.json"
    assert main(["generate", "--dim", "11", "--seed", "1", "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("lieforge generate: writing the N=11 --emit structure document needs")
    assert err.count("\n") == 1


def test_generate_without_a_payload_needs_no_room_for_the_stack(monkeypatch, tmp_path, capsys):
    stack = 40**3 * 8
    monkeypatch.setattr(sampler_module, "_available_memory", lambda: stack - 1)
    out = tmp_path / "x.json"
    argv = ["generate", "--dim", "40", "--seed", "1", "--out", str(out)]
    assert main([*argv, "--emit", "none"]) == 0
    assert "structure_constants" not in json.loads(out.read_text())
    assert main([*argv, "--emit", "structure"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("lieforge generate: writing the N=40 --emit structure document needs")


# --- verify -----------------------------------------------------------------


def test_verify_passes_fresh_document(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    for name in (
        "payload", "jacobi", "almost_abelian", "closure", "derived", "killing", "series",
        "tproduct",
    ):
        assert name in out


def test_verify_check_subset_and_json(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    assert main(["verify", str(path), "--checks", "almost_abelian", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["almost_abelian"]
    assert report["passed"] is True


def test_verify_rejects_unknown_check(tmp_path, capsys):
    # the usage error comes before the document is read, so a missing one is 64 too
    for path in (_generate_doc(tmp_path), tmp_path / "missing.json"):
        assert main(["verify", str(path), "--checks", "jacobi,unitarity"]) == 64
        assert "unitarity" in capsys.readouterr().err


def test_verify_rejects_empty_check_list(tmp_path, capsys):
    for path in (_generate_doc(tmp_path), tmp_path / "missing.json"):
        assert main(["verify", str(path), "--checks", " , "]) == 64
        capsys.readouterr()


def test_verify_flags_corrupted_constants(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    _corrupt_structure_entry(path)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert "FAIL" in [line.split()[3] for line in out.splitlines() if line.startswith("jacobi")][0]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [10, 40])
def test_every_check_reads_the_stored_structure(dim, field, tmp_path, capsys):
    """A default document stores only the structure; scaling one of its
    entries by 1.5 fails each check run alone. The entry f{0,1,k} sits in A_0,
    which the series check's canonical path brackets with at every level."""
    path = tmp_path / "doc.json"
    argv = ["generate", "--dim", str(dim), "--seed", "1", "--field", field, "--out", str(path)]
    assert main(argv) == 0
    doc = json.loads(path.read_text())
    entry = doc["structure_constants"][0]
    entry[3] = [1.5 * x for x in entry[3]] if field == "complex" else 1.5 * entry[3]
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    for name in ("jacobi", "almost_abelian", "closure", "derived", "killing", "series", "tproduct"):
        assert main(["verify", "--checks", name, str(path)]) == 1, name
        assert _check_line(capsys.readouterr().out, name)[3] == "FAIL", name


def _check_line(out, name):
    return [line.split() for line in out.splitlines() if line.startswith(name)][0]


def _double_structure(path, tau_ver=None):
    doc = json.loads(path.read_text())
    for entry in doc["structure_constants"]:
        entry[3] *= 2
    if tau_ver is not None:
        doc["tolerances"]["tau_ver"] = tau_ver
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def test_verify_flags_doubled_structure_payload(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    _double_structure(path)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "result: FAIL" in out
    assert _check_line(out, "payload")[3] == "FAIL"
    # doubling keeps every bilinear identity, so only the payload check sees it
    assert _check_line(out, "jacobi")[3] == "pass"


@pytest.mark.parametrize("tau_ver", [1.0, 1e300])
def test_document_tolerance_does_not_loosen_the_payload_check(tau_ver, tmp_path, capsys):
    path = _generate_doc(tmp_path)
    _double_structure(path, tau_ver)
    assert main(["verify", str(path)]) == 1
    assert _check_line(capsys.readouterr().out, "payload")[3] == "FAIL"


def test_verify_flags_swapped_structure_payload(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    other = tmp_path / "other.json"
    assert main(["generate", "--dim", "5", "--seed", "12", "--out", str(other)]) == 0
    doc = json.loads(path.read_text())
    doc["structure_constants"] = json.loads(other.read_text())["structure_constants"]
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    assert main(["verify", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    payload = [c for c in report["checks"] if c["name"] == "payload"][0]
    assert report["passed"] is False and payload["passed"] is False
    assert "structure" in payload["detail"] and " at (" in payload["detail"]


def test_verify_strict_tolerance_fails(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    assert main(["verify", str(path), "--tol", "1e-20"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan", "1e400", "abc"])
def test_bad_tolerance_is_a_usage_error(command, tol, tmp_path, capsys):
    if command == "verify":
        target = [str(_generate_doc(tmp_path))]
    else:
        target = ["--dim", "4", "--seed", "1"]
    assert main([command, *target, "--tol", tol]) == 64
    assert "tol" in capsys.readouterr().err


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 65
    assert "cannot read" in capsys.readouterr().err


def test_verify_version_mismatch(tmp_path, capsys):
    path = _generate_doc(tmp_path)
    path.write_text(path.read_text().replace("lieforge/1", "lieforge/9", 1))
    assert main(["verify", str(path)]) == 65
    assert "lieforge/9" in capsys.readouterr().err


def test_verify_malformed_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["verify", str(path)]) == 65
    capsys.readouterr()


def test_verify_rejects_a_nilpotent_document_relabelled_generic(tmp_path, capsys):
    # n{1} = 0, so generate rejects this matrix in generic mode
    path = _generate_doc(tmp_path, "--mode", "nilpotent")
    doc = json.loads(path.read_text())
    doc["mode"] = "generic"
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    assert main(["verify", str(path)]) == 65
    assert "n{1}" in capsys.readouterr().err


def test_verify_adjoint_too_large_for_memory_is_input_error(monkeypatch, tmp_path, capsys):
    path = _generate_doc(tmp_path)
    _no_memory(monkeypatch)
    # the document's own length bound would refuse it first; this is the stack's
    monkeypatch.setattr(serialize_module, "_READ_BYTES_PER_BYTE", 0)
    assert main(["verify", str(path)]) == 65
    assert capsys.readouterr().err.startswith("lieforge verify: the N=5 adjoint stack needs")


def test_verify_non_utf8_file_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["verify", str(path)]) == 65
    assert "UTF-8" in capsys.readouterr().err


# --- oracle -----------------------------------------------------------------


def test_oracle_agrees_at_small_dim(capsys):
    assert main(["oracle", "--dim", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "unknowns: 3" in out


def test_oracle_reports_separation_and_sample_conditioning(capsys):
    assert main(["oracle", "--dim", "6", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("condition estimate: "))
    sep = re.fullmatch(r"separation: (\S+)  separation threshold: (\S+)", lines[at + 1])
    assert sep and float(sep[1]) > float(sep[2]) > 0
    draw = re.fullmatch(r"attempts: (\d+)  smallest retained singular value: (\S+)", lines[at + 2])
    assert draw and int(draw[1]) >= 1 and float(draw[2]) > 0


def test_oracle_two_dim_empty_system(capsys):
    assert main(["oracle", "--dim", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "empty system" in out
    assert "result: PASS" in out


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_nilpotent_two_dim_oracle_prints_no_singular_value(capsys, field):
    """A nilpotent draw takes no singular value, and at N=2 its empty system
    reaches the report: the attempts line then stands alone."""
    argv = ["oracle", "--dim", "2", "--mode", "nilpotent", "--seed", "1", "--field", field]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "\nattempts: 1\n" in out and "result: PASS" in out


def test_oracle_size_guard(capsys):
    assert main(["oracle", "--dim", "40", "--seed", "1"]) == 64
    assert "29640" in capsys.readouterr().err


def test_oracle_adjoint_too_large_for_memory_is_usage_error(monkeypatch, capsys):
    _no_memory(monkeypatch)
    assert main(["oracle", "--dim", "5", "--seed", "1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lieforge oracle: the N=5 adjoint stack needs")
    assert captured.err.count("\n") == 1


def test_oracle_rejects_tiny_dim(capsys):
    assert main(["oracle", "--dim", "1"]) == 64
    capsys.readouterr()


def test_oracle_nilpotent_is_singular(capsys):
    assert main(["oracle", "--dim", "4", "--seed", "2", "--mode", "nilpotent"]) == 3
    assert "singular" in capsys.readouterr().err


# --- bench ------------------------------------------------------------------


def test_bench_csv_layout(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--dims", "4,6", "--repeat", "3", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "n,mode,repeats,median_generate_s,median_verify_s,rng_id"
    assert len(lines) == 3
    n, mode, repeats, gen_s, verify_s, rng_id = lines[1].split(",")
    assert (n, mode, repeats) == ("4", "generic", "3")
    assert float(gen_s) > 0.0
    assert verify_s == ""
    assert rng_id == "splitmix64-boxmuller-v1"
    err = capsys.readouterr().err
    assert "hardware:" in err
    assert "N=4: median generate" in err


def test_bench_writes_csv_to_stdout(capsys):
    assert main(["bench", "--dims", "4", "--repeat", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER


def test_bench_verify_column(capsys):
    assert main(["bench", "--dims", "4", "--repeat", "3", "--verify"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert float(row.split(",")[4]) > 0.0


def test_bench_deduplicates_dims(capsys):
    assert main(["bench", "--dims", "4,4,4", "--repeat", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--dims", "4", "--repeat", "2"],
        ["bench", "--dims", "1"],
        ["bench", "--dims", "abc"],
        ["bench", "--dims", ""],
        ["bench"],
    ],
)
def test_bench_usage_errors(argv, capsys):
    assert main(argv) == 64
    capsys.readouterr()


def test_bench_unwritable_csv_is_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "missing" / "bench.csv"
    assert main(["bench", "--dims", "3", "--repeat", "3", "--csv", str(csv_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("lieforge bench: cannot write output:")
    assert err.count("\n") == 1


def test_bench_adjoint_too_large_for_memory_is_usage_error(monkeypatch, capsys):
    _no_memory(monkeypatch)
    assert main(["bench", "--dims", "11", "--repeat", "3"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lieforge bench: the N=11 adjoint stack needs")


# --- top level --------------------------------------------------------------


def _reject_every_draw(monkeypatch, path):
    def reject(pm, tolerances=None):
        raise DegenerateParametersError("rejected")

    monkeypatch.setattr(sampler_module, "validate_parameter_matrix", reject)


def _zero_separation(monkeypatch, path):
    monkeypatch.setattr(oracle_module, "_schur_solver", lambda a: (None, 0.0))


def _other_version(monkeypatch, path):
    path.write_text(path.read_text().replace("lieforge/1", "lieforge/9", 1))


def _truncated(monkeypatch, path):
    path.write_text(path.read_text()[:-10])


_ARGV = {
    "generate": ["generate", "--dim", "5", "--seed", "1"],
    "oracle": ["oracle", "--dim", "5", "--seed", "1"],
    "bench": ["bench", "--dims", "5", "--repeat", "3"],
}
# each command's message when its memory check fails
_TOO_LARGE = {
    "generate": "writing the N=5 --emit structure document needs",
    "oracle": "the N=5 adjoint stack needs",
    "bench": "the N=5 adjoint stack needs",
}


@pytest.mark.parametrize(
    "command, trigger, code, message",
    [
        *(
            pytest.param(command, trigger, code, message, id=f"{command}-{error}")
            for command in _ARGV
            for trigger, code, message, error in (
                (_reject_every_draw, 2, "no valid sample after 16 attempts", "GenerationFailed"),
                (_no_memory, 64, _TOO_LARGE[command], "SystemSize"),
            )
        ),
        pytest.param(
            "oracle", _zero_separation, 3, "singular system: eigenvalue separation",
            id="oracle-SingularSystem",
        ),
        pytest.param(
            "verify", _other_version, 65, "unsupported format version", id="verify-FormatVersion"
        ),
        pytest.param(
            "verify", _truncated, 65, "document is not valid JSON", id="verify-DocumentIntegrity"
        ),
        pytest.param(
            "verify", _no_memory, 65, "reading a 0 MiB document needs", id="verify-SystemSize"
        ),
    ],
)
def test_each_library_error_exits_with_its_code_and_one_line(
    command, trigger, code, message, monkeypatch, tmp_path, capsys
):
    path = _generate_doc(tmp_path)
    trigger(monkeypatch, path)
    argv = ["verify", str(path)] if command == "verify" else _ARGV[command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"lieforge {command}: {message}")
    assert captured.err.count("\n") == 1


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 64
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["transmogrify"]) == 64
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out
