import json
import os
import shlex
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cosetlab
from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord, embed
from cosetlab.cli import _build_parser, main
from cosetlab.cosets import FAMILY_KINDS, GroupFamily, sample_tau_full
from cosetlab.experiments import ExperimentConfig
from cosetlab.haar import RandomStream

FIXTURE_PRODUCT = ["product", "--family", "symmetric", "--alpha", "1", "--k", "1",
                   "--N", "3", "--g", "(1 2)", "--h", "(1 2)"]


def _child_env() -> dict:
    """Environment under which a child process imports the package this
    process imported, installed or not."""
    src = str(Path(cosetlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProduct:
    def test_symmetric_fixture(self, capsys):
        code, out, _ = run_cli(capsys, *FIXTURE_PRODUCT)
        assert code == 0
        assert json.loads(out)["perm"] == [3, 2, 1, 4, 5]

    def test_size_stable_product(self, capsys):
        # every family, conjugation included, shares the corner product formula
        for family in FAMILY_KINDS:
            code, out, _ = run_cli(
                capsys, "product", "--family", family, "--alpha", "1",
                "--k", "1", "--g", "(1 2)", "--h", "(1 2)")
            assert code == 0, family
            assert json.loads(out)["perm"] == [3, 1, 2], family

    @pytest.mark.parametrize("size", [[], ["--N", "2"]], ids=["size_stable", "finite"])
    def test_symmetric_rejects_dense_inputs(self, capsys, tmp_path, size):
        path = tmp_path / "u2.json"
        u = np.array([[0.6, 0.8], [-0.8, 0.6]])
        path.write_text(json.dumps(BlockMatrix(u).to_json_dict()))
        code, out, err = run_cli(
            capsys, "product", "--family", "symmetric", "--alpha", "1", "--k", "1",
            "--g", str(path), "--h", "identity", *size)
        assert (code, out) == (1, "")
        assert "exact permutation" in err

    def test_overlapping_cycles_are_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "product", "--family", "symmetric", "--alpha", "1", "--k", "1",
            "--N", "3", "--g", "(1 2)(1 2)", "--h", "identity")
        assert (code, out) == (1, "")
        assert "cycle point 1" in err

    @pytest.mark.parametrize("argv", [
        ("--family", "unitary_orthogonal", "--alpha", "0", "--k", "0",
         "--g", "identity", "--h", "identity"),
        ("--family", "symmetric", "--alpha", "2", "--k", "0", "--g", "(1 2)", "--h", "identity"),
    ], ids=["empty", "corner_only"])
    def test_size_stable_product_checks_shape(self, capsys, argv):
        # the same check as the finite product's BlockSpec
        code, out, err = run_cli(capsys, "product", *argv)
        assert (code, out) == (1, "")
        assert "k and m must be positive" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, *FIXTURE_PRODUCT, "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["perm"] == [3, 2, 1, 4, 5]

    def test_matrix_json_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(BlockMatrix.identity(2).to_json_dict()))
        code, out, _ = run_cli(
            capsys, "product", "--family", "unitary_orthogonal", "--alpha", "1",
            "--k", "1", "--N", "2", "--g", str(path), "--h", "identity")
        assert code == 0
        mat = BlockMatrix.from_json_dict(json.loads(out))
        assert mat.dim == 4

    def test_missing_matrix_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "product", "--family", "unitary_orthogonal", "--alpha", "1",
            "--k", "1", "--N", "2", "--g", str(tmp_path / "nope.json"), "--h", "identity")
        assert code == 1
        assert "nope.json" in err


class TestMembership:
    def test_identity_not_member(self, capsys):
        code, out, _ = run_cli(
            capsys, "membership", "--alpha", "1", "--k", "1", "--N", "3",
            "--x", "identity", "--target", "(1 2)")
        assert code == 0
        assert out == "false\n"

    def test_transposition_member(self, capsys):
        code, out, _ = run_cli(
            capsys, "membership", "--alpha", "1", "--k", "1", "--N", "3",
            "--x", "(1 4)", "--target", "(1 3)")
        assert code == 0
        assert out == "true\n"

    def test_corner_swapped_sample_n128(self, capsys, tmp_path):
        # x = (1 3).(tau_full sample) is a non-member: it sends a different number
        # of points from one block (corner, copy 0, copy 1) to another than the
        # representative does, a count that no element of K changes
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 128, 2))
        g = BlockMatrix.from_permutation(PermutationWord.parse("(1 2 3)", 3))
        h = BlockMatrix.from_permutation(PermutationWord.parse("(1 3)", 3))
        y = sample_tau_full(embed(g, fam.spec), embed(h, fam.spec), fam, RandomStream(5, 1))
        x = PermutationWord.from_cycles(fam.spec.dim, [(1, 3)]) * y.exact_permutation
        x_path, r_path = tmp_path / "x.json", tmp_path / "r.json"
        x_path.write_text(json.dumps({"perm": list(x.images)}))
        sym = ("--alpha", "1", "--k", "1", "--m", "2", "--N", "128")
        run_cli(capsys, "product", "--family", "symmetric", *sym, "--g", "(1 2 3)",
                "--h", "(1 3)", "--out", str(r_path))
        code, out, _ = run_cli(capsys, "membership", *sym, "--x", str(x_path),
                               "--target", str(r_path))
        assert code == 0
        assert out == "false\n"


class TestSample:
    def test_orthogonal_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--kind", "orthogonal",
                               "--dim", "4", "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 4
        mat = BlockMatrix.from_json_dict(data)
        np.testing.assert_allclose(mat.entries @ mat.entries.conj().T, np.eye(4), atol=1e-12)

    def test_permutation_kind(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--kind", "permutation",
                               "--dim", "5", "--seed", "3")
        assert code == 0
        assert sorted(json.loads(out)["perm"]) == [1, 2, 3, 4, 5]

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--kind", "unitary", "--dim", "3", "--seed", "9")
        _, second, _ = run_cli(capsys, "sample", "--kind", "unitary", "--dim", "3", "--seed", "9")
        assert first == second

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--kind", "unitary", "--dim", "3")
        assert code == 1
        assert "--seed" in err


class TestExactSym:
    def test_fixture_atoms(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact-sym", "--alpha", "1", "--k", "1", "--N", "3",
            "--g", "(1 2)", "--h", "(1 2)")
        assert code == 0
        data = json.loads(out)
        assert {a["prob"] for a in data["atoms"]} == {"1/4", "3/4"}

    def test_budget_exceeded_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "exact-sym", "--alpha", "1", "--k", "1", "--N", "3",
            "--g", "identity", "--h", "identity", "--budget", "5")
        assert code == 1
        assert "budget" in err


class TestBlockDecay:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "block-decay", "--k", "1", "--N", "0",
                               "--N", "8", "--samples", "30", "--seed", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,median_norm,mean_norm"
        assert lines[1].startswith("0,1.0,1.0")

    def test_byte_identical_reruns(self, capsys):
        argv = ("block-decay", "--k", "1", "--N", "6", "--samples", "30", "--seed", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestConcentration:
    ARGS = ("concentration", "--family", "symmetric", "--alpha", "1", "--k", "1",
            "--m", "1", "--N", "3", "--epsilon", "0.25", "--samples", "40",
            "--g", "(1 2)", "--h", "(1 2)")

    def test_runs_and_reruns_match_modulo_runtime(self, capsys):
        code, first, _ = run_cli(capsys, *self.ARGS, "--seed", "6")
        assert code == 0
        code, second, _ = run_cli(capsys, *self.ARGS, "--seed", "6")
        assert code == 0

        def strip_runtime(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_runtime(first) == strip_runtime(second)
        header = first.splitlines()[0].split(",")
        assert len(header) == 15

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "concentration", "--config",
                               str(tmp_path / "missing.json"), "--seed", "1")
        assert code == 1
        assert "missing.json" in err

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"abc"', "null"])
    def test_config_that_is_not_an_object(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "concentration", "--config", str(path), "--seed", "1")
        assert code == 1
        assert "cfg.json" in err and "JSON object" in err

    @pytest.mark.parametrize("flag", [("--threads", "2"), ("--measure", "tau_full")])
    def test_removed_flags_are_unknown(self, capsys, flag):
        code, _, err = run_cli(capsys, *self.ARGS, "--seed", "6", *flag)
        assert code == 1
        assert "unrecognized arguments" in err

    def test_flags_are_the_config_fields(self):
        # apart from where the config comes from and where the report goes,
        # each flag sets one config field and each field has one flag
        sub = _build_parser()._subparsers._group_actions[0].choices["concentration"]
        renamed = {"N": "N_list", "epsilon": "epsilon_list", "g": "g_spec", "h": "h_spec"}
        dests = [a.dest for a in sub._actions
                 if a.option_strings and a.dest not in ("help", "config", "format", "out")]
        fields = [renamed.get(d, d) for d in dests]
        assert len(fields) == len(set(fields))
        assert set(fields) == set(ExperimentConfig.__dataclass_fields__)

    def test_seed_is_mandatory(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS)
        assert code == 1
        assert "seed" in err

    def test_config_file_with_overrides(self, capsys, tmp_path):
        cfg = {"family": "symmetric", "alpha": 1, "k": 1, "m": 1, "N_list": [3],
               "epsilon_list": [0.25], "samples": 30, "seed": 2,
               "g_spec": "(1 2)", "h_spec": "(1 2)"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "concentration", "--config", str(path),
                               "--samples", "10")
        assert code == 0
        assert ",10," in out.splitlines()[1]

    def test_bad_family_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "concentration", "--family", "biquaternionic", "--alpha", "1",
            "--k", "1", "--m", "1", "--N", "3", "--epsilon", "0.25",
            "--samples", "5", "--seed", "1")
        assert code == 1


class TestExitCodes:
    SYM = ("--alpha", "1", "--k", "1", "--N", "3")
    CONC = ("concentration", "--family", "symmetric", "--alpha", "1", "--k", "1", "--m", "2",
            "--epsilon", "0.4", "--seed", "1", "--h", "(1 3)")

    @pytest.mark.parametrize("argv", [
        ("product", "--family", "symmetric", *SYM, "--g", "", "--h", "identity"),
        ("membership", *SYM, "--x", "", "--target", "(1 2)"),
        ("exact-sym", *SYM, "--g", "", "--h", "identity"),
        (*CONC, "--N", "3", "--samples", "2", "--g", ""),
    ])
    def test_empty_source_is_config_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "empty matrix source" in err

    def test_missing_concentration_source_names_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.CONC, "--N", "3", "--samples", "2",
                               "--g", str(tmp_path / "missing.json"))
        assert code == 1
        assert "missing.json" in err

    @pytest.mark.parametrize("argv", [
        ("concentration", "--family", "unitary_orthogonal", "--alpha", "1", "--k", "1",
         "--m", "1", "--N", "8", "--epsilon", "0.4", "--samples", "20", "--seed", "1",
         "--h", "identity"),
        ("product", "--family", "unitary_conjugation", "--alpha", "1", "--k", "1", "--N", "8",
         "--h", "identity"),
    ], ids=["concentration", "product"])
    def test_non_unitary_matrix_is_config_error(self, capsys, tmp_path, argv):
        # a shear is not in the group, so no sample of it can concentrate
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(BlockMatrix(np.array([[1.0, 1.0], [0.0, 1.0]])).to_json_dict()))
        code, out, err = run_cli(capsys, *argv, "--g", str(path))
        assert (code, out) == (1, "")
        assert "unitary g and h" in err

    def test_zero_max_iters_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "concentration", "--family", "unitary_orthogonal", "--alpha", "1",
            "--k", "1", "--m", "1", "--N", "3", "--epsilon", "0.4", "--samples", "2",
            "--seed", "1", "--max-iters", "0")
        assert code == 1
        assert "max_iters" in err

    @pytest.mark.parametrize("config,flags", [
        ({"samples": 2.5}, ()),
        ({"N_list": "64"}, ()),
        ({}, ("--epsilon", "nan")),
        ({"g_spec": 5}, ()),
        ({"tol": True}, ()),
    ])
    def test_wrongly_typed_config_value_is_config_error(self, capsys, tmp_path, config, flags):
        data = {"family": "unitary_orthogonal", "alpha": 1, "k": 1, "m": 1, "N_list": [8],
                "epsilon_list": [0.4], "samples": 2, "seed": 1}
        data.update(config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "concentration", "--config", str(path), *flags)
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("sample", "--kind", "unitary", "--dim", "3", "--seed", "-5"),
        ("block-decay", "--k", "1", "--N", "4", "--samples", "30", "--seed", "-1"),
        (*CONC, "--N", "3", "--samples", "2", "--g", "(1 2 3)", "--seed", "-1"),
    ], ids=["sample", "block-decay", "concentration"])
    def test_negative_seed_is_config_error(self, capsys, monkeypatch, argv):
        def sweep(cfg):
            raise AssertionError("the sweep started with a negative seed")

        monkeypatch.setattr("cosetlab.cli.run_concentration", sweep)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "seed must be" in err

    def test_symmetric_copy_larger_than_recursion_limit(self, capsys):
        code, out, _ = run_cli(capsys, *self.CONC, "--N", "1024", "--samples", "2",
                               "--g", "(1 2 3)")
        assert code == 0
        assert out.splitlines()[1].split(",")[7] == "2"

    @pytest.mark.parametrize("family", ["unitary_orthogonal", "unitary_conjugation"])
    def test_unitary_tail_of_a_hundred_thousand(self, capsys, family):
        # a full sample would be a 100001 x 100001 complex matrix (about 160 GB)
        code, out, _ = run_cli(
            capsys, "concentration", "--family", family, "--alpha", "1", "--k", "1",
            "--m", "1", "--N", "100000", "--epsilon", "0.4", "--samples", "2", "--seed", "1")
        assert code == 0
        assert out.splitlines()[1].split(",")[4] == "100000"

    def test_block_decay_tail_of_a_hundred_thousand(self, capsys):
        code, out, _ = run_cli(capsys, "block-decay", "--k", "2", "--N", "100000",
                               "--samples", "30", "--seed", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("100000,")

    @pytest.mark.parametrize("argv", [
        ("sample", "--kind", "permutation", "--dim", "3", "--seed", "1"),
        (*CONC, "--N", "3", "--samples", "2", "--g", "(1 2 3)"),
    ])
    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert f"cannot write to {path}" in err

    def test_exact_sym_window_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"perm": [2, 1]}))
        _, by_word, _ = run_cli(capsys, "exact-sym", *self.SYM, "--g", "(1 2)", "--h", "(1 2)")
        code, by_file, _ = run_cli(capsys, "exact-sym", *self.SYM, "--g", str(path),
                                   "--h", "(1 2)")
        assert code == 0
        assert by_file == by_word


class TestTopLevel:
    def test_readme_command_lines_run(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("cosetlab ")]
        assert len(lines) == 7
        for line in lines:
            code, _, err = run_cli(capsys, *shlex.split(line)[1:])
            assert code == 0, (line, err)

    def test_no_subcommand_exits_one(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_flag_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--bogus")
        assert code == 1

    @pytest.mark.parametrize("sub", ["sample", "product", "membership", "exact-sym",
                                     "block-decay", "concentration"])
    def test_help_shows_example(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "example: cosetlab " + sub in capsys.readouterr().out

    def test_console_script_installed(self):
        exe = shutil.which("cosetlab")
        assert exe is not None
        proc = subprocess.run([exe, *FIXTURE_PRODUCT], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["perm"] == [3, 2, 1, 4, 5]

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "cosetlab.cli", "membership",
                               "--alpha", "1", "--k", "1", "--N", "3",
                               "--x", "identity", "--target", "(1 2)"],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout == "false\n"

    def test_import_and_sweeps_load_no_scipy(self):
        # a fresh process, since other tests load scipy into this one
        script = textwrap.dedent("""
            import json, os, sys
            import cosetlab, cosetlab.cli
            for family, m in [("unitary_orthogonal", 1), ("unitary_conjugation", 1),
                              ("symmetric", 2)]:
                code = cosetlab.cli.main([
                    "concentration", "--family", family, "--alpha", "1", "--k", "1",
                    "--m", str(m), "--N", "8", "--epsilon", "0.4", "--samples", "3",
                    "--seed", "1", "--out", os.devnull])
                assert code == 0, family
            cosetlab.eigenvalue_matching_distance([[1j]], [[1]])
            print(json.dumps([n for n in sys.modules if n.split(".")[0] == "scipy"]))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
