import importlib
import json
import os
import pkgutil
import shlex
import shutil
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cosetlab
from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord, embed
from cosetlab.cli import _build_parser, main
from cosetlab.cosets import FAMILY_KINDS, GroupFamily, sample_tau_full
from cosetlab.experiments import ExperimentConfig
from cosetlab.haar import RandomStream, haar_orthogonal, haar_unitary, uniform_permutation

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

    def test_size_stable_product_needs_one_copy(self, capsys):
        code, out, err = run_cli(
            capsys, "product", "--family", "symmetric", "--alpha", "1", "--k", "1", "--m", "2",
            "--g", "(1 2)", "--h", "identity")
        assert (code, out) == (1, "")
        assert "needs m=1" in err

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

    @pytest.mark.parametrize("kind,draw", [
        ("orthogonal", lambda n, rng: BlockMatrix(haar_orthogonal(n, rng))),
        ("unitary", lambda n, rng: BlockMatrix(haar_unitary(n, rng))),
        ("permutation", lambda n, rng: BlockMatrix.from_permutation(uniform_permutation(n, rng)))])
    def test_each_kind_is_its_sampler(self, capsys, kind, draw):
        code, out, _ = run_cli(capsys, "sample", "--kind", kind, "--dim", "4", "--seed", "11")
        assert code == 0
        assert json.loads(out) == draw(4, RandomStream(11)).to_json_dict()

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "sample", "--kind", "unitary", "--dim", "3", "--seed", "9")
        _, second, _ = run_cli(capsys, "sample", "--kind", "unitary", "--dim", "3", "--seed", "9")
        assert first == second

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--kind", "unitary", "--dim", "3")
        assert code == 1
        assert "--seed" in err

    @pytest.mark.parametrize("kind", ["orthogonal", "unitary", "permutation"])
    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_dim_below_one_names_dim(self, capsys, kind, dim):
        code, out, err = run_cli(capsys, "sample", "--kind", kind, "--dim", dim, "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"error: --dim must be a positive integer; got {dim}\n"


class TestExactSym:
    def test_fixture_atoms(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact-sym", "--alpha", "1", "--k", "1", "--N", "3",
            "--g", "(1 2)", "--h", "(1 2)")
        assert code == 0
        data = json.loads(out)
        assert {a["prob"] for a in data["atoms"]} == {"1/4", "3/4"}

    def test_budget_exceeded_is_config_error(self, capsys):
        # copy size k + N = 8 at m = 2: 8! = 40320 draws > 5040
        code, out, err = run_cli(
            capsys, "exact-sym", "--alpha", "1", "--k", "2", "--N", "6", "--m", "2",
            "--g", "identity", "--h", "identity")
        assert (code, out) == (1, "")
        assert "enumeration budget exceeded" in err

    def test_budget_flag_is_unknown(self, capsys):
        # the enumeration budget is a constant, ENUMERATION_BUDGET
        code, out, err = run_cli(
            capsys, "exact-sym", "--alpha", "1", "--k", "1", "--N", "3",
            "--g", "identity", "--h", "identity", "--budget", "5")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --budget 5" in err

    @pytest.mark.parametrize("N,factorial", [
        (7, "8!"), (10**6, "1000001!"), (10**20, "100000000000000000001!")])
    def test_large_tail_is_budget_error(self, capsys, N, factorial):
        # the budget is checked before g and h are built at full size, by one
        # comparison of the copy size w with 7, so w! is named, never computed
        # (10^20 overflowed ssize_t, and 10^6 built words of size 2.10^6, then
        # failed to print (10^6 + 1)!)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "exact-sym", "--alpha", "1", "--k", "1",
                                 "--N", str(N), "--g", "identity", "--h", "identity")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == (f"error: enumeration budget exceeded: (k + n_tail)! = {factorial} > 5040; "
                       "shrink k + n_tail\n")

    @pytest.mark.parametrize("shape", [("2", "1", "6", "3"), ("1", "2", "5", "2")])
    def test_budget_edge_window_pair(self, capsys, shape):
        # copy size 7 = the budget's 7! draws; window inputs fix every tail
        # label, so the draws fall into few keys and the call is quick
        alpha, k, N, m = shape
        code, out, _ = run_cli(capsys, "exact-sym", "--alpha", alpha, "--k", k, "--N", N,
                               "--m", m, "--g", "(1 3 5)", "--h", "(2 4)")
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert sum(Fraction(a["prob"]) for a in atoms) == 1

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

    def test_billion_tail_runs(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "block-decay", "--k", "2", "--N", "1000000000",
                               "--samples", "30", "--seed", "1")
        assert code == 0 and time.perf_counter() - start < 5
        n, median, mean = out.splitlines()[1].split(",")
        assert n == "1000000000" and 0 < float(median) < 1e-3 and 0 < float(mean) < 1e-3

    @pytest.mark.parametrize("flags,message", [
        (("--k", "2", "--N", "20", "--N", "-3"), "every N must be >= 0; got N=-3"),
        (("--k", "0", "--N", "20"), "k must be an integer >= 1; got 0"),
    ])
    def test_bad_size_fails_before_any_draw(self, capsys, monkeypatch, flags, message):
        def draw(*args, **kwargs):
            raise AssertionError("a draw ran before the sizes were checked")

        monkeypatch.setattr("cosetlab.experiments._block_normals", draw)
        code, out, err = run_cli(capsys, "block-decay", *flags, "--samples", "30", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


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

    @pytest.mark.parametrize("family", ["unitary_orthogonal", "unitary_conjugation"])
    def test_billion_tail_runs(self, capsys, family):
        # a draw of A holds nothing of size N
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "concentration", "--family", family, "--alpha", "1",
                               "--k", "1", "--m", "1", "--N", "1000000000", "--epsilon", "0.4",
                               "--samples", "20", "--seed", "3")
        assert code == 0 and time.perf_counter() - start < 5
        row = out.splitlines()[1].split(",")
        assert row[4] == "1000000000" and row[7] == "20"

    @pytest.mark.parametrize("N", [2**63 - 1, 10**30])
    def test_symmetric_any_copy_size(self, capsys, N):
        # a symmetric sample draws its core pattern, which holds nothing of
        # size N, so tail sizes beyond 64 bits run
        code, out, err = run_cli(capsys, "concentration", "--family", "symmetric",
                                 "--alpha", "1", "--k", "1", "--m", "2", "--N", str(N),
                                 "--epsilon", "0.4", "--samples", "3", "--seed", "1")
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[4] == str(N)

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "concentration", "--config",
                               str(tmp_path / "missing.json"), "--seed", "1")
        assert code == 1
        assert "missing.json" in err

    def test_malformed_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1,')
        code, _, err = run_cli(capsys, "concentration", "--config", str(path))
        assert code == 1
        assert f"malformed config JSON in {path}" in err

    def test_unreadable_config_file(self, capsys, tmp_path):
        # a directory and a file that is not UTF-8 are config errors naming the file
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"seed": 1, "family": "\xe9"}')
        for path in (tmp_path, bad):
            code, _, err = run_cli(capsys, "concentration", "--config", str(path), "--seed", "1")
            assert code == 1
            assert f"unreadable config file {path}: " in err

    def test_directory_matrix_source_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "product", "--family", "symmetric", "--alpha", "1",
                               "--k", "1", "--N", "3", "--g", str(tmp_path), "--h", "identity")
        assert code == 1
        assert f"unreadable matrix file {tmp_path}: " in err

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"abc"', "null"])
    def test_config_that_is_not_an_object(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "concentration", "--config", str(path), "--seed", "1")
        assert code == 1
        assert "cfg.json" in err and "JSON object" in err

    @pytest.mark.parametrize("flag", [("--threads", "2"), ("--measure", "tau_full"),
                                      ("--restarts", "5"), ("--tol", "1e-12"),
                                      ("--max-iters", "200")])
    def test_removed_flags_are_unknown(self, capsys, flag):
        code, _, err = run_cli(capsys, *self.ARGS, "--seed", "6", *flag)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("field,value", [("restarts", 10), ("tol", 1e-12),
                                             ("max_iters", 200)])
    def test_config_with_removed_field(self, capsys, tmp_path, field, value):
        # the orthogonal solver's starts are computed from the sample and
        # its stop thresholds and step cap are constants, so a config that
        # still sets a restart count, a tolerance or a step cap is stale
        data = {"family": "unitary_orthogonal", "alpha": 1, "k": 1, "m": 1, "N_list": [8],
                "epsilon_list": [0.4], "samples": 2, "seed": 1, field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "concentration", "--config", str(path))
        assert code == 1 and not out
        assert f"unknown config fields: ['{field}']" in err

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
    TAIL_SIZE_COMMANDS = [
        *(("concentration", "--family", family, "--alpha", "1", "--k", "1", "--m", "1",
           "--epsilon", "0.4", "--samples", "3", "--seed", "1") for family in FAMILY_KINDS),
        ("block-decay", "--k", "1", "--samples", "30", "--seed", "1"),
    ]
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

    @pytest.mark.parametrize("point", ["30000000", "99999999999999999999"])
    @pytest.mark.parametrize("command", ["product", "membership", "exact-sym", "concentration"])
    def test_huge_cycle_point_is_config_error(self, capsys, command, point):
        # read at the allowed sizes only: the point 3e7 once built a 3e7-point
        # word (MemoryError, exit 2, under a 2 GB limit) and 1e20 raised
        # OverflowError (exit 2)
        source = f"(1 {point})"
        argv = {"product": ("product", "--family", "symmetric", *self.SYM,
                            "--g", source, "--h", "identity"),
                "membership": ("membership", *self.SYM, "--x", source, "--target", "identity"),
                "exact-sym": ("exact-sym", *self.SYM, "--g", source, "--h", "identity"),
                "concentration": (*self.CONC, "--N", "3", "--samples", "2", "--g", source)}
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv[command])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad permutation '{source}': cycle point {point} ")

    @pytest.mark.parametrize("argv", [
        ("product", "--family", "unitary_orthogonal", *SYM, "--g", "random_unitary",
         "--h", "identity"),
        ("product", "--family", "symmetric", "--alpha", "1", "--k", "1", "--g", "identity",
         "--h", "random_unitary"),
        ("membership", *SYM, "--x", "random_unitary", "--target", "identity"),
        ("exact-sym", *SYM, "--g", "random_unitary", "--h", "identity"),
    ], ids=["product", "size_stable_product", "membership", "exact-sym"])
    def test_random_source_outside_concentration_is_config_error(self, capsys, argv):
        # the keyword was read as a path: "matrix file not found: random_unitary"
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: 'random_unitary': only concentration draws a random source\n"

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
        ("product", "--family", "unitary_orthogonal", "--alpha", "1", "--k", "1",
         "--h", "identity"),
    ], ids=["concentration", "product", "size_stable_product"])
    def test_non_unitary_matrix_is_config_error(self, capsys, tmp_path, argv):
        # a shear is not in the group, so no sample of it can concentrate
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(BlockMatrix(np.array([[1.0, 1.0], [0.0, 1.0]])).to_json_dict()))
        code, out, err = run_cli(capsys, *argv, "--g", str(path))
        assert (code, out) == (1, "")
        assert "unitary g and h" in err

    @pytest.mark.parametrize("argv", [
        ("product", "--family", "unitary_orthogonal", "--alpha", "1", "--k", "1", "--N", "2",
         "--h", "identity"),
        ("concentration", "--family", "unitary_conjugation", "--alpha", "1", "--k", "1",
         "--m", "1", "--N", "8", "--epsilon", "0.4", "--samples", "2", "--seed", "1",
         "--h", "identity"),
    ], ids=["product", "concentration"])
    def test_non_finite_matrix_names_source(self, capsys, tmp_path, argv):
        # unchecked, NaN entries reach the solver, whose SVD fails without naming the file
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "re": [[NaN, 0], [0, 1]], "im": [[0, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, *argv, "--g", str(path))
        assert (code, out) == (1, "")
        assert f"malformed matrix JSON in {path}" in err

    @pytest.mark.parametrize("perm", [[2.7, 1.2, 3], [True, 3, 2]], ids=["float", "bool"])
    def test_non_integer_perm_entries_are_config_error(self, capsys, tmp_path, perm):
        # int() would read these as (2 1 3) and (1 3 2), and the first as a member
        path = tmp_path / "perm.json"
        path.write_text(json.dumps({"perm": perm}))
        code, out, err = run_cli(capsys, "membership", "--alpha", "1", "--k", "1", "--N", "1",
                                 "--x", str(path), "--target", "(1 2)")
        assert (code, out) == (1, "")
        assert f"malformed matrix JSON in {path}" in err

    @pytest.mark.parametrize("config,flags", [
        ({"samples": 2.5}, ()),
        ({"N_list": "64"}, ()),
        ({}, ("--epsilon", "nan")),
        ({"g_spec": 5}, ()),
    ] + [
        # every field with wrongly typed JSON values: the config's own checks
        # refuse each as a ValueError, so none reaches the sweep or exits 2
        pytest.param({field: json.loads(text)}, (), id=f"{field}={text}")
        for fields, texts in [
            (["family", "g_spec", "h_spec"], ["null", "5", "true", '["(1 2)"]']),
            (["alpha", "k", "m", "samples", "seed"],
             ["null", "true", "1.5", '"1"', "[1]", "{}", "1e400"]),
            (["N_list"], ["null", "8", '"8"', "{}", "[null]", "[[8]]", "[1e400]"]),
            (["epsilon_list"], ["null", "0.4", '"0.4"', "{}", "[null]", '["0.4"]', "[true]"]),
        ]
        for field in fields for text in texts])
    def test_wrongly_typed_config_value_is_config_error(self, capsys, tmp_path, config, flags):
        data = {"family": "unitary_orthogonal", "alpha": 1, "k": 1, "m": 1, "N_list": [8],
                "epsilon_list": [0.4], "samples": 2, "seed": 1}
        data.update(config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "concentration", "--config", str(path), *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("N", [2**1023, 10**400, 2**1023 - 1, 2**1023 - 2**969],
                             ids=["2^1023", "10^400", "2^1023-1", "2^1023-2^969"])
    @pytest.mark.parametrize("argv", TAIL_SIZE_COMMANDS, ids=[*FAMILY_KINDS, "block-decay"])
    def test_tail_beyond_the_double_range_is_config_error(self, capsys, argv, N):
        # 2N chi-square degrees of freedom overflow a double from N = 2^1023 - 2^969
        code, out, err = run_cli(capsys, *argv, "--N", str(N))
        assert code == 1 and out == ""
        assert err == f"error: every N must be < 2^1023 - 2^969; got N={N}\n"

    @pytest.mark.parametrize("N", [2**1023 - 2**970, 2**1023 - 2**969 - 1],
                             ids=["largest-double", "largest-int"])
    @pytest.mark.parametrize("argv", TAIL_SIZE_COMMANDS, ids=[*FAMILY_KINDS, "block-decay"])
    def test_runs_up_to_the_bound(self, capsys, argv, N):
        code, out, err = run_cli(capsys, *argv, "--N", str(N))
        assert code == 0 and err == ""
        assert str(N) in out.splitlines()[1].split(",")

    @pytest.mark.parametrize("argv", [
        ("sample", "--kind", "permutation", "--dim", "3", "--seed", "1"),
        (*CONC, "--N", "3", "--samples", "2", "--g", "(1 2 3)"),
    ])
    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, _, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert f"cannot write to {path}" in err

    def test_runtime_error_without_text_names_its_type(self, capsys, monkeypatch):
        # MemoryError() has no message; "error: " alone would say nothing
        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr("cosetlab.cli.sym_membership", out_of_memory)
        code, out, err = run_cli(capsys, "membership", "--alpha", "1", "--k", "1", "--N", "3",
                                 "--x", "(1 4)", "--target", "(1 3)")
        assert (code, out, err) == (2, "", "error: MemoryError\n")

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

    def test_readme_config_fields_are_the_config_fields(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = readme.split("the inline flags (`", 1)[1].split("`)", 1)[0]
        assert listed.replace(",", " ").split() == list(ExperimentConfig.__dataclass_fields__)

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        # the cached parser must not carry one call's append lists into the next
        assert _build_parser() is _build_parser()
        base = ("concentration", "--family", "symmetric", "--alpha", "1", "--k", "1",
                "--m", "1", "--samples", "30", "--seed", "3", "--g", "(1 2)", "--h", "(1 2)")

        def rows(*flags):
            code, out, _ = run_cli(capsys, *base, *flags)
            assert code == 0
            return [line.split(",")[4:6] for line in out.splitlines()[1:]]

        first = rows("--N", "3", "--N", "5", "--epsilon", "0.25")
        assert first == [["3", "0.25"], ["5", "0.25"]]
        assert rows("--N", "4", "--epsilon", "0.5", "--epsilon", "0.1") == [
            ["4", "0.5"], ["4", "0.1"]]
        code, _, _ = run_cli(capsys, *base, "--N", "7", "--epsilon", "0.3", "--N", "x")
        assert code == 1
        assert rows("--N", "3", "--N", "5", "--epsilon", "0.25") == first

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

    def test_public_names_resolve(self):
        # every exported name, of the package and of each module, is an
        # attribute, so a deleted helper cannot leave a dangling export
        assert len(set(cosetlab.__all__)) == len(cosetlab.__all__)
        modules = [cosetlab] + [importlib.import_module(f"cosetlab.{info.name}")
                                for info in pkgutil.iter_modules(cosetlab.__path__)]
        for module in modules:
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], module.__name__

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
            assert cosetlab.cli.main(["block-decay", "--k", "1", "--N", "8", "--samples", "30",
                                      "--seed", "1", "--out", os.devnull]) == 0
            cosetlab.eigenvalue_matching_distance([[1j]], [[1]])
            print(json.dumps([n for n in sys.modules if n.split(".")[0] == "scipy"
                              or n.split(".")[:2] == ["numpy", "ma"]]))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        # neither scipy nor numpy.ma, which np.median imports on its first call
        assert json.loads(proc.stdout) == []

    def test_import_loads_no_numpy_random(self):
        # numpy loads numpy.random on first use, and cosetlab first uses it
        # when a RandomStream builds its generator
        script = ("import sys, cosetlab, cosetlab.cli; "
                  "print([n for n in sys.modules if n.startswith('numpy.random')])")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
