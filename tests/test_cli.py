import json

import numpy as np
import pytest
from click.testing import CliRunner

from support import clamped_shift_frame, counterexample_family, example_pair
from wovenframes import Frame, FrameFamily
from wovenframes.cli import main
from wovenframes.io import (
    family_to_dict,
    parse_coefficients_file,
    parse_frame_file,
    parse_operators_file,
)
from wovenframes.errors import (
    DimensionMismatchError,
    EmptyFamilyError,
    ParseError,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_family(path, family):
    doc = family_to_dict(family)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    f, g = example_pair()
    return write_family(tmp_path / "pair.json", FrameFamily([f, g]))


@pytest.fixture
def counter_file(tmp_path):
    return write_family(tmp_path / "counter.json", counterexample_family())


class TestParsing:
    def test_round_trip(self, tmp_path, pair_file):
        fam = parse_frame_file(pair_file)
        again = write_family(tmp_path / "again.json", fam)
        back = parse_frame_file(again)
        assert back.m == fam.m
        for a, b in zip(fam.frames, back.frames):
            assert a.label == b.label
            np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_frame_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_frame_file(tmp_path / "absent.json")

    def test_empty_family(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"dim": 2, "frames": []}))
        with pytest.raises(EmptyFamilyError):
            parse_frame_file(p)

    def test_dim_mismatch(self, tmp_path):
        p = tmp_path / "mismatch.json"
        p.write_text(
            json.dumps({"dim": 3, "frames": [{"label": "F", "vectors": [[1.0, 0.0]]}]})
        )
        with pytest.raises(DimensionMismatchError):
            parse_frame_file(p)

    def test_ragged_frames(self, tmp_path):
        p = tmp_path / "ragged.json"
        p.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "frames": [
                        {"vectors": [[1.0, 0.0], [0.0, 1.0]]},
                        {"vectors": [[1.0, 0.0]]},
                    ],
                }
            )
        )
        with pytest.raises(DimensionMismatchError):
            parse_frame_file(p)

    def test_boolean_dim_exit_two(self, runner, tmp_path):
        p = tmp_path / "bool_dim.json"
        p.write_text(json.dumps({"dim": True, "frames": [{"vectors": [[1.0]]}]}))
        with pytest.raises(ParseError):
            parse_frame_file(p)
        res = runner.invoke(main, ["frames", "info", str(p)])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "parse-error"

    def test_operators_file(self, tmp_path):
        p = tmp_path / "ops.json"
        p.write_text(json.dumps({"operators": [[[1.0, 0.0], [0.0, 1.0]]]}))
        ops = parse_operators_file(p)
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0], np.eye(2))

    def test_coefficients_file(self, tmp_path):
        p = tmp_path / "coeff.json"
        p.write_text(json.dumps({"coefficients": [[0.0], [1.0]]}))
        np.testing.assert_array_equal(parse_coefficients_file(p), [[0.0], [1.0]])


class TestWeaveCheck:
    def test_woven_exit_zero(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "check", pair_file])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["woven"] is True
        assert doc["result"]["partitions_examined"] == 8

    def test_not_woven_exit_one(self, runner, counter_file):
        res = runner.invoke(main, ["weave", "check", counter_file])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["result"]["woven"] is False
        assert doc["result"]["witness_partition"] == [0, 0, 1]

    def test_missing_file_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["weave", "check", str(tmp_path / "absent.json")])
        assert res.exit_code == 2

    def test_cap_exit_two(self, runner, pair_file):
        res = runner.invoke(main, ["--cap", "4", "weave", "check", pair_file])
        assert res.exit_code == 2

    def test_sampled_mode(self, runner, pair_file):
        res = runner.invoke(
            main, ["--samples", "100", "--seed", "3", "weave", "check", pair_file, "--mode", "sample"]
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["mode"] == "sampled"
        assert doc["result"]["seed"] == 3

    def test_byte_identical_reruns(self, runner, pair_file):
        args = ["weave", "check", pair_file]
        outs = {runner.invoke(main, args).output for _ in range(3)}
        assert len(outs) == 1

    def test_thread_count_invariant_output(self, runner, pair_file, tmp_path):
        rng = np.random.default_rng(37)
        # 2^15 words: two scan chunks
        two_chunks = write_family(
            tmp_path / "two_chunks.json",
            FrameFamily([Frame(rng.normal(size=(15, 2))) for _ in range(2)]),
        )
        # identical frames at d=8: all 2^15 weavings tie exactly on lambda_min
        fr = Frame(rng.normal(size=(15, 8)))
        all_tied = write_family(tmp_path / "all_tied.json", FrameFamily([fr, fr]))
        for path, words in ((pair_file, 8), (two_chunks, 2**15), (all_tied, 2**15)):
            one = runner.invoke(main, ["--threads", "1", "weave", "check", path])
            two = runner.invoke(main, ["--threads", "2", "weave", "check", path])
            assert json.loads(one.output)["result"]["partitions_examined"] == words
            assert one.output == two.output

    def test_fewer_than_one_thread_exit_two(self, runner, pair_file):
        # the group validates --threads, --samples and --seed for every mode
        invocations = (
            ["--threads", "0", "weave", "check", pair_file],
            ["--threads", "-5", "weave", "check", pair_file],
            ["--threads", "0", "weave", "check", pair_file, "--mode", "sample"],
            ["--samples", "0", "weave", "check", pair_file],
            ["--seed", "-1", "weave", "check", pair_file, "--mode", "sample"],
        )
        for args in invocations:
            res = runner.invoke(main, args)
            assert res.exit_code == 2
            assert res.stdout == ""
            assert len(res.stderr.splitlines()) == 1
            assert json.loads(res.stderr)["error"] == "invalid-argument"

    def test_sampled_seed_invariance(self, runner, pair_file):
        a = runner.invoke(main, ["--seed", "7", "weave", "check", pair_file, "--mode", "sample"])
        b = runner.invoke(main, ["--seed", "7", "weave", "check", pair_file, "--mode", "sample"])
        assert a.output == b.output


class TestFramesInfo:
    def test_basic(self, runner, pair_file):
        res = runner.invoke(main, ["frames", "info", pair_file])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["dim"] == 2
        assert doc["result"]["num_frames"] == 2
        assert doc["result"]["bessel_upper_bound"] == pytest.approx(6.0)
        first = doc["result"]["frames"][0]
        assert first["is_frame"] is True
        assert first["bounds"]["lower"] == pytest.approx(1.0)


class TestWeaveBounds:
    def test_partition_word(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "bounds", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["bounds"]["lower"] == pytest.approx(1.0)
        assert doc["result"]["bounds"]["upper"] == pytest.approx(3.0)

    def test_bad_partition_exit_two(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "bounds", pair_file, "--partition", "0,2,0"])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "index-out-of-range"


class TestWeaveDual:
    def test_canonical(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "dual", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["kind"] == "canonical"
        np.testing.assert_allclose(
            doc["result"]["dual"]["vectors"],
            [[2 / 3, 1 / 3], [1 / 3, 2 / 3], [1 / 3, -1 / 3]],
            atol=1e-12,
        )

    def test_alternate(self, runner, pair_file, tmp_path):
        coeff = tmp_path / "coeff.json"
        coeff.write_text(json.dumps({"coefficients": [[1.0], [0.0]]}))
        res = runner.invoke(
            main,
            ["weave", "dual", pair_file, "--partition", "0,0,1", "--alternate", str(coeff)],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["kind"] == "alternate"

    def test_tol_must_be_finite_and_nonnegative(self, runner, pair_file, tmp_path):
        # U's rows lie outside ker(T_W): every non-finite tol used to accept it
        coeff = tmp_path / "outside.json"
        coeff.write_text(json.dumps({"coefficients": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}))
        args = ["weave", "dual", pair_file, "--partition", "0,0,1", "--alternate", str(coeff)]
        for tol in ("1e-10", "0"):
            res = runner.invoke(main, ["--tol", tol, *args])
            assert res.exit_code == 2
            assert json.loads(res.stderr)["error"] == "constraint-violated"
        for tol in ("nan", "inf", "-1"):
            res = runner.invoke(main, ["--tol", tol, *args])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert len(res.stderr.splitlines()) == 1
            assert json.loads(res.stderr)["error"] == "invalid-argument"

    def test_singular_weaving_exit_two(self, runner, counter_file):
        res = runner.invoke(main, ["weave", "dual", counter_file, "--partition", "0,0,1"])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "not-a-frame"


class TestWeaveTight:
    def test_tight_pair(self, runner, tmp_path):
        fam = FrameFamily([Frame(np.eye(2), label="F"), Frame(np.eye(2), label="G")])
        path = write_family(tmp_path / "tight.json", fam)
        res = runner.invoke(main, ["weave", "tight", path, "--partition", "0,1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["tight"] is True
        assert doc["result"]["constant"] == pytest.approx(1.0)

    def test_three_frames(self, runner, tmp_path):
        fam = FrameFamily([Frame(s * np.eye(2)) for s in (1.0, 2.0, 3.0)])
        path = write_family(tmp_path / "triple.json", fam)
        res = runner.invoke(main, ["weave", "tight", path, "--partition", "2,2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["constant"] == pytest.approx(9.0)

    def test_not_tight(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "tight", pair_file, "--partition", "0,0,1"])
        assert res.exit_code == 1
        assert json.loads(res.output)["result"]["tight"] is False


class TestCertifyCommand:
    def test_dual_pair_positive(self, runner, tmp_path):
        fam = FrameFamily([Frame(0.5 * np.eye(3), label="F"), Frame(2.0 * np.eye(3), label="G")])
        path = write_family(tmp_path / "scaled.json", fam)
        res = runner.invoke(main, ["certify", "dual-pair", path])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["guaranteed_lower"] == pytest.approx(1 / 8)
        assert doc["result"]["guaranteed_upper"] == pytest.approx(17 / 4)

    def test_dual_canonicals_reject_exit_one(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "dual-canonicals", pair_file])
        assert res.exit_code == 1
        assert json.loads(res.output)["result"]["hypothesis_satisfied"] is False

    def test_positivity_reject(self, runner, tmp_path):
        fam = FrameFamily(
            [clamped_shift_frame(6, (0, 1)), clamped_shift_frame(6, (0, 1, 2))]
        )
        path = write_family(tmp_path / "shift.json", fam)
        res = runner.invoke(main, ["certify", "positivity", path, "--k", "0"])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["result"]["margins"]["min_difference_eigenvalue"] == pytest.approx(-1.0)

    def test_op_characterization(self, runner, pair_file):
        res = runner.invoke(
            main, ["certify", "op-characterization", pair_file, "--universal", "0.4,6"]
        )
        assert res.exit_code == 0

    def test_op_characterization_needs_two_universal_values(self, runner, pair_file):
        for universal in ("3", "1,2,3"):
            res = runner.invoke(
                main, ["certify", "op-characterization", pair_file, "--universal", universal]
            )
            assert res.exit_code == 2
            assert json.loads(res.stderr)["error"] == "invalid-params"

    def test_op_family(self, runner, pair_file, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(
            json.dumps({"operators": [np.eye(2).tolist(), (1.1 * np.eye(2)).tolist()]})
        )
        res = runner.invoke(main, ["certify", "op-family", pair_file, "--ops", str(ops)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["result"]["guaranteed_lower"] == pytest.approx((1 - 0.1 * np.sqrt(3)) ** 2)

    def test_lm_perturb(self, runner, tmp_path):
        f, _ = example_pair()
        fam = FrameFamily([f, Frame(f.vectors.copy(), label="copy")])
        path = write_family(tmp_path / "dup.json", fam)
        res = runner.invoke(
            main, ["certify", "lm-perturb", path, "--k", "0", "--lambda", "0.5", "--mu", "0"]
        )
        assert res.exit_code == 0

    def test_invertible(self, runner, pair_file, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text(
            json.dumps({"operators": [np.eye(2).tolist(), np.eye(2).tolist()]})
        )
        res = runner.invoke(main, ["certify", "invertible", pair_file, "--ops", str(ops)])
        assert res.exit_code == 0

    def test_synthesis_perturb(self, runner, pair_file, tmp_path):
        fam = parse_frame_file(pair_file)
        moved = FrameFamily(
            [Frame(fr.vectors + 1e-3, label=fr.label) for fr in fam.frames]
        )
        other = write_family(tmp_path / "moved.json", moved)
        res = runner.invoke(
            main, ["certify", "synthesis-perturb", pair_file, "--perturbed", other]
        )
        assert res.exit_code == 0

    def test_synthesis_gap(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "synthesis-gap", pair_file, "--k", "0"])
        assert res.exit_code in (0, 1)
        assert json.loads(res.output)["result"]["method"] == "synthesis-gap"

    def test_unknown_method(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "nope", pair_file])
        assert res.exit_code == 2

    def test_missing_required_option(self, runner, pair_file):
        res = runner.invoke(main, ["certify", "op-family", pair_file])
        assert res.exit_code == 2
        assert json.loads(res.stderr)["error"] == "invalid-params"

    def test_not_woven_without_universal(self, runner, counter_file):
        res = runner.invoke(main, ["certify", "dual-canonicals", counter_file])
        assert res.exit_code == 2


class TestReportShape:
    def test_keys_sorted_and_versioned(self, runner, pair_file):
        res = runner.invoke(main, ["weave", "check", pair_file])
        doc = json.loads(res.output)
        assert doc["tool_version"] == "0.1.0"
        assert list(doc) == sorted(doc)
        assert res.output == json.dumps(doc, sort_keys=True, indent=2) + "\n"
