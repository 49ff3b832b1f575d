"""End-to-end acceptance checks.

Each test covers one numbered criterion and reports a pass/fail line in the
terminal summary (see conftest).  Expected numeric constants are either exact
closed-form values or frozen outputs of the independent brute-force route.
"""

import json
import time

import numpy as np
import pytest
from conftest import record_acceptance

from support import (
    CliRunner,
    clamped_shift_frame,
    counterexample_family,
    example_pair,
    family_to_dict,
    random_frame,
    random_woven_family,
)
from wovenframes import (
    Bounds,
    Frame,
    FrameFamily,
    Partition,
    PerturbParams,
    bessel_upper_bound,
    canonical_dual,
    certify_commuting_dual_pair,
    certify_dual_canonicals,
    certify_invertible_stability,
    certify_lm_perturbation,
    certify_operator_family,
    certify_positivity,
    certify_synthesis_gap,
    certify_synthesis_perturbation,
    exhaustive_woven_check,
    frame_bounds,
    is_dual_pair,
    lm_perturbation_min_mu,
    sampled_woven_estimate,
    verify_operator_characterization,
    weave,
    weaving_alternate_dual,
    weaving_canonical_dual,
)
from wovenframes.cli import main
from wovenframes.frames import synthesis
from wovenframes.linalg import operator_norm


@record_acceptance(1, "intro counterexample detected with witness (0,0,1)")
def test_criterion_1_intro_counterexample():
    start = time.perf_counter()
    report = exhaustive_woven_check(counterexample_family())
    elapsed = time.perf_counter() - start
    assert not report.woven
    assert report.witness_partition.assignment == (0, 0, 1)
    assert report.universal_lower < 1e-10
    assert elapsed < 1.0


@record_acceptance(2, "two-frame pair: exact duals, witness matrix, wovenness")
def test_criterion_2_exact_dual_values():
    start = time.perf_counter()
    f, g = example_pair()
    dual_f = canonical_dual(f)
    dual_g = canonical_dual(g)
    np.testing.assert_allclose(dual_f.vectors[0], [2 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(dual_f.vectors[1], [-1 / 3, 2 / 3], atol=1e-12)
    np.testing.assert_allclose(dual_g.vectors[2], [1 / 3, -1 / 2], atol=1e-12)
    # mixing the two canonical duals along the (0,0,1) split is NOT a dual of
    # the corresponding weaving
    family = FrameFamily([f, g])
    w = weave(family, Partition((0, 0, 1), 2))
    mixed = Frame(np.vstack([dual_f.vectors[:2], dual_g.vectors[2:]]))
    ok, witness = is_dual_pair(w, mixed)
    assert not ok
    np.testing.assert_allclose(witness, [[1, -5 / 6], [-2 / 3, 7 / 6]], atol=1e-12)
    assert exhaustive_woven_check(family).woven
    assert exhaustive_woven_check(FrameFamily([dual_f, dual_g])).woven
    assert time.perf_counter() - start < 1.0


@record_acceptance(3, "scaled-basis pair at d=8: exact universal bounds (1/4, 4)")
def test_criterion_3_scaled_basis_bounds():
    start = time.perf_counter()
    f = Frame(0.5 * np.eye(8))
    g = Frame(2.0 * np.eye(8))
    report = exhaustive_woven_check(FrameFamily([f, g]))
    assert report.woven
    assert report.partitions_examined == 256
    assert abs(report.universal_lower - 0.25) <= 1e-12
    assert abs(report.universal_upper - 4.0) <= 1e-12
    cert = certify_commuting_dual_pair(f, g)
    assert cert.hypothesis_satisfied
    assert cert.guaranteed_lower == pytest.approx(1 / 8, abs=1e-12)
    assert cert.guaranteed_upper == pytest.approx(17 / 4, abs=1e-12)
    assert report.universal_lower >= cert.guaranteed_lower - 1e-9
    assert report.universal_upper <= cert.guaranteed_upper + 1e-9
    assert time.perf_counter() - start < 1.0


@record_acceptance(4, "every weaving upper bound stays below the Bessel sum")
def test_criterion_4_bessel_sum_dominates():
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = int(rng.integers(2, 4))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d, 9))
        family = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
        cap = sum(frame_bounds(fr).upper for fr in family.frames)
        report = exhaustive_woven_check(family)
        assert report.universal_upper <= cap + 1e-9


@record_acceptance(5, "canonical and alternate weaving duals reconstruct exactly")
def test_criterion_5_weaving_duality():
    rng = np.random.default_rng(103)
    done = 0
    while done < 100:
        m = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d, 7))
        family, _ = random_woven_family(rng, m, n, d)
        p = Partition(tuple(rng.integers(0, m, size=n)), m)
        w = weave(family, p)
        dual = weaving_canonical_dual(family, p)
        assert operator_norm(synthesis(w) @ synthesis(dual).T - np.eye(d)) <= 1e-10
        if n > d:
            rank = np.linalg.matrix_rank(w.vectors)
            coeffs = rng.normal(size=(d, n - rank))
            alt = weaving_alternate_dual(family, p, coeffs)
            assert np.max(np.abs(alt.vectors - dual.vectors)) > 0.0
            assert operator_norm(synthesis(w) @ synthesis(alt).T - np.eye(d)) <= 1e-10
        done += 1


def _confirm(cert, family):
    """Oracle cross-check: woven, and its exact bounds dominate the guarantee."""
    report = exhaustive_woven_check(family)
    assert report.woven
    assert cert.guaranteed_lower is not None and cert.guaranteed_lower > 0
    assert report.universal_lower >= cert.guaranteed_lower - 1e-9
    assert report.universal_upper <= cert.guaranteed_upper + 1e-9


def _rand_dims(rng):
    d = int(rng.integers(1, 5))
    n = int(rng.integers(d, 7))
    m = int(rng.integers(2, 4))
    return m, n, d


def _sweep(rng, make_instance, count=200, max_attempts=2000):
    """Run one certifier generator until ``count`` accepted instances pass."""
    accepted = 0
    for _ in range(max_attempts):
        if make_instance(rng):
            accepted += 1
            if accepted >= count:
                return accepted
    raise AssertionError(f"only {accepted} accepted instances in {max_attempts} tries")


def _sweep_dual_canonicals(rng):
    _, n, d = _rand_dims(rng)
    f = random_frame(rng, n, d, 0.3)
    g = Frame((1.0 + rng.uniform(1e-5, 1e-4)) * f.vectors + 1e-6 * rng.normal(size=(n, d)))
    fam = FrameFamily([f, g])
    report = exhaustive_woven_check(fam)
    if not report.woven:
        return False
    cert = certify_dual_canonicals(f, g, Bounds(report.universal_lower, report.universal_upper))
    if not cert.hypothesis_satisfied or cert.guaranteed_lower is None:
        return False
    _confirm(cert, FrameFamily([canonical_dual(f), canonical_dual(g)]))
    return True


def _sweep_op_characterization(rng):
    m, n, d = _rand_dims(rng)
    family, report = random_woven_family(rng, m, n, d)
    a = 0.9 * report.universal_lower
    cert = verify_operator_characterization(family, a)
    assert cert.hypothesis_satisfied
    _confirm(cert, family)
    return True


def _sweep_dual_pair(rng):
    d = int(rng.integers(1, 5))
    copies = int(rng.integers(1, 3))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    a = rng.uniform(0.5, 1.5, size=(copies, d))
    w = rng.uniform(0.2, 1.0, size=(copies, d))
    w /= w.sum(axis=0)
    f = Frame(np.array([a[l, i] * q[:, i] for l in range(copies) for i in range(d)]))
    g = Frame(np.array([(w[l, i] / a[l, i]) * q[:, i] for l in range(copies) for i in range(d)]))
    cert = certify_commuting_dual_pair(f, g)
    if not cert.hypothesis_satisfied:
        return False
    _confirm(cert, FrameFamily([f, g]))
    return True


def _sweep_op_family(rng):
    m, n, d = _rand_dims(rng)
    f = random_frame(rng, n, d, 0.3)
    ops = [np.eye(d) + 1e-3 * rng.normal(size=(d, d)) for _ in range(m)]
    cert = certify_operator_family(f, ops, 0)
    if not cert.hypothesis_satisfied or cert.guaranteed_lower is None:
        return False
    _confirm(cert, FrameFamily([Frame(f.vectors @ u.T) for u in ops]))
    return True


def _sweep_synthesis_gap(rng):
    m, n, d = _rand_dims(rng)
    base = random_frame(rng, n, d, 0.3)
    family = FrameFamily(
        [base] + [Frame(base.vectors + 1e-3 * rng.normal(size=(n, d))) for _ in range(m - 1)]
    )
    cert = certify_synthesis_gap(family, 0)
    if not cert.hypothesis_satisfied:
        return False
    _confirm(cert, family)
    return True


def _sweep_positivity(rng):
    m, n, d = _rand_dims(rng)
    anchor = random_frame(rng, n, d, 0.3)
    others = [
        Frame(rng.uniform(1.0, 1.5, size=(n, 1)) * anchor.vectors) for _ in range(m - 1)
    ]
    family = FrameFamily([anchor] + others)
    cert = certify_positivity(family, 0)
    if not cert.hypothesis_satisfied or cert.guaranteed_lower is None:
        return False
    _confirm(cert, family)
    return True


def _sweep_lm_perturb(rng):
    m, n, d = _rand_dims(rng)
    anchor = random_frame(rng, n, d, 0.3)
    others = [
        Frame(anchor.vectors + 0.02 * rng.normal(size=(n, d))) for _ in range(m - 1)
    ]
    family = FrameFamily([anchor] + others)
    params = []
    for fr in others:
        lam = float(rng.uniform(0.1, 0.3))
        params.append(PerturbParams(lam, lm_perturbation_min_mu(anchor, fr, lam) + 1e-9))
    cert = certify_lm_perturbation(family, 0, params)
    if not cert.hypothesis_satisfied:
        return False
    _confirm(cert, family)
    return True


def _sweep_invertible(rng):
    m, n, d = _rand_dims(rng)
    family, report = random_woven_family(rng, m, n, d)
    # scalar multiples of a common well-conditioned operator: the aligned
    # regime in which the certificate's lower bound is exact
    base = np.eye(d) + 0.1 * rng.normal(size=(d, d))
    ops = [float(rng.uniform(0.8, 1.25)) * base for _ in range(m)]
    cert, transformed = certify_invertible_stability(
        family, Bounds(report.universal_lower, report.universal_upper), ops
    )
    assert cert.hypothesis_satisfied
    _confirm(cert, transformed)
    return True


def _sweep_synthesis_perturb(rng):
    m, n, d = _rand_dims(rng)
    family, report = random_woven_family(rng, m, n, d)
    uni = Bounds(report.universal_lower, report.universal_upper)
    threshold = uni.lower / (2.0 * np.sqrt(m * uni.upper))
    moved = []
    for fr in family.frames:
        noise = rng.normal(size=(n, d))
        noise *= 0.3 * threshold / operator_norm(noise.T)
        moved.append(Frame(fr.vectors + noise))
    perturbed = FrameFamily(moved)
    cert = certify_synthesis_perturbation(family, perturbed, uni)
    assert cert.hypothesis_satisfied
    _confirm(cert, perturbed)
    return True


@record_acceptance(6, "soundness sweep: 200 accepted instances per certifier")
def test_criterion_6_certifier_soundness_sweep():
    start = time.perf_counter()
    sweeps = {
        107: _sweep_dual_canonicals,
        109: _sweep_op_characterization,
        113: _sweep_dual_pair,
        127: _sweep_op_family,
        131: _sweep_synthesis_gap,
        137: _sweep_positivity,
        139: _sweep_lm_perturb,
        149: _sweep_invertible,
        151: _sweep_synthesis_perturb,
    }
    for seed, sweep in sweeps.items():
        assert _sweep(np.random.default_rng(seed), sweep) >= 200
    assert time.perf_counter() - start < 300.0


@record_acceptance(7, "sufficient conditions reject on woven shift/mixed-dual pairs")
def test_criterion_7_reject_coexists_with_woven():
    # (a) overlapping shift pair at d=6: the per-index positivity test finds
    # eigenvalue -1, yet the pair itself is woven at this truncation
    f = clamped_shift_frame(6, (0, 1))
    g = clamped_shift_frame(6, (0, 1, 2))
    fam = FrameFamily([f, g])
    cert = certify_positivity(fam, 0)
    assert not cert.hypothesis_satisfied
    assert cert.margins["min_difference_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)
    report = exhaustive_woven_check(fam)
    assert report.woven
    assert report.universal_lower == pytest.approx(0.05811636514789597, abs=1e-11)
    # (b) frame-operator closeness test rejects the two-frame pair even though
    # its canonical duals weave
    f2, g2 = example_pair()
    rep2 = exhaustive_woven_check(FrameFamily([f2, g2]))
    cert2 = certify_dual_canonicals(
        f2, g2, Bounds(rep2.universal_lower, rep2.universal_upper)
    )
    assert not cert2.hypothesis_satisfied
    duals = FrameFamily([canonical_dual(f2), canonical_dual(g2)])
    assert exhaustive_woven_check(duals).woven


@record_acceptance(8, "shift triple at d=8: definitions accept, aggregate test rejects")
def test_criterion_8_shift_triple():
    u = clamped_shift_frame(8, (0, 1, 2))
    f = Frame((4 / 3) * u.vectors)
    h = Frame((5 / 6) * u.vectors)
    fam = FrameFamily([f, u, h])
    params = [PerturbParams(1 / 9, 1 / 9), PerturbParams(1 / 4, 2 / 9)]
    # both pairs pass the operator-level perturbation definition outright
    assert lm_perturbation_min_mu(f, u, 1 / 9) <= 1 / 9
    assert lm_perturbation_min_mu(f, h, 1 / 4) <= 2 / 9
    cert = certify_lm_perturbation(fam, 0, params)
    assert cert.margins["lambda_sum"] == pytest.approx(13 / 36, abs=1e-12)
    # at this truncation the anchor's lower bound falls short of the
    # aggregate threshold 12/23, so the certificate is rejected...
    assert not cert.hypothesis_satisfied
    assert cert.margins["threshold"] == pytest.approx(12 / 23, abs=1e-12)
    assert cert.margins["lower_bound_k"] == pytest.approx(0.1254778262105422, abs=1e-11)
    # ...while the family is in fact woven
    report = exhaustive_woven_check(fam)
    assert report.woven
    assert report.universal_lower == pytest.approx(0.04901477586349369, abs=1e-11)
    assert report.universal_upper == pytest.approx(14.56976700117658, abs=1e-9)


@record_acceptance(9, "byte-identical reports across reruns and thread counts")
def test_criterion_9_determinism(tmp_path):
    f, g = example_pair()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(family_to_dict(FrameFamily([f, g]))))
    runner = CliRunner()

    exhaustive = [
        runner.invoke(main, ["--threads", str(t), "weave", "check", str(path)])
        for t in (1, 2, 1)
    ]
    assert all(r.exit_code == 0 for r in exhaustive)
    assert len({r.output for r in exhaustive}) == 1

    sampled = [
        runner.invoke(
            main, ["--seed", "11", "weave", "check", str(path), "--mode", "sample"]
        )
        for _ in range(2)
    ]
    assert all(r.exit_code == 0 for r in sampled)
    assert sampled[0].output == sampled[1].output

    direct = [
        sampled_woven_estimate(FrameFamily([f, g]), samples=500, seed=11)
        for _ in range(2)
    ]
    assert direct[0] == direct[1]
