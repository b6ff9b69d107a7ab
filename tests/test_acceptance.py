"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import time

import numpy as np
import pytest

from ensmbo.ascent import AscentConfig, Combiner, ascend_batch
from ensmbo.combine import (
    CagradConfig,
    GradientSet,
    combine_mean,
    solve_cagrad_dual,
    solve_mgda_dual,
)
from ensmbo.core import DesignSpace
from ensmbo.harness import ExperimentConfig, _aggregate, persist_report, run_experiment
from ensmbo.nn import Ensemble, TrainConfig, init_mlp

from helpers import (
    QuadraticModel,
    improvement_rate,
    solve_cagrad_primal_reference,
    solve_mgda_primal_reference,
)

N_INSTANCES = 1000
CAGRAD_CS = (0.2, 0.3, 0.5)


def _instances(seed=20240501):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(N_INSTANCES):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        out.append((i, GradientSet(grads=rng.standard_normal((m, n)))))
    return out


@pytest.fixture(scope="module")
def random_suite():
    instances = _instances()
    solved = []
    for i, gs in instances:
        c = CAGRAD_CS[i % 3]
        solved.append(
            (gs, c, solve_mgda_dual(gs), solve_cagrad_dual(gs, CagradConfig(c)))
        )
    return solved


def _p(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_primal_dual_equivalence(random_suite):
    t0 = time.perf_counter()
    worst_mgda = worst_cagrad = 0.0
    for gs, c, mgda_out, cagrad_out in random_suite:
        grads = gs.grads

        def mgda_value(d):
            return float(np.min(grads @ d)) - 0.5 * float(d @ d)

        ref = solve_mgda_primal_reference(gs)
        gap = abs(mgda_value(mgda_out.d) - mgda_value(ref.d))
        worst_mgda = max(worst_mgda, gap)

        ref_c = solve_cagrad_primal_reference(gs, CagradConfig(c))
        gap_c = abs(improvement_rate(gs, cagrad_out.d) - improvement_rate(gs, ref_c.d))
        worst_cagrad = max(worst_cagrad, gap_c)
    elapsed = time.perf_counter() - t0
    assert worst_mgda <= 1e-4
    assert worst_cagrad <= 1e-4
    assert elapsed < 60.0
    _p(f"ACCEPTANCE 1 primal-dual equivalence: PASS "
       f"({N_INSTANCES} instances, worst gaps mgda={worst_mgda:.2e} "
       f"cagrad={worst_cagrad:.2e}, {elapsed:.1f}s)")


def test_criterion_2_mgda_kkt(random_suite):
    for gs, _c, mgda_out, _ in random_suite:
        d = mgda_out.d
        dd = float(d @ d)
        inner = gs.grads @ d
        assert np.all(inner >= dd - 1e-6 * (1.0 + dd))
        w = mgda_out.weights.w
        assert w.min() >= -1e-10
        assert abs(w.sum() - 1.0) <= 1e-10
    _p(f"ACCEPTANCE 2 MGDA KKT suite: PASS ({N_INSTANCES} instances)")


def test_criterion_3_cagrad_feasibility_and_limits(random_suite):
    for gs, c, _m, cagrad_out in random_suite:
        g0 = gs.mean_grad
        assert (np.linalg.norm(cagrad_out.d - g0)
                <= c * np.linalg.norm(g0) * (1.0 + 1e-6))
    rng = np.random.default_rng(7)
    for _ in range(50):
        gs = GradientSet(grads=rng.standard_normal((4, 6)))
        out = solve_cagrad_dual(gs, CagradConfig(0.0))
        assert np.allclose(out.d, combine_mean(gs).d, atol=1e-8)
    for _ in range(50):
        g = rng.standard_normal(5)
        out = solve_cagrad_dual(GradientSet(grads=g[None, :]), CagradConfig(0.5))
        assert np.allclose(out.d, 1.5 * g, atol=1e-6 * max(1.0, np.linalg.norm(g)))
    _p("ACCEPTANCE 3 CAGrad feasibility and limits: PASS")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(99)
    h = 1e-5
    checked = 0
    worst = 0.0
    while checked < 200:
        dim = int(rng.integers(2, 12))
        model = init_mlp(dim, (16, 16), rng)
        x = rng.standard_normal(dim)
        # reject points near ReLU kinks
        a, near_kink = x, False
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = a @ w + b
            if np.min(np.abs(z)) < 1e-3:
                near_kink = True
                break
            a = np.maximum(z, 0.0)
        if near_kink:
            continue
        g = model.value_and_grad_rows(x[None])[1][0]
        fd = np.empty(dim)
        for i in range(dim):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (model.forward(xp) - model.forward(xm)) / (2.0 * h)
        rel = np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6))
        worst = max(worst, rel)
        assert rel < 1e-4
        checked += 1
    _p(f"ACCEPTANCE 4 gradient correctness: PASS (200 pairs, worst rel err {worst:.2e})")


@pytest.mark.slow
def test_criterion_5_convergence_sanity():
    rng = np.random.default_rng(5)
    targets = rng.standard_normal((5, 4))
    ens = Ensemble(models=[QuadraticModel(t) for t in targets])
    space = DesignSpace.continuous(4, mean=np.zeros(4), std=np.ones(4))
    start = targets.mean(axis=0) + np.array([3.0, -2.0, 1.5, 2.5])

    cfg = AscentConfig(steps=10_000, alpha=0.05, combiner=Combiner.CAGRAD, cagrad_c=0.5)
    traj = ascend_batch([start], space, ens, cfg)[0]
    avg_grad = np.mean([m.input_gradient(traj.final) for m in ens.models], axis=0)
    cagrad_norm = float(np.linalg.norm(avg_grad))
    assert cagrad_norm < 1e-3

    cfg = AscentConfig(steps=10_000, alpha=0.05, combiner=Combiner.MGDA)
    traj = ascend_batch([start], space, ens, cfg)[0]
    finals = GradientSet(grads=np.stack([m.input_gradient(traj.final) for m in ens.models]))
    hull_min_norm = float(np.linalg.norm(solve_mgda_dual(finals).d))
    assert hull_min_norm < 1e-3
    _p(f"ACCEPTANCE 5 convergence sanity: PASS (cagrad avg-grad {cagrad_norm:.2e}, "
       f"mgda hull min-norm {hull_min_norm:.2e})")


SEEDS = (101, 102, 103, 104, 105)


@pytest.mark.slow
def test_criterion_6_directional_reproduction():
    t0 = time.perf_counter()
    details = []
    for task_name in ("minibind", "ridge"):
        cfg = ExperimentConfig(task=task_name, task_seed=0, run_seeds=SEEDS)
        report = run_experiment(cfg)
        agg = _aggregate(report.payload)
        single_mean = agg["single"]["mean"][0]
        single_p50 = agg["single"]["p50"][0]
        for alg in ("mgda", "cagrad"):
            assert agg[alg]["mean"][0] >= single_mean, (task_name, alg, "mean")
            assert agg[alg]["p50"][0] >= single_p50, (task_name, alg, "p50")
        for alg in ("mean", "min", "mgda", "cagrad"):
            assert agg[alg]["max_norm"][0] >= report.payload["baseline_norm"], (task_name, alg)
        details.append(
            f"{task_name}: single mean={single_mean:.3f} p50={single_p50:.3f}; "
            f"mgda mean={agg['mgda']['mean'][0]:.3f} p50={agg['mgda']['p50'][0]:.3f}; "
            f"cagrad mean={agg['cagrad']['mean'][0]:.3f} p50={agg['cagrad']['p50'][0]:.3f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _p(f"ACCEPTANCE 6 directional reproduction over {len(SEEDS)} seeds: PASS "
       f"({'; '.join(details)}; {elapsed:.0f}s)")


def test_criterion_7_protocol_fidelity(tmp_path):
    cfg = ExperimentConfig(
        task="bowl", task_seed=5, n_candidates=128, steps=3,
        train=TrainConfig(epochs=2, batch_size=256),
    )
    report = run_experiment(cfg)
    assert report.payload["oracle_calls"]["training_and_ascent"] == 0
    assert report.payload["oracle_calls"]["evaluation"] == 128 * 5

    # tuning path never touches the oracle
    from ensmbo.harness import cli_main

    code = cli_main([
        "tune", "--task", "bowl", "--seed", "5", "--m", "2", "--epochs", "2",
        "--steps", "5", "--combiner", "mgda", "--out", str(tmp_path),
    ])
    assert code == 0
    _p("ACCEPTANCE 7 protocol fidelity: PASS (0 calls train/tune, 640 eval calls)")


def test_criterion_8_determinism(tmp_path):
    cfg = ExperimentConfig(
        task="bowl", task_seed=9, ensemble_size=3, n_candidates=16, steps=10,
        train=TrainConfig(epochs=3, batch_size=256),
    )
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    persist_report(run_experiment(cfg), d1)
    persist_report(run_experiment(cfg), d2)
    names = sorted(p.name for p in d1.iterdir() if p.name != "timings.json")
    assert names == sorted(p.name for p in d2.iterdir() if p.name != "timings.json")
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    _p(f"ACCEPTANCE 8 determinism: PASS ({len(names)} byte-identical artifacts)")
