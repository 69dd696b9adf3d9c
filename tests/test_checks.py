"""Self-check suite used by the CLI check command."""

import dataclasses

from pinkhorn import CheckResult, SolverConfig, checks, pinkhorn, run_checks, sinkhorn, solve_smd

EXPECTED_NAMES = [
    "gradient_finite_difference",
    "projection_geometry",
    "sinkhorn_smd_equivalence",
    "greenkhorn_greedy_smd_equivalence",
    "pinkhorn_descent",
]


def test_all_checks_pass_with_stable_names():
    results = run_checks(seed=0)
    assert [r.name for r in results] == EXPECTED_NAMES
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail


def test_pass_under_other_seeds():
    for seed in (1, 7):
        assert all(r.passed for r in run_checks(seed=seed))


def test_deterministic_for_fixed_seed():
    a = run_checks(seed=5)
    b = run_checks(seed=5)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def test_a_failing_check_is_reported(monkeypatch):
    monkeypatch.setattr(checks, "_check_projections", lambda rng: CheckResult("projection_geometry", False, "forced"))
    results = run_checks(seed=0)
    assert any(not r.passed for r in results)


def test_greenkhorn_check_fails_when_greenkhorn_is_not_greedy_smd(monkeypatch):
    # a sinkhorn report selects no constraints and stops at another plan
    monkeypatch.setattr(checks, "greenkhorn", lambda problem, cfg: sinkhorn(problem, cfg))
    results = {r.name: r for r in run_checks(seed=0)}
    assert not results["greenkhorn_greedy_smd_equivalence"].passed
    assert "differ" in results["greenkhorn_greedy_smd_equivalence"].detail
    assert all(r.passed for name, r in results.items() if name != "greenkhorn_greedy_smd_equivalence")


def test_equivalence_check_fails_when_sinkhorn_ignores_eta(monkeypatch):
    # plain sinkhorn still matches smd at eta 1, but not at eta 1.5
    def plain(problem, cfg, callback=None):
        return sinkhorn(problem, SolverConfig(tol=cfg.tol, max_iter=cfg.max_iter), callback)

    monkeypatch.setattr(checks, "sinkhorn", plain)
    results = {r.name: r for r in run_checks(seed=0)}
    assert not results["sinkhorn_smd_equivalence"].passed
    assert all(r.passed for name, r in results.items() if name != "sinkhorn_smd_equivalence")


def test_pinkhorn_check_fails_when_the_default_eta_is_not_one_over_l(monkeypatch):
    # a default of 0.6 still descends here, but it is not 1/L for L = 2
    def default_0_6(problem, cfg, callback=None):
        return pinkhorn(problem, cfg if cfg.eta is not None else dataclasses.replace(cfg, eta=0.6), callback)

    monkeypatch.setattr(checks, "pinkhorn", default_0_6)
    results = {r.name: r for r in run_checks(seed=0)}
    assert not results["pinkhorn_descent"].passed
    assert "differs from" in results["pinkhorn_descent"].detail
    assert all(r.passed for name, r in results.items() if name != "pinkhorn_descent")


def test_projection_check_fails_when_the_smd_step_is_a_half_step(monkeypatch):
    # eta 0.5 moves toward the hyperplane without reaching it; the greedy
    # runs of the greenkhorn check keep their full step
    def half_step(system, x0, cfg, callback=None):
        if cfg.sampling != "greedy":
            cfg = dataclasses.replace(cfg, eta=0.5)
        return solve_smd(system, x0, cfg, callback)

    monkeypatch.setattr(checks, "solve_smd", half_step)
    results = {r.name: r for r in run_checks(seed=0)}
    assert not results["projection_geometry"].passed
    assert all(r.passed for name, r in results.items() if name != "projection_geometry")
