import json
import math
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridtvc import model
from gridtvc import rng as grng
from gridtvc import trainer
from gridtvc.baseline import init_baseline
from gridtvc.config import config_from_json, config_to_json
from gridtvc.estimator import ESTIMATE_STATUSES, EstimatorConfig, GradEstimate
from gridtvc.gridgen import (
    GridFamilySpec, Normalizer, fit_normalizer, generate_context, load_dataset, normalize,
    write_dataset)
from gridtvc.h2mg import H2MGError, paired_decision
from gridtvc.model import (
    ModelConfig, forward, init_params, load_checkpoint, save_checkpoint)
from gridtvc.policy import PolicyConfig, apply_offsets, most_probable
from gridtvc.powerflow import (
    PROHIBITIVE_COST, SOLVE_STATUSES, SolverOptions, evaluate_objective, evaluate_objectives)
from gridtvc.trainer import TrainConfig, decide, evaluate, evaluate_checkpoint, train

import trainer_reference
from gridfixtures import meshed_grid
from test_model import TINY

SMALL = ModelConfig(latent_dim=8, encoder_out=8, encoder_hidden=(8,),
                    message_hidden=(8,), decoder_hidden=(8,), dt=0.1)
SPEC = GridFamilySpec(bus_count_min=16, bus_count_max=16, twt_count=6,
                      rtc_count=4, rtc_controller_count=3, shunt_count=4,
                      shunt_controller_count=3, generator_count=6,
                      svr_zone_count=2, svr_units_per_zone=2,
                      svr_controller_count=2, line_controller_count=2,
                      controllable_line_count=2)


def leaves(doc, prefix=""):
    for k, v in doc.items():
        if isinstance(v, dict) and k != "samples":
            yield from leaves(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", v


def test_config_round_trip_changes_every_field():
    cfg = TrainConfig(
        learning_rate=2e-3, beta1=0.8, beta2=0.99, eps=1e-6, minibatch=3,
        iterations=7, eval_every=2, eval_limit=5, seed=11, workers=2,
        train_dir="a", val_dir="b", out_dir="c",
        estimator=EstimatorConfig(beta=1e-3, tau=0.2, samples={"line_controller": 2}),
        policy=PolicyConfig(sigma=0.01, binary_offset=-1.0, rtc_offset_scale=1.0,
                            svr_offset=0.01),
        solver=SolverOptions(tolerance=1e-7, max_inner=20, max_outer=50,
                             rtc_deadband=0.01, svr_deadband=1e-4, lambda_v=2.0,
                             lambda_i=3.0, lambda_j=0.2, eps_v=0.1, eps_i=0.2,
                             target_clamp=(0.5, 2.0)),
        model=ModelConfig(latent_dim=4, encoder_out=5, encoder_hidden=(6,),
                          message_hidden=(7, 3), decoder_hidden=(), dt=0.25,
                          leaky_slope=0.2))
    doc = config_to_json(cfg)
    default = dict(leaves(config_to_json(TrainConfig())))
    changed = dict(leaves(doc))
    assert changed.keys() == default.keys()
    assert [k for k in default if changed[k] == default[k]] == []
    back = config_from_json(TrainConfig, json.loads(json.dumps(doc)))
    assert back == cfg
    assert back.solver.target_clamp == (0.5, 2.0)


def test_config_from_json_rejects_unknown_field():
    with pytest.raises(ValueError):
        config_from_json(TrainConfig, {"model": {"latent": 3}})


@pytest.mark.parametrize("name, value", [
    ("learning_rate", 0.0), ("minibatch", 0), ("workers", -1), ("iterations", -1),
    ("eval_every", -2), ("eval_limit", -3), ("beta1", 1.0), ("beta2", 1.0),
    ("eps", 0.0)])
def test_config_refuses_a_bad_value(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name, least", [
    ("minibatch", 1), ("iterations", 0), ("eval_every", 0), ("eval_limit", 0),
    ("seed", None), ("workers", 0)])
@pytest.mark.parametrize("value", [math.nan, 2.5, 4.0, True, "4"])
def test_config_refuses_a_count_that_is_not_an_integer(name, least, value):
    TrainConfig(**{name: 1 if least is None else least})
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", ["learning_rate", "beta1", "beta2", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_a_non_finite_number(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def _adam_inputs(seed):
    params = init_params(TINY, np.random.default_rng(seed))
    return params, trainer.AdamState.zeros(params), np.random.default_rng(seed + 1)


def _random_grad(params, rng):
    return model.ModelParams(params.config, {
        k: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 2)
        for k, a in params.values.items()})


def _copy(params, state):
    return (model.ModelParams(params.config, {k: a.copy() for k, a in params.values.items()}),
            trainer.AdamState({k: a.copy() for k, a in state.m.items()},
                              {k: a.copy() for k, a in state.v.items()}, state.t))


def _same_bits(a, b):
    return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_in_place_adam_matches_the_functional_reference_bit_for_bit():
    cfg = TrainConfig(learning_rate=1e-2, beta1=0.8, beta2=0.99, eps=1e-7)
    params, state, rng = _adam_inputs(40)
    ref_params, ref_state = _copy(params, state)
    for _ in range(5):
        grad = _random_grad(params, rng)
        p_out, s_out, ok = trainer.adam_step(params, grad, state, cfg)
        ref_params, ref_state, ref_ok = trainer_reference.adam_step(
            ref_params, grad, ref_state, cfg)
        assert ok and ref_ok
        assert p_out is params and s_out is state
        assert _same_bits(params.values, ref_params.values)
        assert _same_bits(state.m, ref_state.m)
        assert _same_bits(state.v, ref_state.v)
        assert state.t == ref_state.t
    assert state.t == 5


def test_a_rejected_adam_step_mutates_nothing():
    cfg = TrainConfig(learning_rate=1e-2)
    params, state, rng = _adam_inputs(41)
    params, state, _ = trainer.adam_step(params, _random_grad(params, rng), state, cfg)
    kept_params, kept_state = _copy(params, state)
    grad = _random_grad(params, rng)
    grad.values[sorted(grad.values)[-1]].flat[-1] = np.nan
    p_out, s_out, ok = trainer.adam_step(params, grad, state, cfg)
    assert not ok and p_out is params and s_out is state
    assert _same_bits(params.values, kept_params.values)
    assert _same_bits(state.m, kept_state.m)
    assert _same_bits(state.v, kept_state.v)
    assert state.t == kept_state.t == 1


def test_adam_step_allocates_no_parameter_set():
    # two scratch arrays of one tensor at a time, plus a few KB of Python
    # bookkeeping (the sorted key list, array headers); the functional step
    # allocated new params, m and v dicts (~3.5x the parameter set here)
    params, state, rng = _adam_inputs(42)
    grad = _random_grad(params, rng)
    trainer.adam_step(params, grad, state, TrainConfig())
    largest = max(a.nbytes for a in params.values.values())
    total = sum(a.nbytes for a in params.values.values())
    assert total > 20 * largest
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer.adam_step(params, grad, state, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * largest + 4096


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    contexts = {tag: [generate_context(SPEC, grng.stream(0, tag, i),
                                       origin=f"{tag}-{i:03d}")
                      for i in range(n)]
                for tag, n in (("train", 4), ("val", 2))}
    for tag, xs in contexts.items():
        write_dataset(root / tag, xs, SPEC, 0)
    cfg = TrainConfig(minibatch=2, iterations=3, eval_every=3, eval_limit=1,
                      seed=5, train_dir=str(root / "train"),
                      val_dir=str(root / "val"), out_dir=str(root / "run"),
                      model=SMALL)
    return cfg, train(cfg), root


def test_train_logs_finite_fields_and_writes_loadable_checkpoints(run):
    cfg, summary, _ = run
    lines = [json.loads(line) for line in open(summary["log"])]
    steps = [r for r in lines if "event" not in r]
    evals = [r for r in lines if r.get("event") == "eval"]
    assert [r["iteration"] for r in steps] == [0, 1, 2]
    for r in steps:
        values = [r["mean_f_ref"], r["convergence_rate"], r["param_grad_norm"],
                  *r["grad_norm"].values(), *r["score_norm"].values(),
                  *r["entropy_norm"].values()]
        assert all(math.isfinite(v) for v in values)
    assert len(evals) == 1 and math.isfinite(evals[0]["val_mean_objective"])
    params, meta = load_checkpoint(summary["final_checkpoint"])
    assert params.config == SMALL
    assert meta["iteration"] == cfg.iterations
    best, _ = load_checkpoint(summary["best_checkpoint"])
    assert best.values.keys() == params.values.keys()


def test_evaluate_and_evaluate_checkpoint_on_validation_split(run):
    cfg, summary, root = run
    params, _ = load_checkpoint(summary["final_checkpoint"])
    norm = Normalizer.load(root / "run" / "normalizer.json")
    val = load_dataset(cfg.val_dir)
    report = evaluate(params, val, norm, out_dir=root / "report")
    decisions = {"gnn": [], "init": []}
    for x in val:
        z = apply_offsets(forward(params, normalize(x, norm)), x, PolicyConfig())
        decisions["gnn"].append(most_probable(z))
        decisions["init"].append(init_baseline(x, 0.0))
    results = {name: [evaluate_objective(x, y) for x, y in zip(val, ys)]
               for name, ys in decisions.items()}
    for name, res in results.items():
        assert report[name]["contexts"] == len(val)
        assert 0.0 <= report[name]["convergence_rate"] <= 1.0
        statuses = [r.status for r in res]
        assert report[name]["status"] == {s: statuses.count(s) for s in SOLVE_STATUSES}
        assert report[name]["status"]["converged"] == report[name]["converged"]
        assert report[name]["objective"] == [r.total for r in res]
        assert all(r.total == PROHIBITIVE_COST for r in res if not r.converged)
        totals = [r.total for r in res if r.converged]
        assert report[name]["mean_objective"] == (
            pytest.approx(np.mean(totals)) if totals else None)
    both = [(g.total, i.total) for g, i in zip(results["gnn"], results["init"])
            if g.converged and i.converged]
    paired = report["paired"]
    assert paired["contexts"] == len(both)
    assert paired["gnn_lower"] == sum(g < i for g, i in both)
    for k, name in enumerate(("gnn", "init")):
        mean = paired[f"{name}_mean_objective"]
        assert mean == (pytest.approx(np.mean([t[k] for t in both])) if both else None)
    assert json.loads((root / "report" / "report.json").read_text()) == report
    again = evaluate_checkpoint(summary["final_checkpoint"], cfg.val_dir)
    assert again == report



@pytest.fixture(scope="module")
def offset_run(run):
    cfg, _, root = run
    cfg = replace(cfg, iterations=2, eval_every=1, out_dir=str(root / "offset"),
                  policy=PolicyConfig(svr_offset=0.01))
    return cfg, train(cfg), root


def test_checkpoints_carry_the_svr_offset(offset_run):
    cfg, summary, root = offset_run
    for name in ("ckpt_000001.npz", "ckpt_000002.npz", "ckpt_best.npz",
                 "ckpt_final.npz"):
        _, meta = load_checkpoint(root / "offset" / name)
        assert meta["policy"]["svr_offset"] == 0.01
    params, _ = load_checkpoint(summary["final_checkpoint"])
    norm = Normalizer.load(root / "offset" / "normalizer.json")
    val = load_dataset(cfg.val_dir)
    with_offset = evaluate(params, val, norm, cfg.policy)
    assert evaluate_checkpoint(summary["final_checkpoint"], cfg.val_dir) == with_offset
    without = evaluate(params, val, norm)
    assert with_offset["init"]["svr_setpoint_mean"] == pytest.approx(
        without["init"]["svr_setpoint_mean"] + 0.01)


def test_lever_usage_counts_each_lever():
    x = meshed_grid()
    x2 = x.replace_features({("svr_zone", "zone_0"): {"v_target": 1.03}})
    decisions = [
        paired_decision(x, {"line_controller": [1, 0], "shunt_controller": [1],
                            "svr_controller": [0.02], "rtc_controller": [2]}),
        paired_decision(x2, {"line_controller": [1, 1], "shunt_controller": [0],
                             "svr_controller": [-0.02], "rtc_controller": [0]})]
    usage = trainer._lever_usage(decisions, [x, x2])
    assert usage["pct_lines_opened"] == 75.0
    assert usage["pct_shunts_switched"] == 50.0
    assert usage["svr_setpoint_mean"] == pytest.approx(1.015)  # 1.0+0.02, 1.03-0.02
    assert usage["svr_setpoint_std"] == pytest.approx(0.005)
    assert usage["rtc_category_shares"] == [0.5, 0.0, 0.5, 0.0]
    assert usage["per_lever_usage"] == {"line_controller:lc_0": 1.0,
                                        "line_controller:lc_1": 0.5,
                                        "shunt_controller:sc_0": 0.5}
    assert trainer._lever_usage([], []) == {
        "pct_lines_opened": 0.0, "pct_shunts_switched": 0.0,
        "svr_setpoint_mean": None, "svr_setpoint_std": None,
        "rtc_category_shares": [0.0] * 4, "per_lever_usage": {}}


def capture_configs(monkeypatch):
    """The policy and solver options of each ``evaluate`` call."""
    seen = []
    monkeypatch.setattr(trainer, "evaluate",
                        lambda params, dataset, norm, pol_cfg, solver, *rest:
                        seen.append((pol_cfg, solver)))
    return seen


def test_evaluate_checkpoint_decides_with_the_policy_it_was_trained_with(run, monkeypatch):
    cfg, _, root = run
    cfg = replace(cfg, iterations=1, eval_every=0, out_dir=str(root / "policy"),
                  policy=PolicyConfig(binary_offset=-1.0, rtc_offset_scale=1.0,
                                      svr_offset=0.01))
    summary = train(cfg)
    seen = capture_configs(monkeypatch)
    evaluate_checkpoint(summary["final_checkpoint"], cfg.val_dir)
    assert seen == [(cfg.policy, cfg.solver)]


def test_checkpoint_saved_without_a_policy_evaluates_with_the_default_one(run, monkeypatch):
    cfg, summary, root = run
    params, _ = load_checkpoint(summary["final_checkpoint"])
    norm = Normalizer.load(root / "run" / "normalizer.json")
    out = root / "no_policy"
    out.mkdir()
    save_checkpoint(out / "ckpt.npz", params, norm)
    seen = capture_configs(monkeypatch)
    evaluate_checkpoint(out / "ckpt.npz", cfg.val_dir)
    assert seen == [(PolicyConfig(), SolverOptions())]


def test_a_checkpoint_copied_alone_evaluates_with_the_normalizer_it_carries(
        run, tmp_path):
    cfg, summary, root = run
    shutil.copyfile(summary["final_checkpoint"], tmp_path / "ckpt_final.npz")
    # a decoy where a lookup beside the checkpoint would find it
    decoy = fit_normalizer(load_dataset(cfg.val_dir))
    decoy.save(tmp_path / "normalizer.json")
    norm = Normalizer.load(root / "run" / "normalizer.json")
    assert decoy.to_json() != norm.to_json()
    params, _ = load_checkpoint(summary["final_checkpoint"])
    assert evaluate_checkpoint(tmp_path / "ckpt_final.npz", cfg.val_dir) == evaluate(
        params, load_dataset(cfg.val_dir), norm, cfg.policy, cfg.solver)


def test_the_carried_normalizer_maps_like_the_runs_file(run):
    cfg, summary, root = run
    _, meta = load_checkpoint(summary["final_checkpoint"])
    x = load_dataset(cfg.val_dir)[0]
    carried = normalize(x, Normalizer.from_json(meta["normalizer"]))
    saved = normalize(x, Normalizer.load(root / "run" / "normalizer.json"))
    assert [c for c, _, _ in carried.classes] == [c for c, _, _ in saved.classes]
    for (_, feats, _), (_, want, _) in zip(carried.classes, saved.classes):
        assert feats.shape == want.shape and feats.tobytes() == want.tobytes()


@pytest.mark.parametrize("older", [False, True])
def test_evaluate_checkpoint_refuses_a_checkpoint_without_a_normalizer(
        run, tmp_path, older):
    cfg, summary, root = run
    params, meta = load_checkpoint(summary["final_checkpoint"])
    path = tmp_path / "ckpt.npz"
    if older:
        # as saved before checkpoints carried their normalizer: a hash only
        meta = {**{k: v for k, v in meta.items() if k != "normalizer"},
                "normalizer_hash": "5d0c2b7e9a41f3c8"}
        np.savez(path, __meta__=json.dumps(meta),
                 **{f"param/{k}": v for k, v in params.values.items()})
        assert load_checkpoint(path)[1] == meta
    else:
        save_checkpoint(path, params)
    with pytest.raises(H2MGError, match="carries no normalizer"):
        evaluate_checkpoint(path, cfg.val_dir)


def test_evaluate_checkpoint_scores_with_the_solver_it_was_trained_with(run, monkeypatch):
    cfg, _, root = run
    cfg = replace(cfg, iterations=1, eval_every=0, out_dir=str(root / "solver"),
                  solver=SolverOptions(lambda_j=0.5, target_clamp=(0.5, 2.0)))
    summary = train(cfg)
    _, meta = load_checkpoint(summary["final_checkpoint"])
    assert meta["solver"] == config_to_json(cfg.solver)
    seen = capture_configs(monkeypatch)
    evaluate_checkpoint(summary["final_checkpoint"], cfg.val_dir)
    given = SolverOptions(max_outer=7)
    evaluate_checkpoint(summary["final_checkpoint"], cfg.val_dir, solver=given)
    assert [solver for _, solver in seen] == [cfg.solver, given]


def test_evaluate_checkpoint_decides_with_the_step_it_was_saved_with(run, monkeypatch):
    # The checkpoint says dt = 0.005, not the default 0.2: 200 steps per decision.
    cfg, _, root = run
    params = init_params(replace(SMALL, dt=0.005), np.random.default_rng(3))
    norm = Normalizer.load(root / "run" / "normalizer.json")
    out = root / "old_step"
    out.mkdir()
    save_checkpoint(out / "ckpt.npz", params, norm)
    steps = []

    def spy(p, xs):
        steps.extend([p.config.steps] * len(xs))
        return forward(p, xs)

    monkeypatch.setattr(trainer, "forward", spy)
    report = evaluate_checkpoint(out / "ckpt.npz", cfg.val_dir)
    assert steps == [200] * len(load_dataset(cfg.val_dir))
    assert report == evaluate(params, load_dataset(cfg.val_dir), norm)


def log_records(path):
    return [r for r in map(json.loads, open(path)) if "event" not in r]


def test_train_log_carries_phases_oracle_calls_and_mode_status(run):
    cfg, summary, _ = run
    for r in log_records(summary["log"]):
        assert set(r["phase_s"]) == {"forward", "estimate", "vjp", "adam"}
        assert all(t >= 0.0 for t in r["phase_s"].values())
        assert r["mode_status"].keys() == set(ESTIMATE_STATUSES)
        assert sum(r["mode_status"].values()) == cfg.minibatch
        assert r["mode_status"]["converged"] == round(
            r["convergence_rate"] * cfg.minibatch)
        assert r["oracle_calls"] >= cfg.minibatch
        if r["mode_status"]["converged"] == 0:
            assert r["phase_s"]["vjp"] == 0.0


def test_train_log_sums_the_sample_statuses_of_the_minibatch(run):
    cfg, summary, _ = run
    for r in log_records(summary["log"]):
        assert r["sample_status"].keys() == set(ESTIMATE_STATUSES)
        # every oracle call scores a mode decision or one distinct sample
        assert sum(r["sample_status"].values()) == r["oracle_calls"] - cfg.minibatch
        assert 0.0 <= r["prohibitive_share"] <= 1.0


def test_train_log_divides_the_summed_prohibitive_counts(run, monkeypatch):
    # 0 of 20 and 7 of 25 samples prohibitive: exactly 7/45, which the
    # per-estimate shares 0.0 and 0.28 weighted back by 20 and 25 miss
    cfg, _, root = run
    counts = iter([(20, 0), (25, 7)])

    def canned(x, z, *rest):
        n, prohibitive = next(counts)
        status = {**dict.fromkeys(ESTIMATE_STATUSES, 0),
                  "converged": n - prohibitive, "error": prohibitive}
        return GradEstimate({c: np.zeros_like(a) for c, a in z.items()}, 1.0, True,
                            "converged", status, prohibitive=prohibitive)

    monkeypatch.setattr(trainer, "estimate_gradient", canned)
    [record] = log_records(train(replace(
        cfg, minibatch=2, iterations=1, eval_every=0, out_dir=str(root / "share")))["log"])
    assert sum(record["sample_status"].values()) == 45
    assert record["prohibitive_share"] == 7 / 45


def test_train_log_splits_each_class_norm_into_score_and_entropy_terms(run):
    cfg, _, root = run
    records = log_records(train(replace(
        cfg, iterations=2, eval_every=0, out_dir=str(root / "beta0"),
        estimator=EstimatorConfig(beta=0.0)))["log"])
    assert sum(r["mode_status"]["converged"] for r in records) > 0
    for r in records:
        assert r["score_norm"].keys() == r["entropy_norm"].keys() == r["grad_norm"].keys()
        # with beta 0 the gradient is its entropy term
        assert all(v == 0.0 for v in r["score_norm"].values())
        assert r["entropy_norm"] == r["grad_norm"]
    assert any(v > 0.0 for r in records for v in r["entropy_norm"].values())


def test_train_log_counts_every_oracle_call(run, monkeypatch):
    cfg, _, root = run
    calls = []

    def counting(x, ys, **kwargs):
        calls.append(len(ys))
        return evaluate_objectives(x, ys, **kwargs)

    monkeypatch.setattr(trainer, "evaluate_objectives", counting)
    # no validation, so every decision scored comes from an estimate
    records = log_records(train(replace(cfg, eval_every=0,
                                        out_dir=str(root / "counted")))["log"])
    converged = sum(r["mode_status"]["converged"] for r in records)
    assert converged > 0
    assert sum(r["oracle_calls"] for r in records) == sum(calls)
    # one call for each mode, and one more for the samples of each converged one
    estimates = sum(sum(r["mode_status"].values()) for r in records)
    assert len(calls) == estimates + converged


def test_train_log_names_the_outer_cap_of_a_pinned_context(tmp_path, monkeypatch):
    # With zero parameters the policy's mode is the baseline decision, which
    # hits the outer-loop cap on this context.
    spec = GridFamilySpec()
    for tag, i in (("train", 7), ("val", 0)):
        x = generate_context(spec, grng.stream(0, "val", i), origin=f"val-{i:03d}")
        write_dataset(tmp_path / tag, [x], spec, 0)
    monkeypatch.setattr(trainer, "init_params",
                        lambda config, rng: init_params(config, rng).zeros_like())
    cfg = TrainConfig(minibatch=1, iterations=1, eval_every=0,
                      train_dir=str(tmp_path / "train"), val_dir=str(tmp_path / "val"),
                      out_dir=str(tmp_path / "run"), model=SMALL)
    [record] = log_records(train(cfg)["log"])
    assert record["convergence_rate"] == 0.0
    assert record["mode_status"] == {**{s: 0 for s in ESTIMATE_STATUSES},
                                     "outer_cap": 1}
    assert record["oracle_calls"] == 1
    assert record["phase_s"]["vjp"] == 0.0
    assert all(t >= 0.0 for t in record["phase_s"].values())


def test_worker_pool_trains_exactly_like_in_process(run):
    cfg, _, root = run
    logs, finals = [], []
    for workers in (0, 2):
        c = replace(cfg, iterations=2, eval_every=0, workers=workers,
                    out_dir=str(root / f"workers{workers}"))
        summary = train(c)
        logs.append([{k: v for k, v in r.items() if k != "phase_s"}
                     for r in log_records(summary["log"])])
        finals.append(load_checkpoint(summary["final_checkpoint"])[0])
    assert logs[0] == logs[1]
    assert finals[0].values.keys() == finals[1].values.keys()
    for k, v in finals[0].values.items():
        assert np.array_equal(v, finals[1].values[k]), k


def test_decide_matches_per_context_forwards(run, monkeypatch):
    cfg, summary, root = run
    params, _ = load_checkpoint(summary["final_checkpoint"])
    norm = Normalizer.load(root / "run" / "normalizer.json")
    xs = load_dataset(cfg.val_dir) + load_dataset(cfg.train_dir)[:1]
    pairs = [(x, normalize(x, norm)) for x in xs]
    singles = [most_probable(apply_offsets(forward(params, xn), x, cfg.policy))
               for x, xn in pairs]
    ref = [evaluate_objective(x, y, cfg.solver) for x, y in zip(xs, singles)]
    for chunk in (1, 2, 3):
        monkeypatch.setattr(trainer, "DECIDE_CHUNK", chunk)
        decisions = decide(params, pairs, cfg.policy)
        assert len(decisions) == len(singles)
        for y, y_ref in zip(decisions, singles):
            assert y.keys() == y_ref.keys()
            for cname, v in y_ref.items():
                if cname == "svr_controller":
                    assert y[cname] == pytest.approx(v, rel=1e-12, abs=0.0)
                else:
                    assert y[cname].tolist() == v.tolist()
        res = [evaluate_objective(x, y, cfg.solver) for x, y in zip(xs, decisions)]
        assert float(np.mean([r.total for r in res])) == pytest.approx(
            float(np.mean([r.total for r in ref])), rel=1e-12, abs=0.0)
        assert [r.converged for r in res] == [r.converged for r in ref]


def test_decide_collects_no_checkpoints(run, monkeypatch):
    cfg, summary, root = run
    params, _ = load_checkpoint(summary["final_checkpoint"])
    norm = Normalizer.load(root / "run" / "normalizer.json")
    pairs = [(x, normalize(x, norm)) for x in load_dataset(cfg.val_dir)]
    kept = []
    integrate = model._Engine.integrate

    def spy(self):
        kept.append(self)
        return integrate(self)

    monkeypatch.setattr(model._Engine, "integrate", spy)
    decide(params, pairs, cfg.policy)
    assert len(kept) == math.ceil(len(pairs) / trainer.DECIDE_CHUNK)


def test_train_log_is_on_disk_before_each_adam_step(run, monkeypatch):
    cfg, _, root = run
    log = root / "flushed" / "train_log.jsonl"
    calls = []
    original = trainer.adam_step

    def spy(*args):
        calls.append(len(log.read_text().splitlines()))
        return original(*args)

    monkeypatch.setattr(trainer, "adam_step", spy)
    train(replace(cfg, iterations=3, eval_every=0, out_dir=str(root / "flushed")))
    # at its k-th call (from 0), the records of iterations 0..k-1 are written
    assert calls == [0, 1, 2]
