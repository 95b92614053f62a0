"""Calibrated roofline cost model + ``repro tune`` loop.

Three layers of coverage:

* **model math** — feature extraction, prediction, the planted-roofline
  calibration recovery gate (fit error < 10% on synthetic measurements
  generated by a known model), and the rank diagnostics;
* **artifact** — TunedProfile validate / save / load / plan lookup and
  the explicit-args-win helper views;
* **integration** — PlanCache per-key knob resolution, tuned knobs
  observably reaching built plans, the ``tune_profile`` loop end to end
  on a tiny workload, and StencilService loading a profile with the
  documented precedence and bit-identical outputs.
"""

import json

import numpy as np
import pytest

from repro.core.costmodel import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    BatchFeatures,
    CalibrationSample,
    CostModel,
    KnobConfig,
    TunedPlan,
    TunedProfile,
    batch_features,
    calibrate,
    enumerate_knob_configs,
    rank_agreement,
    rank_correlation,
)
from repro.serve import (
    PlanCache,
    StencilService,
    plan_key_for,
    spec_fingerprint,
    tune_profile,
)
from repro.serve.tuning import (
    default_knob_config,
    format_tune_report,
    measure_batch_ms,
    probe_calibration_samples,
)
from repro.stencil import Grid, named_stencil

VARIANT = "sptc+co"

#: a plausible planted ground truth; serial_frac sits on the calibration
#: grid so exact recovery is possible (the grid is how calibrate searches)
PLANTED = CostModel(
    overhead_s=2.0e-4,
    block_overhead_s=4.0e-6,
    inv_peak=1.5e-9,
    inv_bw=2.5e-10,
    serial_frac=0.2,
)


def _feature_grid(radius=2, grid_shape=(48, 48)):
    """A knob/batch spread wide enough to condition the 5-parameter fit."""
    feats = []
    for batch in (1, 2, 4, 8):
        for threads in (1, 2, 4, 8):
            for width in (64, 1024):
                for mode, steps in (("exact", 1), ("exact", 3), ("fused", 3)):
                    feats.append(
                        batch_features(
                            radius,
                            grid_shape,
                            batch,
                            steps=steps,
                            temporal_mode=mode,
                            mac_threads=threads,
                            mac_col_block=width,
                        )
                    )
    return feats


# ----------------------------------------------------------------------
# features
# ----------------------------------------------------------------------


def test_batch_features_validation():
    with pytest.raises(ValueError, match="batch"):
        batch_features(2, (32, 32), 0)
    with pytest.raises(ValueError, match="steps"):
        batch_features(2, (32, 32), 1, steps=0)


def test_batch_features_scale_with_batch_and_steps():
    f1 = batch_features(2, (48, 48), 1)
    f4 = batch_features(2, (48, 48), 4)
    assert f4.ops > f1.ops and f4.bytes_moved > f1.bytes_moved
    # exact temporal mode pays the per-sweep overhead `steps` times
    f_exact = batch_features(2, (48, 48), 2, steps=4, temporal_mode="exact")
    assert f_exact.batch_overheads == 4
    assert f_exact.ops == pytest.approx(4 * batch_features(2, (48, 48), 2).ops)
    # a fused super-sweep pays it once (on the self-convolved kernel)
    f_fused = batch_features(2, (48, 48), 2, steps=4, temporal_mode="fused")
    assert f_fused.batch_overheads == 1
    assert f_fused.intensity > 0


def test_batch_features_parallel_tracks_threads():
    serial = batch_features(2, (96, 96), 4, mac_threads=1)
    threaded = batch_features(2, (96, 96), 4, mac_threads=4, mac_col_block=64)
    assert serial.parallel == 1
    assert threaded.parallel > 1
    assert threaded.parallel <= 4
    # more effective ways can only add dispatch blocks, never remove them
    assert threaded.n_blocks >= serial.n_blocks


# ----------------------------------------------------------------------
# model + calibration
# ----------------------------------------------------------------------


def test_cost_model_predict_and_bound():
    f_compute = BatchFeatures(
        ops=1e9, bytes_moved=1e3, n_blocks=4, parallel=1, batch_overheads=1
    )
    f_memory = BatchFeatures(
        ops=1e3, bytes_moved=1e9, n_blocks=4, parallel=1, batch_overheads=1
    )
    assert PLANTED.bound(f_compute) == "compute"
    assert PLANTED.bound(f_memory) == "memory"
    assert PLANTED.predict_ms(f_compute) == pytest.approx(
        1e3 * PLANTED.predict_s(f_compute)
    )
    # Amdahl: threads only help the parallel fraction
    par = BatchFeatures(
        ops=1e9, bytes_moved=1e3, n_blocks=4, parallel=8, batch_overheads=1
    )
    assert PLANTED.predict_s(par) < PLANTED.predict_s(f_compute)
    floor = PLANTED.predict_s(f_compute) * PLANTED.serial_frac
    assert PLANTED.predict_s(par) > floor


def test_cost_model_dict_round_trip():
    assert CostModel.from_dict(PLANTED.to_dict()) == PLANTED


def test_calibrate_needs_four_samples():
    f = batch_features(2, (32, 32), 1)
    with pytest.raises(ValueError, match=">= 4"):
        calibrate([CalibrationSample(f, 1e-3)] * 3)


def test_calibration_recovers_planted_roofline():
    """The satellite gate: synthetic measurements generated by a known
    roofline are recovered with < 10% fit error, and the recovered model
    predicts held-in samples within the same band."""
    samples = [
        CalibrationSample(f, PLANTED.predict_s(f), label=f"s{i}")
        for i, f in enumerate(_feature_grid())
    ]
    result = calibrate(samples)
    assert result.n_samples == len(samples)
    assert result.rel_rmse < 0.10, result
    for s in samples:
        pred = result.model.predict_s(s.features)
        assert pred == pytest.approx(s.measured_s, rel=0.10)
    # serial_frac is grid-searched, so exact recovery is expected here
    assert result.model.serial_frac == pytest.approx(PLANTED.serial_frac)


def test_calibration_survives_measurement_noise():
    """5% multiplicative noise (deterministic seed) must not push the fit
    past the 10% gate — real probe measurements are never noise-free."""
    rng = np.random.default_rng(7)
    samples = [
        CalibrationSample(
            f, PLANTED.predict_s(f) * float(rng.uniform(0.95, 1.05))
        )
        for f in _feature_grid()
    ]
    result = calibrate(samples)
    assert result.rel_rmse < 0.10, result


def test_calibration_memory_bound_workload():
    """A pure-memory planted model must not get stuck at inv_bw=0 (the
    all-compute-start failure mode the multi-start fit exists to avoid)."""
    mem = CostModel(
        overhead_s=1e-4,
        block_overhead_s=1e-6,
        inv_peak=1e-12,
        inv_bw=5e-10,
        serial_frac=0.0,
    )
    samples = [CalibrationSample(f, mem.predict_s(f)) for f in _feature_grid()]
    result = calibrate(samples)
    assert result.rel_rmse < 0.10
    assert result.model.inv_bw > 0


def test_model_ranking_matches_planted_measurement():
    """BENCH_mac_threads-style sweep: calibrate on a probe subset, rank
    the full knob grid, and require rank agreement with the (planted)
    measured ordering — the loop ``repro tune`` runs, minus wall clock."""
    configs = enumerate_knob_configs(
        thread_counts=(1, 2, 4, 8), temporal_modes=("exact",)
    )
    assert len(configs) >= 4

    def features_for(cfg, batch):
        return batch_features(
            2,
            (64, 64),
            batch,
            temporal_mode=cfg.temporal_mode,
            mac_threads=cfg.mac_threads,
            mac_col_block=cfg.mac_col_block,
        )

    # probe: a feature-spanning subset, measured by the planted machine
    probe = [c for c in configs if c.mac_threads in (1, 8)]
    samples = [
        CalibrationSample(
            features_for(c, b), PLANTED.predict_s(features_for(c, b))
        )
        for c in probe
        for b in (1, 4, 8)
    ]
    fit = calibrate(samples).model

    predicted = [fit.predict_ms(features_for(c, 8)) for c in configs]
    measured = [PLANTED.predict_ms(features_for(c, 8)) for c in configs]
    assert rank_correlation(predicted, measured) >= 0.8
    assert rank_agreement(predicted, measured)


# ----------------------------------------------------------------------
# rank diagnostics
# ----------------------------------------------------------------------


def test_rank_correlation_basics():
    assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0
    with pytest.raises(ValueError):
        rank_correlation([1.0], [2.0])
    with pytest.raises(ValueError):
        rank_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


def test_rank_agreement_tolerates_near_ties():
    # model picks index 0; measurement says index 1 wins by 2% -> near-tie
    assert rank_agreement([1.0, 2.0], [1.02, 1.0])
    # a 20% measured gap is a real disagreement
    assert not rank_agreement([1.0, 2.0], [1.2, 1.0])
    # exact agreement, trivially
    assert rank_agreement([3.0, 1.0, 2.0], [30.0, 10.0, 20.0])


# ----------------------------------------------------------------------
# knob space
# ----------------------------------------------------------------------


def test_enumerate_knob_configs_properties():
    configs = enumerate_knob_configs(
        thread_counts=(1, 2, 4),
        col_block_widths=(64, 1024),
        temporal_modes=("exact", "fused"),
        batch_caps=(4, 8),
    )
    labels = [c.label for c in configs]
    assert len(labels) == len(set(labels))  # no duplicate points
    assert any(c.mac_threads == 1 for c in configs)  # serial baseline
    # the block split is inert at threads=1: exactly one width per
    # (mode, cap), never one per width
    for mode in ("exact", "fused"):
        for cap in (4, 8):
            serial = [
                c
                for c in configs
                if c.mac_threads == 1
                and c.temporal_mode == mode
                and c.max_batch_size == cap
            ]
            assert len(serial) == 1
    threaded = [c for c in configs if c.mac_threads == 4]
    assert {c.mac_col_block for c in threaded} == {64, 1024}


def test_enumerate_knob_configs_default_includes_serial():
    configs = enumerate_knob_configs(temporal_modes=("exact",))
    assert any(c.mac_threads == 1 for c in configs)
    assert all(c.mac_threads >= 1 for c in configs)


def test_default_knob_config_is_valid():
    cfg = default_knob_config(max_batch_size=8)
    assert cfg.mac_threads >= 1
    assert cfg.temporal_mode == "exact"
    assert cfg.max_batch_size == 8
    assert "exact" in cfg.label


# ----------------------------------------------------------------------
# tuned-profile artifact
# ----------------------------------------------------------------------


def _profile(spec, **plan_knobs) -> TunedProfile:
    fp = spec_fingerprint(spec)
    knobs = {"mac_threads": 2, "mac_col_block": 64, **plan_knobs}
    return TunedProfile(
        model=PLANTED,
        temporal_mode=None,
        max_batch_size=4,
        plans=(
            TunedPlan(
                fingerprint=fp,
                variant=VARIANT,
                precision="exact",
                tile_key=(),
                **knobs,
            ),
        ),
        meta={"source": "unit-test", "winner": "t2-b64-exact-cap4"},
    )


def test_profile_round_trip(tmp_path):
    spec = named_stencil("heat2d")
    prof = _profile(spec)
    path = str(tmp_path / "tuned.json")
    prof.save(path)
    loaded = TunedProfile.load(path)
    assert loaded == prof
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["format"] == PROFILE_FORMAT
    assert doc["version"] == PROFILE_VERSION


def test_profile_validate_lists_all_violations():
    bad = {
        "format": "something-else",
        "version": 99,
        "model": {"overhead_s": 1.0},  # missing the other four keys
        "service": {"temporal_mode": "sideways", "max_batch_size": 0},
        "plans": [
            {"fingerprint": "", "variant": "x", "precision": "exact",
             "mac_threads": 0, "mac_col_block": 1},
        ],
    }
    with pytest.raises(ValueError) as exc:
        TunedProfile.validate(bad)
    msg = str(exc.value)
    for needle in (
        "format",
        "version",
        "model missing keys",
        "temporal_mode",
        "max_batch_size",
        "fingerprint",
        "mac_threads",
        "mac_col_block",
    ):
        assert needle in msg, f"{needle!r} not reported in: {msg}"


def test_profile_from_dict_rejects_bad_format():
    with pytest.raises(ValueError, match="format"):
        TunedProfile.from_dict({"format": "nope", "version": 1})


def test_plan_for_prefers_exact_shape_over_wildcard():
    exact = TunedPlan(
        fingerprint="fp", variant=VARIANT, precision="exact",
        tile_key=(32, 32), mac_threads=4,
    )
    wild = TunedPlan(
        fingerprint="fp", variant=VARIANT, precision="exact",
        tile_key=(), mac_threads=2,
    )
    prof = TunedProfile(plans=(exact, wild))
    hit = prof.plan_for("fp", VARIANT, "exact", (32, 32))
    assert hit is exact
    # any other shape falls through to the wildcard
    assert prof.plan_for("fp", VARIANT, "exact", (64, 64)) is wild
    assert prof.plan_for("other", VARIANT, "exact") is None


def test_profile_explicit_arg_views():
    spec = named_stencil("heat2d")
    prof = _profile(spec)
    no_service = prof.without_service_knobs()
    assert no_service.temporal_mode is None
    assert no_service.max_batch_size is None
    assert no_service.plans == prof.plans
    no_mac = prof.without_mac_knobs()
    assert all(
        p.mac_threads is None and p.mac_col_block is None
        for p in no_mac.plans
    )
    assert no_mac.max_batch_size == prof.max_batch_size


# ----------------------------------------------------------------------
# PlanCache integration
# ----------------------------------------------------------------------


def test_plan_cache_knob_resolution_precedence():
    spec = named_stencil("heat2d")
    fp = spec_fingerprint(spec)
    exact = TunedPlan(
        fingerprint=fp, variant=VARIANT, precision="exact",
        tile_key=(32, 32), mac_threads=4, mac_col_block=128,
    )
    wild = TunedPlan(
        fingerprint=fp, variant=VARIANT, precision="exact",
        tile_key=(), mac_threads=2, mac_col_block=None,
    )
    cache = PlanCache(
        capacity=4, mac_threads=1, mac_col_block=512,
        tuned_plans=[exact, wild],
    )
    assert cache.tuned_plans == (exact, wild)
    # exact tile_key entry wins
    key = plan_key_for(spec, grid_shape=(32, 32))
    assert cache.knobs_for(key) == (4, 128)
    # other shapes hit the wildcard; its None col_block falls back to the
    # cache-wide default field-by-field
    other = plan_key_for(spec, grid_shape=(64, 64))
    assert cache.knobs_for(other) == (2, 512)
    # an untuned spec gets the cache-wide defaults outright
    untuned = plan_key_for(named_stencil("blur2d"), grid_shape=(32, 32))
    assert cache.knobs_for(untuned) == (1, 512)


def test_plan_cache_accepts_pure_data_plans():
    """The process backend ships tuned plans as dicts (picklable under
    every mp start method); the cache must rehydrate them."""
    spec = named_stencil("heat2d")
    plan = TunedPlan(
        fingerprint=spec_fingerprint(spec), variant=VARIANT,
        precision="exact", mac_threads=3,
    )
    cache = PlanCache(capacity=2, tuned_plans=[plan.to_dict()])
    key = plan_key_for(spec, grid_shape=(24, 24))
    assert cache.knobs_for(key)[0] == 3


def test_tuned_knobs_reach_built_plan():
    spec = named_stencil("heat2d")
    plan = TunedPlan(
        fingerprint=spec_fingerprint(spec), variant=VARIANT,
        precision="exact", mac_threads=2, mac_col_block=96,
    )
    cache = PlanCache(capacity=2, mac_threads=1, tuned_plans=[plan])
    try:
        built = cache.get_or_build(
            plan_key_for(spec, grid_shape=(24, 24)), spec=spec
        )
        assert built.executor.mac_threads == 2
        assert built.executor.mac_col_block == 96
        # a spec with no tuned entry keeps the cache-wide default
        other_spec = named_stencil("blur2d")
        other = cache.get_or_build(
            plan_key_for(other_spec, grid_shape=(24, 24)), spec=other_spec
        )
        assert other.executor.mac_threads == 1
    finally:
        cache.release_pools()


# ----------------------------------------------------------------------
# the tune loop on a real (tiny) workload
# ----------------------------------------------------------------------


def test_measure_batch_ms_is_finite_and_positive():
    spec = named_stencil("heat2d")
    cfg = KnobConfig(
        mac_threads=1, mac_col_block=2048,
        temporal_mode="exact", max_batch_size=2,
    )
    ms = measure_batch_ms(spec, (16, 16), cfg, batch=2, repeats=1)
    assert np.isfinite(ms) and ms > 0


def test_probe_configs_span_the_feature_axes():
    configs = enumerate_knob_configs(
        thread_counts=(1, 2, 4), temporal_modes=("exact",)
    )
    spec = named_stencil("heat2d")
    samples, memo = probe_calibration_samples(
        spec, (16, 16), configs, batch_sizes=(1, 2), repeats=1
    )
    assert len(samples) >= 4  # enough to calibrate
    assert len(memo) == len(samples)
    threads_probed = {
        s.features.parallel for s in samples
    }
    assert len(threads_probed) >= 1
    assert all(s.measured_s > 0 for s in samples)


def test_tune_profile_end_to_end(tmp_path):
    """The whole loop: probe -> calibrate -> rank -> cross-check ->
    emit, on a workload small enough for CI.  The winner must be the
    measured argmin of the cross-checked set, and the artifact must
    validate and round-trip."""
    spec = named_stencil("heat2d")
    report = tune_profile(
        spec, (16, 16), batch_sizes=(1, 2), top_k=2, repeats=1
    )
    # calibration really ran
    assert report.profile.model is not None
    assert report.calibration.n_samples >= 4
    # the model ranked every candidate; the cross-checked subset carries
    # measurements and the measured best won
    assert all(c.predicted_ms > 0 for c in report.candidates)
    checked = [
        c
        for c in (*report.candidates, report.default)
        if c.measured_ms is not None
    ]
    assert len(checked) >= 2
    winner = next(c for c in checked if c.config == report.winner)
    assert winner.measured_ms == min(c.measured_ms for c in checked)
    # the default config was cross-checked too (the tuned-vs-default
    # comparison the acceptance gate relies on)
    assert report.default.measured_ms is not None
    # exact + wildcard plan entries, both carrying the winner's knobs
    keys = {p.tile_key for p in report.profile.plans}
    assert () in keys and len(keys) == 2
    for p in report.profile.plans:
        assert p.mac_threads == report.winner.mac_threads
    # artifact round-trip through the validator
    path = str(tmp_path / "tuned.json")
    report.profile.save(path)
    loaded = TunedProfile.load(path)
    assert loaded.plans == report.profile.plans
    assert loaded.meta.get("source") == "repro tune"
    assert loaded.meta.get("winner") == report.winner.label
    # the human-readable report renders every section
    text = format_tune_report(report)
    assert "winner" in text and report.winner.label in text


# ----------------------------------------------------------------------
# StencilService precedence + observability + bit-identity
# ----------------------------------------------------------------------


def test_service_loads_profile_and_reports_it(rng):
    spec = named_stencil("heat2d")
    prof = _profile(spec)
    grid = Grid.random((24, 24), rng)
    with StencilService(workers=0, tuned_profile=prof) as svc:
        out = svc.run(spec, grid)
        st = svc.stats()
        report = svc.format_report()
    assert out.shape == grid.shape
    # profile-level service knobs applied (no explicit args to beat them)
    assert svc.tuned_profile is prof
    assert st.tuned_profile is not None
    assert st.tuned_profile["plans"] == 1
    assert st.tuned_profile["max_batch_size"] == 4
    assert st.tuned_profile["source"] == "unit-test"
    assert "tuned profile" in report
    assert "repro_serve_tuned_plans 1" in st.to_prometheus()


def test_service_accepts_profile_as_dict_and_path(tmp_path, rng):
    spec = named_stencil("heat2d")
    prof = _profile(spec)
    path = str(tmp_path / "tuned.json")
    prof.save(path)
    grid = Grid.random((24, 24), rng)
    for form in (prof.to_dict(), path):
        with StencilService(workers=0, tuned_profile=form) as svc:
            svc.run(spec, grid)
            assert svc.stats().tuned_profile["plans"] == 1


def test_service_without_profile_reports_none(rng):
    with StencilService(workers=0) as svc:
        svc.run(named_stencil("heat2d"), Grid.random((16, 16), rng))
        st = svc.stats()
    assert st.tuned_profile is None
    assert "tuned profile" not in svc_report_text(st)


def svc_report_text(stats):
    from repro.serve import format_service_report

    return format_service_report(stats)


def test_explicit_args_beat_profile(rng):
    spec = named_stencil("heat2d")
    prof = _profile(spec)  # profile says cap 4, mac_threads 2
    grid = Grid.random((24, 24), rng)
    with StencilService(
        workers=0, tuned_profile=prof, temporal_mode="exact",
        mac_threads=1,
    ) as svc:
        svc.run(spec, grid)
        # explicit mac_threads masks the tuned per-plan value: the plan
        # the sync cache built must carry the constructor's knob
        built = svc._sync_cache.get_or_build(
            plan_key_for(spec, grid_shape=grid.shape), spec=spec
        )
        assert built.executor.mac_threads == 1
    # explicit temporal_mode wins over the profile's (None here, but the
    # resolved attribute must reflect the argument)
    assert svc.temporal_mode == "exact"


def test_tuned_profile_outputs_bit_identical(rng):
    """Tuned knobs steer parallelism and batching, never numerics: the
    served bytes must be identical with and without the profile, on the
    sync fallback and on the threaded backend."""
    spec = named_stencil("heat2d")
    prof = _profile(spec)
    arrs = [rng.normal(size=(24, 24)) for _ in range(4)]
    outs = {}
    for name, kwargs in (
        ("default-sync", dict(workers=0)),
        ("tuned-sync", dict(workers=0, tuned_profile=prof)),
        ("default-thread", dict(workers=1, max_wait_s=0.0)),
        ("tuned-thread", dict(workers=1, max_wait_s=0.0, tuned_profile=prof)),
    ):
        with StencilService(**kwargs) as svc:
            outs[name] = [svc.run(spec, Grid(a)) for a in arrs]
            assert svc.stats().telemetry.errors == 0
    base = outs["default-sync"]
    for name, got in outs.items():
        for a, b in zip(base, got):
            assert a.tobytes() == b.tobytes(), name
