"""Recipe round-tripping and compile-plan pickling.

The process-backend serving contract rests on one property: a compile
plan is a *pure function of its recipe* ``(spec, precision, variant,
device, tile shape)``.  These tests pin it down at three layers —

* dict round-trips (`StencilSpec`, `PlanKey`, `DeviceSpec`, `PlanRecipe`)
  are exact, including the coefficient bytes and the routing hash;
* ``pickle.loads(pickle.dumps(plan))`` recompiles an executor whose fused
  output is **bit-identical** to the original executor's per-row
  reference oracle (the seed path `_reference_run`), as a hypothesis
  property over random kernels, precisions and grids;
* plans pickle as recipes: the payload stays small (no workspace arenas,
  no expanded operands) and the rebuilt plan re-establishes workspaces
  lazily on first use.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlanRecipe, SpiderVariant, build_compile_plan
from repro.gpu.device import A100_80GB_PCIE, GENERIC_GPU, DeviceSpec
from repro.serve import PlanKey, plan_key_for
from repro.stencil import Grid, ShapeType, StencilSpec, named_stencil
from repro.stencil.spec import star_mask


def spec_strategy(max_dims: int = 2, max_radius: int = 2):
    """Random star/box StencilSpec values via hypothesis."""

    @st.composite
    def build(draw):
        dims = draw(st.integers(1, max_dims))
        r = draw(st.integers(1, max_radius))
        shape = draw(st.sampled_from([ShapeType.BOX, ShapeType.STAR]))
        side = 2 * r + 1
        n = side**dims
        vals = draw(
            st.lists(
                st.floats(-4, 4, allow_nan=False, width=32),
                min_size=n,
                max_size=n,
            )
        )
        w = np.array(vals, dtype=np.float64).reshape((side,) * dims)
        if shape is ShapeType.STAR and dims > 1:
            w = np.where(star_mask(dims, r), w, 0.0)
        return StencilSpec(shape, dims, r, w)

    return build()


# ----------------------------------------------------------------------
# dict round-trips
# ----------------------------------------------------------------------


def test_spec_dict_roundtrip_named():
    for name in ("heat1d", "heat2d", "blur2d", "wave2d", "heat3d", "blur3d"):
        spec = named_stencil(name)
        again = StencilSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.name == spec.name
        assert again.weights.tobytes() == spec.weights.tobytes()


def test_spec_dict_is_json_compatible():
    spec = named_stencil("wave2d")
    wire = json.dumps(spec.to_dict())
    assert StencilSpec.from_dict(json.loads(wire)) == spec


def test_spec_equality_ignores_name_tag():
    a = named_stencil("heat2d")
    b = a.with_weights(a.weights)
    object.__setattr__(b, "name", "renamed")
    assert a == b and hash(a) == hash(b)
    c = named_stencil("jacobi2d")
    assert a != c
    assert a != "heat2d"


def test_plan_key_dict_roundtrip_preserves_routing():
    key = plan_key_for(named_stencil("blur2d"), grid_shape=(48, 64))
    again = PlanKey.from_dict(key.to_dict())
    assert again == key
    assert again.routing_hash() == key.routing_hash()
    assert json.loads(json.dumps(key.to_dict())) == key.to_dict()


def test_device_dict_roundtrip():
    for dev in (A100_80GB_PCIE, GENERIC_GPU):
        again = DeviceSpec.from_dict(dev.to_dict())
        assert again == dev
        assert json.loads(json.dumps(dev.to_dict())) == dev.to_dict()


def test_plan_recipe_roundtrip_and_build():
    spec = named_stencil("heat2d")
    plan = build_compile_plan(spec, precision="fp16", grid_shape=(32, 40))
    recipe = plan.recipe()
    assert recipe.grid_shape == (32, 40)
    again = PlanRecipe.from_dict(recipe.to_dict())
    assert again == recipe
    rebuilt = again.build()
    assert rebuilt.spec == plan.spec
    assert rebuilt.precision == plan.precision
    assert rebuilt.variant is plan.variant
    assert rebuilt.tile_plan == plan.tile_plan
    assert np.array_equal(
        rebuilt.executor.fused_operator.kernel_compact,
        plan.executor.fused_operator.kernel_compact,
    )


@given(
    spec=spec_strategy(),
    steps=st.integers(1, 4),
    shape=st.sampled_from([(), (32,), (24, 28)]),
)
@settings(max_examples=25, deadline=None)
def test_sweep_aware_key_and_recipe_roundtrip(spec, steps, shape):
    """The sweep-aware PlanKey and PlanRecipe survive the JSON wire format
    exactly: equality, steps, and the routing hash (which deliberately
    ignores steps so super-sweeps share their plain plan's shard)."""
    key = plan_key_for(spec, grid_shape=shape, steps=steps)
    again = PlanKey.from_dict(json.loads(json.dumps(key.to_dict())))
    assert again == key
    assert again.steps == steps
    assert again.routing_hash() == key.routing_hash()
    assert key.routing_hash() == key.base().routing_hash()
    recipe = PlanRecipe(
        spec=spec,
        precision="exact",
        variant=SpiderVariant.SPTC_CO,
        device=GENERIC_GPU,
        grid_shape=shape or None,
        steps=steps,
    )
    again_r = PlanRecipe.from_dict(json.loads(json.dumps(recipe.to_dict())))
    assert again_r == recipe
    assert again_r.steps == steps


# ----------------------------------------------------------------------
# pickle = recipe + recompile
# ----------------------------------------------------------------------


def test_plan_pickles_small_without_workspaces(rng):
    plan = build_compile_plan(named_stencil("blur2d"))
    # serve a few geometries so the arena is populated and accounted
    for shape in ((16, 16), (24, 20)):
        plan.executor.run(Grid.random(shape, rng))
    assert plan.workspace_nbytes() > 0
    blob = pickle.dumps(plan)
    # recipes are pure data: far smaller than one workspace arena
    assert len(blob) < 4096
    restored = pickle.loads(blob)
    # workspaces were not carried; they rebuild lazily on first use
    assert len(restored.executor._workspaces) == 0
    g = Grid.random((16, 16), rng)
    assert restored.executor.run(g).tobytes() == plan.executor.run(g).tobytes()
    assert len(restored.executor._workspaces) == 1


def test_plan_pickle_covers_variants_and_tile_plans(rng):
    g = Grid.random((20, 24), rng)
    for variant in SpiderVariant:
        plan = build_compile_plan(
            named_stencil("wave2d"), variant=variant, grid_shape=(20, 24)
        )
        restored = pickle.loads(pickle.dumps(plan))
        assert restored.variant is variant
        assert restored.tile_plan == plan.tile_plan
        assert restored.executor.run(g).tobytes() == plan.executor.run(g).tobytes()


@given(
    spec=spec_strategy(),
    precision=st.sampled_from(["exact", "fp16"]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=20, deadline=None)
def test_pickled_plan_matches_reference_oracle(spec, precision, seed):
    """`pickle.loads(pickle.dumps(plan))` recompiles to an executor whose
    fused output is bit-identical to the original's reference oracle."""
    assert StencilSpec.from_dict(spec.to_dict()) == spec
    plan = build_compile_plan(spec, precision=precision)
    restored = pickle.loads(pickle.dumps(plan))
    rng = np.random.default_rng(seed)
    shape = (11,) if spec.dims == 1 else (9, 11)
    grid = Grid.random(shape, rng)
    oracle = plan.executor._reference_run([grid])[0]
    out = restored.executor.run(grid)
    assert out.dtype == oracle.dtype
    assert out.tobytes() == oracle.tobytes()


def test_executor_pickle_is_deterministic(rng):
    plan = build_compile_plan(named_stencil("heat3d"))
    ex = pickle.loads(pickle.dumps(plan.executor))
    op0, op1 = plan.executor.fused_operator, ex.fused_operator
    assert np.array_equal(op0.kernel_compact, op1.kernel_compact)
    assert np.array_equal(op0.active_cols, op1.active_cols)
    assert op0.active_kernel_rows == op1.active_kernel_rows
    g = Grid.random((7, 8, 9), rng)
    assert ex.run(g).tobytes() == plan.executor.run(g).tobytes()


def test_fused_operator_pickle_roundtrip(rng):
    for variant in (SpiderVariant.SPTC_CO, SpiderVariant.TC):
        for precision in ("exact", "fp16"):
            plan = build_compile_plan(
                named_stencil("blur2d"), precision=precision, variant=variant
            )
            op = plan.executor.fused_operator
            op2 = pickle.loads(pickle.dumps(op))
            assert op2.use_sptc == op.use_sptc
            assert np.array_equal(op2.kernel_compact, op.kernel_compact)
            x = rng.standard_normal((op.n_x_rows, 8)).astype(
                np.float32 if precision == "fp16" else np.float64
            )
            # a block of 6 output cells; kernel row k reads from cell k % 3
            offsets = [k % 3 for k in range(len(op.active_kernel_rows))]
            accs = []
            for o in (op, op2):
                acc = np.zeros((op.L, 6), dtype=op.acc_dtype)
                scratch = np.empty(op.L * 6, dtype=op.acc_dtype)
                o.execute(x, acc, offsets, scratch)
                accs.append(acc.tobytes())
            assert accs[0] == accs[1]
