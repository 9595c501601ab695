"""scheme.run_blocks hands out the steps of a run in the blocks that
core.step_blocks reads from run()'s trajectory, bit for bit, while the run
goes on; run() collects the same blocks.  Its one step system per block,
which serves every solve of the block, gives the states and the collapse
bracket of a fresh system per solve."""

import gc
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from oxidefv import (
    SolverOptions,
    State,
    StepStatus,
    Termination,
    TerminationKind,
    TimeGrid,
    run,
    run_blocks,
    scheme,
    uniform_mesh,
)
from oxidefv import core
from oxidefv.core import discretize_initial, step_blocks
from conftest import make_tc1, make_tc2, make_tc3


def assert_blocks_of_run(params, mesh, grid, opts=SolverOptions()) -> Termination:
    """run_blocks' blocks and termination are those of step_blocks(run(...)),
    with the matching rows of newton_iters and residual_inf; returns the
    termination."""
    traj = run(params, mesh, grid, opts)
    *got, end = run_blocks(params, mesh, grid, opts)
    want = list(step_blocks(traj))
    assert len(got) == len(want)
    for (start, *parts), (want_start, *want_parts) in zip(got, want):
        assert start == want_start
        stop = start + len(want_parts[0])
        want_parts += [traj.newton_iters[start:stop], traj.residual_inf[start:stop]]
        for part, want_part in zip(parts, want_parts):
            assert part.shape == want_part.shape and part.dtype == want_part.dtype
            assert part.tobytes() == want_part.tobytes()
            assert not part.flags.writeable
    assert isinstance(end, Termination)
    assert end == traj.termination
    return end


@pytest.mark.parametrize(
    "budget",
    # one step a block; 7 steps a block, the last block partial; the
    # library's budget (40 steps a block at 100 cells); the whole run in one
    [1, 7 * 102, core._BLOCK_ELEMS, 1 << 30],
)
def test_completed_run(budget, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_ELEMS", budget)
    end = assert_blocks_of_run(make_tc1(), uniform_mesh(100), TimeGrid(1e-2, 150))
    assert end.kind is TerminationKind.COMPLETED


@pytest.mark.parametrize("budget", [None, 1, "to the collapse"])
def test_width_collapse_with_its_bracket(budget, monkeypatch):
    # testcase2's width collapses at a step Newton cannot take; "to the
    # collapse" puts every stored step in one block, so that the failed
    # step would begin the next block, which is not handed out
    params, mesh, grid = make_tc2(), uniform_mesh(100), TimeGrid(1e-2, 200)
    if budget == "to the collapse":
        stored = run(params, mesh, grid).U.shape[0]
        budget = (stored - 1) * (100 + 2)
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_ELEMS", budget)
    end = assert_blocks_of_run(params, mesh, grid)
    assert end.kind is TerminationKind.WIDTH_COLLAPSED and end.bracket is not None


def test_initial_state_alone():
    # three iterations are too few for testcase3's first step: one block
    # of the initial row, as step_blocks yields a one-row trajectory
    end = assert_blocks_of_run(
        make_tc3(), uniform_mesh(50), TimeGrid(1e-2, 10), SolverOptions(max_newton_iters=3)
    )
    assert end.kind is TerminationKind.SOLVER_FAILED and end.step == 1


def test_step_rescued_by_the_continuation(monkeypatch):
    # Newton fails every step from the initial position, so the
    # continuation takes the first step
    solve = scheme._newton_step
    calls = []

    def first_fails(system, *args, **kwargs):
        solved = solve(system, *args, **kwargs)
        if system.prev.X0 == 0.0:
            solved = replace(solved, end=None, status=StepStatus.NO_CONVERGENCE)
        return solved

    def counted(*args, **kwargs):
        calls.append(1)
        return continuation(*args, **kwargs)

    continuation = scheme._continuation
    monkeypatch.setattr(scheme, "_newton_step", first_fails)
    monkeypatch.setattr(scheme, "_continuation", counted)
    monkeypatch.setattr(core, "_BLOCK_ELEMS", 3 * 22)
    end = assert_blocks_of_run(make_tc1(), uniform_mesh(20), TimeGrid(1e-2, 8))
    assert end.kind is TerminationKind.COMPLETED
    # once for run(), once for run_blocks
    assert len(calls) == 2


def test_blocks_are_the_readers_own(monkeypatch):
    # a block kept while the run goes on is not written again
    monkeypatch.setattr(core, "_BLOCK_ELEMS", 1)
    blocks = run_blocks(make_tc1(), uniform_mesh(10), TimeGrid(1e-2, 5))
    first = next(blocks)
    kept = first[1].copy()
    deque(blocks, maxlen=0)
    assert first[1].tobytes() == kept.tobytes()


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(initial_state=State(np.ones(5), 0.0, 1.0, 1.0)), "does not match the mesh"),
        (dict(opts=SolverOptions(width_floor=2.0)), "at or below the width floor"),
    ],
    ids=["off-the-mesh", "below-the-floor"],
)
def test_bad_arguments_raise_at_the_call(kwargs, message, monkeypatch):
    # checked when run_blocks is called, before any block is asked for and
    # before any step is solved
    def no_step(*args, **kwargs):
        raise AssertionError("a step was solved")

    monkeypatch.setattr(scheme, "_newton_step", no_step)
    with pytest.raises(ValueError, match=message):
        run_blocks(make_tc1(), uniform_mesh(10), TimeGrid(1e-2, 5), **kwargs)


def reference_bracket(prev, mesh, dt, params, opts):
    """The collapse time's bracket (lo, hi) within a step of size dt from
    prev: bisection of (0, dt] down to 1e-10 * dt, each probe
    newton_step_solve's, on a fresh step system."""
    lo, hi = 0.0, dt
    while hi - lo > 1e-10 * dt:
        mid = 0.5 * (lo + hi)
        if scheme.newton_step_solve(prev, mesh, mid, params, opts).status is StepStatus.CONVERGED:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_run(params, mesh, grid, fails=(), opts=SolverOptions()):
    """run()'s loop with a fresh step system for each solve: each step is
    newton_step_solve's, or the continuation's when Newton does not
    converge or its step number is in fails, and a collapse is bracketed by
    reference_bracket.  Returns the columns U, X0, X1, L, newton_iters and
    residual_inf and the Termination."""
    dt, floor = grid.dt, opts.resolved_floor(params)
    prev = discretize_initial(params, mesh)
    rows = [(prev.u, prev.X0, prev.X1, prev.L, 0, np.nan)]
    termination = Termination(TerminationKind.COMPLETED)
    for n in range(1, grid.n_steps + 1):
        result = scheme.newton_step_solve(prev, mesh, dt, params, opts)
        if n in fails:
            result = replace(result, state=None, status=StepStatus.NO_CONVERGENCE)
        if result.status is StepStatus.NO_CONVERGENCE:
            result = scheme.homotopy_solve(prev, mesh, dt, params, opts)
        if result.status is StepStatus.WIDTH_COLLAPSED:
            lo, hi = reference_bracket(prev, mesh, dt, params, opts)
            bracket = ((n - 1) * dt + lo, (n - 1) * dt + hi)
            termination = Termination(TerminationKind.WIDTH_COLLAPSED, step=n, bracket=bracket)
            break
        if result.status is not StepStatus.CONVERGED:
            termination = Termination(TerminationKind.SOLVER_FAILED, step=n)
            break
        prev = result.state
        rows.append((prev.u, prev.X0, prev.X1, prev.L, result.iterations, result.residual_inf))
        if prev.L <= 2.0 * floor:
            termination = Termination(TerminationKind.WIDTH_COLLAPSED, step=n)
            break
    U, X0, X1, L, iters, resid = zip(*rows)
    columns = (np.stack(U), np.array(X0), np.array(X1), np.array(L), np.array(iters),
               np.array(resid))
    return columns, termination


@pytest.mark.parametrize(
    "make, steps, fails, kind",
    [
        # rescues at the first steps of the first and second blocks and in
        # the middle of the second
        (make_tc1, 30, (1, 11, 15), TerminationKind.COMPLETED),
        # Newton's collapse at step 149, the ninth of its block
        (make_tc2, 350, (), TerminationKind.WIDTH_COLLAPSED),
    ],
    ids=["rescues", "collapse"],
)
def test_run_repeats_a_fresh_system_per_step(make, steps, fails, kind, monkeypatch):
    params, mesh, grid = make(), uniform_mesh(400), TimeGrid(1e-2, steps)
    assert core._block_steps(402) == 10
    want, termination = reference_run(params, mesh, grid, fails)
    # the time loop's n-th Newton solve is step n's
    solve, solved, rescued = scheme._newton_step, [], []

    def failing(system, *args):
        outcome = solve(system, *args)
        solved.append(1)
        if len(solved) in fails:
            outcome = replace(outcome, end=None, status=StepStatus.NO_CONVERGENCE)
        return outcome

    def counted(*args, **kwargs):
        rescued.append(len(solved))
        return continuation(*args, **kwargs)

    continuation = scheme._continuation
    monkeypatch.setattr(scheme, "_newton_step", failing)
    monkeypatch.setattr(scheme, "_continuation", counted)
    traj = run(params, mesh, grid)
    assert rescued == list(fails)
    assert traj.termination == termination and termination.kind is kind
    if kind is TerminationKind.WIDTH_COLLAPSED:
        assert termination.step == 149 and termination.bracket is not None
    got = (traj.U, traj.X0, traj.X1, traj.L, traj.newton_iters, traj.residual_inf)
    for name, g, w in zip(("U", "X0", "X1", "L", "newton_iters", "residual_inf"), got, want):
        assert np.array_equal(g, w, equal_nan=True), name


def live_step_systems() -> int:
    gc.collect()
    return sum(isinstance(obj, scheme._StepSystem) for obj in gc.get_objects())


def test_suspended_generator_holds_no_step_system():
    # a reader that keeps the generator waiting keeps no workspace alive
    before = live_step_systems()
    blocks = run_blocks(make_tc1(), uniform_mesh(100), TimeGrid(1e-2, 100))
    handed = 0
    for block in blocks:
        assert live_step_systems() == before
        handed += 1
    assert handed == 4 and isinstance(block, Termination)


@pytest.mark.parametrize(
    "cells, dt, step, blocks",
    [
        # the collapse workload: Newton's collapse at step 149, in the 15th
        # block, then the bisection's probes
        (400, 1e-2, 149, 15),
        # the continuation walks step 6 into the collapse, then the
        # bisection's probes, all in the run's one block
        (50, 0.25, 6, 1),
    ],
    ids=["newton-collapse", "continuation-collapse"],
)
def test_one_step_system_per_block(cells, dt, step, blocks, monkeypatch):
    built = []
    init = scheme._StepSystem.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(scheme._StepSystem, "__init__", counted)
    traj = run(make_tc2(), uniform_mesh(cells), TimeGrid.from_step_and_horizon(dt, 5.0))
    term = traj.termination
    assert term.kind is TerminationKind.WIDTH_COLLAPSED and term.step == step
    assert term.bracket is not None
    # the blocks stepped up to the collapse
    assert math.ceil(step / core._block_steps(cells + 2)) == blocks
    assert len(built) == blocks
