import numpy as np
import pytest

from mdncee.convex_solver import _BarrierStack, assemble_primal, solve_primal
from conftest import master_for
from oracles import value_grad
from mdncee.optimizer import build_oa_cuts
from mdncee.outage import RelaySchedule, outage_posynomial
from mdncee.posynomial import Posynomial, segment_logvalues, segment_values, stacked_terms


def random_posynomial(rng, dim=4, terms=7):
    coeffs = rng.lognormal(0.0, 2.0, size=terms)
    expos = rng.integers(-2, 3, size=(terms, dim))
    return Posynomial(coeffs, expos, dim)


def central_diff(f, x, h=1e-6):
    """Central differences of f along each coordinate; column k is df/dx_k."""
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(len(x))]).T


def barrier_of(pos, width=10.0):
    """The barrier stack of minimizing log P over a wide box, with no other constraint."""
    return _BarrierStack(pos, [], [], -width * np.ones(pos.dim), width * np.ones(pos.dim))


def test_parts_values_equal_value_only_bitwise(paper_coeffs):
    # the term-matrix gradient oracle must read the value the primal's
    # feasibility test reads; and Armijo compares a base value from the barrier's derivatives with trial
    # values from its value-only path, so those must agree with logvalue
    rng = np.random.default_rng(11)
    cases = [random_posynomial(rng) for _ in range(20)]
    cases.append(outage_posynomial(paper_coeffs, (0, 1, 2, 3), 2))
    cases.append(Posynomial([], np.zeros((0, 3)), 3))
    for pos in cases:
        stack = barrier_of(pos) if pos.n_terms else None
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, pos.dim)
            assert value_grad(pos, x)[0] == pos.value(x)
            if stack is not None:
                (fv, _, _), _ = stack.derivatives(x)
                assert fv == stack.value(x)[0] == pos.logvalue(x)


def test_value_grad_equals_parts_bitwise(paper_scenario, paper_coeffs):
    # a cut's rows are the parts of the master's outage_value_grad at its
    # anchor, bit for bit: each outage row is one outage's gradient, the
    # objective row their obj_coef-weighted sum, and an energy row w*e^x its
    # own gradient
    s = paper_scenario
    sched = RelaySchedule.from_indices(range(s.N), s.N)
    for scheme in ("mdnc", "nonc"):
        pp = assemble_primal(s, paper_coeffs, sched, target=1e-2, scheme=scheme)
        sol = solve_primal(pp, 800.0)
        master = master_for(s, paper_coeffs, 1e-2, scheme)
        cut = build_oa_cuts(pp, sol, master)
        x = sol.x    # every relay is selected, so the anchor needs no lifting
        values, grads = master.outage_value_grad(x)
        assert cut.A.shape[0] == 2 + len(values)
        objective_grad = master.obj_coef * sum(grads)
        assert cut.A[0, :master.dim].tobytes() == objective_grad.tobytes()
        for k, (value, grad) in enumerate(zip(values, grads), start=1):
            assert cut.A[k, :master.dim].tobytes() == grad.tobytes()
            assert cut.b[k] == float(grad @ x) - float(value - master.target)
        assert cut.energy_row[:master.dim].tobytes() == (master.energy * np.exp(x)).tobytes()
        assert cut.A[-1, :master.dim].tobytes() == (master.budget * np.exp(x)).tobytes()


def test_parts_derivatives_match_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pos = random_posynomial(rng)
        x = rng.uniform(-1.0, 1.0, pos.dim)
        value, grad = value_grad(pos, x)
        assert grad == pytest.approx(central_diff(pos.value, x), rel=1e-6, abs=1e-6 * value)
        # grad log P = grad P / P
        assert grad / value == pytest.approx(central_diff(pos.logvalue, x), abs=1e-7)
        # the barrier's gradient and Hessian of log P
        stack = barrier_of(pos)
        (_, lgrad, lhess), _ = stack.derivatives(x)
        assert lgrad == pytest.approx(central_diff(pos.logvalue, x), abs=1e-7)
        fd_lhess = central_diff(lambda z: stack.derivatives(z)[0][1], x)
        assert lhess == pytest.approx(fd_lhess, abs=1e-7)


def test_parts_of_empty_posynomial():
    empty = Posynomial([], np.zeros((0, 3)), 3)
    value, grad = value_grad(empty, np.ones(3))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(3))
    assert np.array_equal(central_diff(empty.value, np.ones(3)), np.zeros(3))
    # log P of no terms is -inf, with no derivatives for a barrier to use
    assert empty.logvalue(np.ones(3)) == -np.inf
    with pytest.raises(ValueError, match="at least one term"):
        barrier_of(empty)


def test_stacked_segments_equal_standalone_bitwise(paper_coeffs):
    # the barrier evaluates its objective and constraints as one stack, and
    # its interior test must agree with Posynomial.value/logvalue to the bit
    rng = np.random.default_rng(14)
    points = 0
    for _ in range(40):
        dim = int(rng.integers(3, 13))
        stack = [Posynomial(rng.lognormal(0.0, 2.0, size=terms),
                            rng.integers(-3, 4, size=(terms, dim)), dim)
                 for terms in rng.integers(1, 201, size=rng.integers(2, 6))]
        if dim >= 6:
            outage = outage_posynomial(paper_coeffs, (0, 1, 2, 3), 2)
            stack.append(Posynomial(outage.coeffs, np.pad(outage.expos, ((0, 0), (0, dim - 6))),
                                    dim))
        order = rng.permutation(len(stack))
        stack = [stack[k] for k in order]
        expos = np.vstack([pos.expos for pos in stack])
        logc = np.concatenate([pos.logc for pos in stack])
        counts = [pos.n_terms for pos in stack]
        starts = np.cumsum([0] + counts[:-1])
        segment = np.repeat(np.arange(len(stack)), counts)
        for _ in range(2):
            x = rng.uniform(-3.0, 3.0, dim)
            zmax, _, sums = stacked_terms(expos, logc, starts, x, segment)
            logvalues = segment_logvalues(zmax, sums)
            values = segment_values(zmax, sums)
            for k, pos in enumerate(stack):
                assert logvalues[k] == pos.logvalue(x)
                assert values[k] == pos.value(x)
            points += 1
    assert points >= 50
