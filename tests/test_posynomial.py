import numpy as np
import pytest

from mdncee.outage import outage_posynomial
from mdncee.posynomial import Posynomial, segment_logvalues, segment_values, stacked_terms


def random_posynomial(rng, dim=4, terms=7):
    coeffs = rng.lognormal(0.0, 2.0, size=terms)
    expos = rng.integers(-2, 3, size=(terms, dim))
    return Posynomial(coeffs, expos, dim)


def central_diff(f, x, h=1e-6):
    """Central differences of f along each coordinate; column k is df/dx_k."""
    return np.array([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(len(x))]).T


def test_parts_values_equal_value_only_bitwise(paper_coeffs):
    # Armijo compares a base value from log_parts with trial values from
    # logvalue, so the two must agree to the last bit
    rng = np.random.default_rng(11)
    cases = [random_posynomial(rng) for _ in range(20)]
    cases.append(outage_posynomial(paper_coeffs, (0, 1, 2, 3), 2))
    for pos in cases:
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, pos.dim)
            assert pos.log_parts(x)[0] == pos.logvalue(x)
            assert pos.parts(x)[0] == pos.value(x)


def test_value_grad_equals_parts_bitwise(paper_coeffs):
    # cuts use value_grad where they used parts: their master rows must not move
    rng = np.random.default_rng(13)
    cases = [random_posynomial(rng) for _ in range(20)]
    cases.append(outage_posynomial(paper_coeffs, (0, 1, 2, 3), 2))
    cases.append(Posynomial([], np.zeros((0, 3)), 3))
    for pos in cases:
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, pos.dim)
            value, grad = pos.value_grad(x)
            ref_value, ref_grad, _ = pos.parts(x)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()


def test_parts_derivatives_match_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pos = random_posynomial(rng)
        x = rng.uniform(-1.0, 1.0, pos.dim)
        value, grad, hess = pos.parts(x)
        assert grad == pytest.approx(central_diff(pos.value, x), rel=1e-6, abs=1e-6 * value)
        fd_hess = central_diff(lambda z: pos.parts(z)[1], x)
        assert hess == pytest.approx(fd_hess, rel=1e-6, abs=1e-6 * value)
        _, lgrad, lhess = pos.log_parts(x)
        assert lgrad == pytest.approx(central_diff(pos.logvalue, x), abs=1e-7)
        assert lhess == pytest.approx(central_diff(lambda z: pos.log_parts(z)[1], x), abs=1e-7)


def test_parts_of_empty_posynomial():
    value, grad, hess = Posynomial([], np.zeros((0, 3)), 3).parts(np.ones(3))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(3))
    assert np.array_equal(hess, np.zeros((3, 3)))


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
