import numpy as np
import pytest

from adam_reference import adam_step
from phasornet import optim
from phasornet.errors import NumericError
from phasornet.optim import Adam


def test_zero_gradient_leaves_params_unchanged():
    p = np.array([0.3 + 0.4j, -1.0 + 0j], dtype=np.complex64)
    before = p.copy()
    opt = Adam([p])
    opt.step([p], [np.zeros_like(p)])
    np.testing.assert_array_equal(p, before)


def test_first_step_closed_form():
    # constant scalar gradient g: first update is -lr * g / (|g| + eps*sqrt(1-b2))
    g = 0.37
    p = np.array([1.0])
    opt = Adam([p], lr=0.001)
    opt.step([p], [np.array([g])])
    mhat = g  # (1-b1)g / (1-b1)
    vhat = g * g
    want = 1.0 - 0.001 * mhat / (np.sqrt(vhat) + 1e-8)
    assert p[0] == pytest.approx(want, rel=1e-12)
    # magnitude never exceeds lr*(1+delta)
    assert abs(1.0 - p[0]) <= 0.001 * (1 + 1e-6)


def test_component_independence_complex():
    p = np.array([0.5 + 0.5j], dtype=np.complex128)
    opt = Adam([p])
    opt.step([p], [np.array([0.1 + 0.0j])])
    assert p[0].imag == 0.5  # imaginary part untouched
    assert p[0].real != 0.5


def test_re_im_swap_symmetry():
    rng = np.random.default_rng(0)
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    p1 = np.ones(4, dtype=np.complex128) * (0.2 + 0.7j)
    p2 = (p1.imag + 1j * p1.real).astype(np.complex128)
    o1, o2 = Adam([p1]), Adam([p2])
    for _ in range(5):
        o1.step([p1], [g])
        o2.step([p2], [g.imag + 1j * g.real])
    np.testing.assert_allclose(p2, p1.imag + 1j * p1.real, rtol=1e-12)


def test_deterministic():
    rng = np.random.default_rng(1)
    g = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
    results = []
    for _ in range(2):
        p = np.full((3, 3), 1 + 1j, dtype=np.complex128)
        opt = Adam([p])
        for _ in range(10):
            opt.step([p], g)
        results.append(p.copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_nonfinite_gradient_aborts_with_location():
    p = np.ones(3, dtype=np.complex64)
    opt = Adam([p])
    g = np.zeros(3, dtype=np.complex64)
    g[1] = np.nan
    with pytest.raises(NumericError, match="parameter 0"):
        opt.step([p], [g])


def _mixed_params(rng):
    """A complex64 parameter spanning several blocks and ending mid-block, a
    float64 real one, and a size-1 complex128 one."""
    n = (3 * optim.BLOCK) // 2 + 37  # 2n reals: three full blocks and 74 more
    return [
        (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex64),
        rng.normal(size=(7, 5)),
        np.array([0.3 - 0.2j]),
    ]


def _grads_like(params, rng):
    return [(rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape)).astype(p.dtype)
            if np.iscomplexobj(p) else rng.normal(size=p.shape).astype(p.dtype)
            for p in params]


def test_blocked_step_is_bit_identical_to_whole_array_update():
    rng = np.random.default_rng(11)
    params = _mixed_params(rng)
    ref = [p.copy() for p in params]
    opt = Adam(params, lr=0.01)
    m_ref = [np.zeros_like(a) for a in opt.m]
    v_ref = [np.zeros_like(a) for a in opt.v]
    assert opt.m[0].size > optim.BLOCK and opt.m[0].size % optim.BLOCK
    for t in range(1, 6):
        grads = _grads_like(params, rng)
        opt.step(params, grads)
        adam_step(ref, grads, m_ref, v_ref, t, lr=0.01)
        for a, b in zip(params + opt.m + opt.v, ref + m_ref + v_ref):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_nonfinite_gradient_writes_nothing():
    rng = np.random.default_rng(12)
    params = _mixed_params(rng)
    opt = Adam(params)
    for _ in range(2):
        opt.step(params, _grads_like(params, rng))
    before = [a.copy() for a in params + opt.m + opt.v]
    grads = _grads_like(params, rng)
    grads[1][3, 2] = np.inf
    with pytest.raises(NumericError, match="parameter 1 at component 17"):
        opt.step(params, grads)
    assert opt.t == 2
    for a, b in zip(params + opt.m + opt.v, before):
        np.testing.assert_array_equal(a, b)


def test_non_contiguous_parameter_is_rejected():
    p = np.ones((4, 3)).T
    opt = Adam([p])
    with pytest.raises(ValueError, match="parameter 0 is not C-contiguous"):
        opt.step([p], [np.ones_like(p)])
    np.testing.assert_array_equal(p, 1.0)
