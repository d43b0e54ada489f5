import numpy as np
import pytest

from rhwznw import factor, numcore, verify, wznw


def _figure(checks, k):
    """The number that ends the detail of a suite's k-th check."""
    return float(checks[k][2].split()[-1])


def _reference(suite, seed, count):
    """The suite's figures from one library call per sample, drawing the
    samples in the suite's order."""
    rng = np.random.default_rng(seed)
    if suite == "cholesky":
        worst_ref = worst_inv = 0.0
        for _ in range(count):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = m.conj().T @ m + 0.1 * np.eye(4)
            msq = verify.hpd_sqrt(h)
            f = factor.cholesky_minors(h, msq)
            b_ref = factor.cholesky_upper(h)
            worst_ref = max(worst_ref, numcore.fro(f.b - b_ref) / numcore.fro(b_ref))
            u = numcore.random_unitary(rng, 4)
            f2 = factor.cholesky_minors(h, u @ msq)
            worst_inv = max(worst_inv, numcore.fro(f.b - f2.b) / numcore.fro(f.b))
        return [worst_ref, worst_inv]
    if suite == "three-form":
        worst = 0.0
        for k in range(count):
            r = 2 if k % 2 == 0 else 3
            h = numcore.random_hpd(rng, r)
            xs = []
            for _ in range(3):
                m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                xs.append(0.5 * (m + m.conj().T))
            t3, dw = wznw.three_form_pair(h, *xs)
            worst = max(worst, abs(t3 - dw) / (1 + abs(t3)))
        return [worst]
    fld = verify.rigid_fixture_field()
    ratios = []
    for _ in range(count):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.25, 0.45)
        z = rad * np.exp(1j * ang)
        ratios.append(wznw.flatness_residual(fld, z, 0.02) / wznw.flatness_residual(fld, z, 0.01))
    return [float(np.median(ratios))]


def _leading(a, core):
    """The length of a's first axis when it stacks members of `core` axes."""
    return np.shape(a)[0] if np.ndim(a) > core else 1


# the samples of each stacked call: its first axis, whatever a callee
# stacks behind it (three_form_pair's twelve metrics per sample)
STACKED = [
    (factor, "cholesky_minors", lambda h, m: _leading(h, 2)),
    (factor, "cholesky_upper", lambda h: _leading(h, 2)),
    (factor, "cholesky_differential", lambda h, dh: _leading(h, 2)),
    (wznw, "three_form_pair", lambda h, x, y, z: _leading(h, 2)),
    (wznw, "flatness_residual", lambda fld, z, step: _leading(z, 0)),
]


@pytest.mark.parametrize(
    "suite, tolerance",
    # cholesky's figures are rounding errors themselves; three-form's 3 dOmega
    # is the same bit for bit; flatness's median is printed to 3 decimals
    [("cholesky", 1e-15), ("three-form", 1e-13), ("flatness", 5e-4 + 1e-8)],
)
def test_suite_takes_its_samples_in_chunks(monkeypatch, suite, tolerance):
    # 7 samples at STACK_SAMPLES = 3 are 3 chunks: no library call takes
    # more than 3 samples, and the figures are those of one call per sample
    monkeypatch.setattr(verify, "STACK_SAMPLES", 3)
    sizes = []
    for owner, name, samples in STACKED:
        inner = getattr(owner, name)

        def wrapper(*args, inner=inner, samples=samples):
            sizes.append(samples(*args))
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)
    checks = verify.SUITES[suite](11, 7)
    assert all(ok for _, ok, _ in checks)
    assert max(sizes) <= 3 and len(sizes) >= 3
    monkeypatch.undo()
    for k, want in enumerate(_reference(suite, 11, 7)):
        assert abs(_figure(checks, k) - want) <= tolerance


def test_fixture_field_is_built_once_and_read_only():
    # one field per process, shared by flatness and counterterm: a write
    # through it would reach every later suite, so each array refuses one
    fld = verify.rigid_fixture_field()
    assert verify.rigid_fixture_field() is fld
    for a in (fld.basepoint_value, fld.series.coefficients, fld.series.coords):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("suite, seed, count", [("flatness", 3, 10), ("counterterm", 0, 1)])
def test_suites_on_the_shared_field_read_a_fresh_ones_bits(monkeypatch, suite, seed, count):
    # the shared field, read by a suite twice over, gives the details that
    # a freshly built field gives, bit for bit
    verify.SUITES[suite](seed, count)
    shared = verify.SUITES[suite](seed, count)
    monkeypatch.setattr(verify, "rigid_fixture_field", verify.rigid_fixture_field.__wrapped__)
    assert verify.SUITES[suite](seed, count) == shared
